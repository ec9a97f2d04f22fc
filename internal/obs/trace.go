// Package obs is the observability spine of the repo: request-scoped
// trace spans propagated via context.Context, a Prometheus-text metrics
// registry, a strict parser for that format (used by tests and the
// promcheck CLI), and structured JSON logging helpers.
//
// The design constraint that shapes everything here is that the solver
// hot paths are instrumented unconditionally: StartSpan is called from
// inside Exact enumeration setup, SM-LSH rounds and DV-FDP sweeps on
// every solve, traced or not. When no trace is attached to the context,
// StartSpan returns a nil *Span and every method on a nil *Span is a
// no-op — zero allocations, two branch instructions. The overhead guard
// in the root bench suite pins this.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span is one timed stage of a request or solver run. Spans form a tree:
// the root is created by NewTrace, children by StartSpan against a
// context carrying the parent. Every span records wall time between
// creation and End; only the root also records process CPU time
// (user+sys, via getrusage). A child's CPU delta would be whole-process
// CPU over its window — an upper bound whenever other goroutines run —
// and the two syscalls per child cost more than short solver stages.
//
// All methods are safe on a nil receiver so call sites never branch on
// whether tracing is enabled.
type Span struct {
	name     string
	start    time.Time
	root     bool
	cpuStart time.Duration

	mu       sync.Mutex
	wall     time.Duration
	cpu      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// NewTrace starts a root span. The caller must End it before reading the
// tree.
func NewTrace(name string) *Span {
	return &Span{name: name, start: time.Now(), root: true, cpuStart: cpuTime()}
}

// StartChild creates and attaches a child span. Nil-safe: a nil parent
// yields a nil child.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's wall duration, and a root span's CPU duration.
// Subsequent calls are no-ops, as is calling End on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	var cpu time.Duration
	if s.root {
		cpu = cpuTime() - s.cpuStart
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.wall = wall
		s.cpu = cpu
	}
	s.mu.Unlock()
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Wall returns the recorded wall duration (elapsed-so-far if not ended).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.wall
}

// Tree snapshots the span and its descendants into a JSON-marshalable
// form. Safe to call concurrently with children still recording; spans
// not yet ended report elapsed-so-far.
func (s *Span) Tree() *SpanTree {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	t := &SpanTree{
		Name:     s.name,
		WallMs:   durMillis(s.wall),
		CPUMs:    durMillis(s.cpu),
		Children: make([]*SpanTree, 0, len(s.children)),
	}
	if !s.ended {
		t.WallMs = durMillis(time.Since(s.start))
		if s.root {
			t.CPUMs = durMillis(cpuTime() - s.cpuStart)
		}
	}
	if len(s.attrs) > 0 {
		t.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			t.Attrs[a.Key] = a.Value
		}
	}
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	for _, c := range kids {
		t.Children = append(t.Children, c.Tree())
	}
	if len(t.Children) == 0 {
		t.Children = nil
	}
	return t
}

// SpanTree is the serializable snapshot of a span tree, embedded in
// traced analyze responses and slow-query log lines. CPUMs is set on the
// root only.
type SpanTree struct {
	Name     string         `json:"name"`
	WallMs   float64        `json:"wall_ms"`
	CPUMs    float64        `json:"cpu_ms,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanTree    `json:"children,omitempty"`
}

// Find returns the first descendant (depth-first, including the receiver)
// with the given name, or nil.
func (t *SpanTree) Find(name string) *SpanTree {
	if t == nil {
		return nil
	}
	if t.Name == name {
		return t
	}
	for _, c := range t.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

func durMillis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

type spanCtxKey struct{}

// WithSpan returns a context carrying the span; StartSpan against it
// creates children of s.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's span. When the context
// carries no span this returns nil without allocating, which makes it
// safe to call unconditionally on hot paths.
func StartSpan(ctx context.Context, name string) *Span {
	return SpanFromContext(ctx).StartChild(name)
}

type requestIDKey struct{}

// NewRequestID returns a 16-hex-char random request identifier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// timestamp so a request id is still unique enough for logs.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

// ContextWithRequestID attaches a request id to ctx.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request id carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
