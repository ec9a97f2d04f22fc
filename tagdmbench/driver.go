package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// result is the client-side record of one request.
type result struct {
	op *op
	// late is how long after its scheduled time the request was sent
	// (open loop only): the wait a stall imposed on it in the client queue.
	late time.Duration
	// latency runs from the scheduled send (open loop) or the actual send
	// (closed loop) to the end of the response body.
	latency time.Duration
	status  int
	// failed marks a non-2xx status, a transport error, a timeout, or an
	// arrival the phase ended before it could be sent.
	failed bool
	// overtime marks a closed-loop request that completed after the
	// phase ended: its effects count, its completion does not.
	overtime bool
	body     []byte
}

// newClients returns one HTTP client per connection, each pinned to a
// single keep-alive connection so the load never exceeds conns sockets.
func newClients(conns int, timeout time.Duration) []*http.Client {
	out := make([]*http.Client, conns)
	for i := range out {
		out[i] = &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// load is where a phase sends its requests.
type load struct {
	clients []*http.Client
	base    string
}

func (l *load) send(c *http.Client, o *op) (int, []byte, error) {
	path := "/v1/analyze"
	if o.ingest {
		path = "/v1/actions"
	}
	resp, err := c.Post(l.base+path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (r *result) finish(status int, body []byte, err error) {
	r.status, r.body = status, body
	r.failed = err != nil || status < 200 || status > 299
}

// runOpen sends ops[i] at sched[i] after the phase starts (an open loop:
// arrivals do not wait for completions). Each client connection takes the
// next due arrival in order; when every connection is busy, arrivals queue
// in the client and are still timed from their scheduled send, so a stall
// shows in the latency of everything queued behind it. Ingests come from
// one writer: an ingest is sent only after the previous one has been
// answered, so the epochs they publish follow their order. Arrivals not
// sent by the end of the schedule plus grace are failed without being
// sent. It returns one result per arrival, in schedule order.
func runOpen(l *load, ops []op, sched []time.Duration, grace time.Duration) []result {
	results := make([]result, len(sched))
	var next atomic.Int64
	// answered[i] closes once ingest i has been answered; prev[i] is the
	// ingest before i in schedule order, or -1.
	answered := make([]chan struct{}, len(sched))
	prev := make([]int, len(sched))
	last := -1
	for i := range ops[:len(sched)] {
		if ops[i].ingest {
			answered[i] = make(chan struct{})
			prev[i], last = last, i
		}
	}
	var cutoff time.Duration
	if len(sched) > 0 {
		cutoff = sched[len(sched)-1] + grace
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				r := &results[i]
				r.op = &ops[i]
				if wait := sched[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				if r.op.ingest && prev[i] >= 0 {
					<-answered[prev[i]]
				}
				now := time.Since(start)
				if now > cutoff {
					r.failed = true
				} else {
					r.late = now - sched[i]
					status, body, err := l.send(c, r.op)
					r.latency = time.Since(start) - sched[i]
					r.finish(status, body, err)
				}
				if r.op.ingest {
					close(answered[i])
				}
			}
		}(c)
	}
	wg.Wait()
	return results
}

// runClosed keeps every connection busy for d: each sends its next op as
// soon as the previous one completes (a closed loop). Ops are taken in
// order from ops; it returns every result in completion order, those that
// completed after d marked overtime.
func runClosed(l *load, ops []op, d time.Duration) []result {
	var mu sync.Mutex
	var results []result
	var next atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				r := result{op: &ops[i]}
				sent := time.Now()
				status, body, err := l.send(c, r.op)
				done := time.Now()
				r.latency = done.Sub(sent)
				r.overtime = done.After(deadline)
				r.finish(status, body, err)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return results
}
