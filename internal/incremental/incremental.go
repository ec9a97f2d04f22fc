// Package incremental maintains a TagDM analysis under a stream of new
// tagging actions — the paper's Section 8 future work ("handle updates and
// insertions of new users, items and tags"). Instead of rebuilding the
// store, group enumeration and signatures from scratch on every insert, a
// Maintainer:
//
//   - appends the action to the columnar store (posting lists update in
//     place),
//   - routes the new tuple to its fully-described group, creating the
//     group when the combination is new,
//   - tracks which groups crossed the min-tuple threshold ("activated")
//     or changed ("dirty") since the last refresh, and
//   - on Refresh, re-summarizes only the dirty groups and hands back a
//     consistent engine over the updated universe.
//
// Signature invalidation is the expensive part; batching inserts between
// refreshes amortizes it, which the benchmarks in bench_test.go quantify.
package incremental

import (
	"fmt"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Maintainer tracks a store and its group universe across inserts.
//
// Concurrency contract: a Maintainer is single-writer. Insert, Refresh and
// Snapshot must be externally serialized (one goroutine, or a mutex).
// Engines returned by Refresh share the maintainer's mutable state and must
// not be used concurrently with further inserts; engines returned by
// Snapshot are frozen copies that any number of goroutines may query while
// the writer keeps inserting — the epoch/snapshot scheme internal/server
// builds on.
type Maintainer struct {
	dataset   *model.Dataset
	store     *store.Store
	minTuples int
	sum       signature.Summarizer

	// byKey indexes every seen full attribute assignment, including
	// groups still below the threshold.
	byKey map[string]*pending

	// active is the current above-threshold group list in a stable order
	// (activation order); IDs are dense in this slice.
	active []*groups.Group

	// sigs[i] is the signature of active[i]; dirty marks stale entries.
	sigs  []signature.Signature
	dirty map[int]bool

	// dirtySnap accumulates the groups touched since the last Snapshot —
	// unlike dirty it survives Refresh (which clears dirty when it
	// re-summarizes) and is what the epoch carry-over hands the next
	// snapshot's matrix cache: pair scores of two clean carried groups
	// are bit-identical across epochs, so only rows touching dirtySnap
	// need recomputing. prevCache/prevN remember the previous snapshot's
	// cache and universe size for the AttachCarry link.
	dirtySnap map[int]bool
	prevCache *core.MatrixCache
	prevN     int

	inserts int
	version int64
}

// pending is a group that may or may not have crossed the threshold yet.
type pending struct {
	group  *groups.Group
	active bool
}

// New builds a maintainer over a dataset. The initial universe enumerates
// fully-described groups with at least minTuples tuples and summarizes
// them with sum.
func New(ds *model.Dataset, minTuples int, sum signature.Summarizer) (*Maintainer, error) {
	return build(ds, minTuples, sum, nil, 0)
}

// Restore rebuilds a maintainer from checkpointed state: the dataset holds
// the actions as of the checkpoint, activeKeys is the ActiveKeys() capture
// taken at the same moment, and version is the maintainer version to resume
// from.
//
// Group IDs matter: solvers break ties by the first maximum, so two
// universes with the same groups in different ID order can return different
// (equally valid) answers. A live maintainer assigns IDs in activation
// order — initial enumeration order, then threshold-crossing order under
// ingest — which a fresh enumeration of the same store does not reproduce.
// Replaying activeKeys instead re-activates groups in exactly the recorded
// order, so a recovered server answers queries byte-identically to the
// process that wrote the checkpoint.
//
// Restore fails loudly rather than diverge silently: every key must name an
// existing fully-described group at or above minTuples, no key may repeat,
// and every qualifying group must be covered by some key.
func Restore(ds *model.Dataset, minTuples int, sum signature.Summarizer, activeKeys []string, version int64) (*Maintainer, error) {
	if activeKeys == nil {
		activeKeys = []string{} // non-nil: empty active set is an assertion, not "use default order"
	}
	m, err := build(ds, minTuples, sum, activeKeys, version)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func build(ds *model.Dataset, minTuples int, sum signature.Summarizer, activeKeys []string, version int64) (*Maintainer, error) {
	if minTuples < 1 {
		return nil, fmt.Errorf("incremental: minTuples must be >= 1")
	}
	st, err := store.New(ds)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		dataset:   ds,
		store:     st,
		minTuples: minTuples,
		sum:       sum,
		byKey:     make(map[string]*pending),
		dirty:     make(map[int]bool),
		dirtySnap: make(map[int]bool),
		version:   version,
	}
	// Seed byKey with every existing tuple, then activate qualifying
	// groups — in deterministic enumeration order for a fresh build, or in
	// the recorded activation order for a restore.
	enum := (&groups.Enumerator{Store: st, MinTuples: 1}).FullyDescribed()
	for _, g := range enum {
		p := &pending{group: g}
		m.byKey[m.keyOfGroup(g)] = p
	}
	if activeKeys == nil {
		for _, g := range enum {
			if g.Size() >= minTuples {
				m.activate(m.byKey[m.keyOfGroup(g)])
			}
		}
	} else {
		for i, key := range activeKeys {
			p, ok := m.byKey[key]
			if !ok {
				return nil, fmt.Errorf("incremental: restore: active key %d (%q) names no fully-described group", i, key)
			}
			if p.active {
				return nil, fmt.Errorf("incremental: restore: active key %d (%q) repeats", i, key)
			}
			if p.group.Size() < minTuples {
				return nil, fmt.Errorf("incremental: restore: active key %d (%q) has %d tuples, below threshold %d",
					i, key, p.group.Size(), minTuples)
			}
			m.activate(p)
		}
		for _, g := range enum {
			if g.Size() >= minTuples && !m.byKey[m.keyOfGroup(g)].active {
				return nil, fmt.Errorf("incremental: restore: qualifying group %q missing from active keys", m.keyOfGroup(g))
			}
		}
	}
	m.resummarize()
	return m, nil
}

// ActiveKeys returns the full attribute-assignment keys of the active
// groups in ID order — the capture a checkpoint stores so Restore can
// re-activate groups in the same order.
func (m *Maintainer) ActiveKeys() []string {
	keys := make([]string, len(m.active))
	for i, g := range m.active {
		keys[i] = m.keyOfGroup(g)
	}
	return keys
}

// keyOfGroup renders the full attribute assignment of a group.
func (m *Maintainer) keyOfGroup(g *groups.Group) string {
	key := ""
	for _, t := range g.Pred.Terms {
		key += fmt.Sprintf("%d/%d/%d|", t.Col.Side, t.Col.Index, t.Value)
	}
	return key
}

// keyOfTuple renders the full attribute assignment of tuple t.
func (m *Maintainer) keyOfTuple(t int) (string, store.Predicate) {
	cols := m.store.Columns()
	pred := store.Predicate{Terms: make([]store.Term, len(cols))}
	key := ""
	for ci, c := range cols {
		v := m.store.Value(t, c)
		pred.Terms[ci] = store.Term{Col: c, Value: v}
		key += fmt.Sprintf("%d/%d/%d|", c.Side, c.Index, v)
	}
	return key, pred
}

func (m *Maintainer) activate(p *pending) {
	p.active = true
	p.group.ID = len(m.active)
	m.active = append(m.active, p.group)
	m.sigs = append(m.sigs, signature.Signature{})
	m.dirty[p.group.ID] = true
	m.dirtySnap[p.group.ID] = true
}

// Insert appends one tagging action and updates the group universe. The
// action's user and item must already exist in the dataset (add them to
// the dataset first; new attribute values are interned automatically).
func (m *Maintainer) Insert(a model.TaggingAction) error {
	if err := m.store.Append(m.dataset, a); err != nil {
		return err
	}
	t := m.store.Len() - 1
	key, pred := m.keyOfTuple(t)
	p, ok := m.byKey[key]
	if !ok {
		bm := store.NewBitmap(m.store.Len())
		p = &pending{group: &groups.Group{ID: -1, Pred: pred, Tuples: bm}}
		m.byKey[key] = p
	}
	// Grow-before-Set: the group's universe is always extended ahead of
	// the new tuple id, since Set panics outside the universe.
	p.group.Tuples.Grow(m.store.Len())
	p.group.Tuples.Set(t)
	p.group.Members = append(p.group.Members, t)
	if !p.active && p.group.Size() >= m.minTuples {
		m.activate(p)
	} else if p.active {
		m.dirty[p.group.ID] = true
		m.dirtySnap[p.group.ID] = true
	}
	m.inserts++
	m.version++
	return nil
}

// Version is a monotonic counter bumped on every Insert. Two equal versions
// observe identical store contents, so it doubles as the epoch for
// snapshot-keyed result caches.
func (m *Maintainer) Version() int64 { return m.version }

// Stats reports maintenance counters.
type Stats struct {
	// Inserts counts actions inserted since construction.
	Inserts int
	// ActiveGroups is the current above-threshold group count.
	ActiveGroups int
	// PendingGroups counts below-threshold assignments being tracked.
	PendingGroups int
	// DirtyGroups counts groups whose signatures are stale.
	DirtyGroups int
}

// Stats returns the current counters.
func (m *Maintainer) Stats() Stats {
	return Stats{
		Inserts:       m.inserts,
		ActiveGroups:  len(m.active),
		PendingGroups: len(m.byKey) - len(m.active),
		DirtyGroups:   len(m.dirty),
	}
}

// resummarize recomputes signatures for dirty groups only.
func (m *Maintainer) resummarize() {
	for id := range m.dirty {
		m.sigs[id] = m.sum.Summarize(m.store, m.active[id])
	}
	m.dirty = make(map[int]bool)
}

// Refresh re-summarizes dirty groups and returns a consistent engine over
// the current universe. The returned engine shares the maintainer's store
// and groups; run queries before the next batch of inserts or call
// Refresh again.
func (m *Maintainer) Refresh() (*core.Engine, error) {
	m.resummarize()
	return core.NewEngine(m.store, m.active, m.sigs)
}

// Snapshot is a frozen, self-contained view of the maintained analysis:
// an engine over a deep-copied store and group universe that later inserts
// cannot touch.
type Snapshot struct {
	// Engine answers queries against the frozen universe; safe for
	// concurrent Solve calls.
	Engine *core.Engine
	// Store is the frozen store the engine reads from (group descriptions,
	// scoped re-enumeration).
	Store *store.Store
	// Groups is the frozen group universe (aliases Engine.Groups).
	Groups []*groups.Group
	// Version is the maintainer version the snapshot was taken at.
	Version int64
	// VocabSize is the tag vocabulary size at snapshot time. The store
	// shares the live (growing) vocabulary; consumers that size vectors by
	// vocabulary — e.g. frequency signatures for scoped re-analyses — must
	// use this frozen size so equal versions keep producing equal answers.
	VocabSize int
}

// Snapshot re-summarizes dirty groups and returns a frozen copy of the
// analysis. Unlike Refresh, the result is isolated from subsequent inserts:
// the store, group bitmaps and membership lists are deep-copied, so readers
// may run queries on the snapshot while the writer keeps inserting. The
// copy is O(store size); batch inserts between snapshots to amortize it.
//
// Pair matrices carry over: the new engine's cache is linked to the
// previous snapshot's cache together with the set of groups touched since
// — group IDs are stable and append-only, and a clean group's predicate
// and signature are unchanged, so the next matrix materialization reuses
// every clean row and recomputes only rows involving touched or new
// groups (mining.PairMatrix.RebuildRows), bit-identical to a scratch
// build.
func (m *Maintainer) Snapshot() (*Snapshot, error) {
	m.resummarize()
	st := m.store.Clone()
	gs := make([]*groups.Group, len(m.active))
	for i, g := range m.active {
		gs[i] = &groups.Group{
			ID:      g.ID,
			Pred:    g.Pred, // terms are immutable once built
			Tuples:  g.Tuples.Clone(),
			Members: append([]int(nil), g.Members...),
		}
	}
	sigs := append([]signature.Signature(nil), m.sigs...)
	eng, err := core.NewEngine(st, gs, sigs)
	if err != nil {
		return nil, err
	}
	if m.prevCache != nil {
		dirty := make([]bool, m.prevN)
		for id := range m.dirtySnap {
			if id < m.prevN {
				dirty[id] = true
			}
		}
		eng.Cache().AttachCarry(m.prevCache, dirty)
	}
	m.prevCache = eng.Cache()
	m.prevN = len(gs)
	m.dirtySnap = make(map[int]bool)
	return &Snapshot{
		Engine:    eng,
		Store:     st,
		Groups:    gs,
		Version:   m.version,
		VocabSize: st.Vocab.Size(),
	}, nil
}

// Replicate deep-copies a frozen Snapshot into an independent replica:
// same Version and VocabSize, structurally identical store, groups and
// signatures. The replica's store, groups and scorer scratch are private,
// but the engine shares the receiver's pair-matrix cache: matrices are
// immutable once built, so replicas can safely serve reads from one
// materialization instead of each rebuilding identical n(n-1)/2 triangles.
// Sharing the cache also carries engine-level pair-function overrides
// (SetPairFunc) into every replica — a solve on any replica sees the same
// measures the base engine was configured with. The receiver is already
// frozen, so unlike Maintainer.Snapshot this runs outside the writer lock.
// The server does not replicate — every shard's partial reads the one
// published snapshot — so replicas serve only to measure what a deep copy
// costs.
func (s *Snapshot) Replicate() (*Snapshot, error) {
	st := s.Store.Clone()
	gs := make([]*groups.Group, len(s.Groups))
	for i, g := range s.Groups {
		gs[i] = &groups.Group{
			ID:      g.ID,
			Pred:    g.Pred, // terms are immutable once built
			Tuples:  g.Tuples.Clone(),
			Members: append([]int(nil), g.Members...),
		}
	}
	sigs := append([]signature.Signature(nil), s.Engine.Sigs...)
	eng, err := core.NewEngine(st, gs, sigs)
	if err != nil {
		return nil, err
	}
	eng.AdoptCache(s.Engine)
	return &Snapshot{
		Engine:    eng,
		Store:     st,
		Groups:    gs,
		Version:   s.Version,
		VocabSize: s.VocabSize,
	}, nil
}

// Store exposes the underlying store (read-only use).
func (m *Maintainer) Store() *store.Store { return m.store }

// ActiveGroups returns the current above-threshold groups; the slice is
// shared and must not be mutated.
func (m *Maintainer) ActiveGroups() []*groups.Group { return m.active }
