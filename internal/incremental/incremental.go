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
//   - stamps each active group with the version at which it was
//     activated (crossed the min-tuple threshold) or last received a
//     tuple, and
//   - on Snapshot, re-summarizes only the groups stamped since the last
//     snapshot and hands back a frozen engine over the updated universe.
//
// Snapshot is the only way to get an engine, and it costs what changed
// since the last one, not what exists. The snapshot shares the store's
// columns and postings, the group structs and the clean groups' sparse
// signatures; the writer copies a posting or a group before its first
// write after a snapshot (copy-on-write), and a re-summarized group gets a
// new signature instead of changing the old one. Every snapshot's matrix
// cache shares the maintainer's core.Carry, which compares stamps to
// rebuild only the pair-matrix rows of changed groups.
package incremental

import (
	"fmt"
	"slices"
	"strconv"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Maintainer tracks a store and its group universe across inserts.
//
// Concurrency contract: a Maintainer is single-writer. Insert and Snapshot
// must be externally serialized (one goroutine, or a mutex). Engines
// returned by Snapshot are frozen copies that any number of goroutines may
// query while the writer keeps inserting — the epoch/snapshot scheme
// internal/server builds on.
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

	// sigs[i] is the signature of active[i] as of snapVersion. stamps[i]
	// is the version at which active[i] was activated or last received a
	// tuple, so the groups stamped after snapVersion have stale
	// signatures. Two snapshots that agree on a group's stamp agree on its
	// tuples, which is what lets carry compare epochs.
	sigs        []signature.Signature
	stamps      []int64
	snapVersion int64
	carry       *core.Carry

	// snapshots counts snapshots taken: a group activated or copied
	// before the latest one may be shared with a snapshot, so Insert
	// copies it before writing to it.
	snapshots int64

	inserts int
	version int64
}

// pending is a group that may or may not have crossed the threshold yet.
// owned is the snapshot count at which the group was activated or last
// copied; a pending group is in no snapshot, so it is written in place.
type pending struct {
	group  *groups.Group
	active bool
	owned  int64
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
	return build(ds, minTuples, sum, activeKeys, version)
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
		carry:     core.NewCarry(),
		version:   version,
		// Every group activated below is stamped at version, so it is
		// stale until the resummarize at the end.
		snapVersion: version - 1,
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
	var key []byte
	for _, t := range g.Pred.Terms {
		key = appendTermKey(key, t)
	}
	return string(key)
}

// keyOfTuple renders the full attribute assignment of tuple t.
func (m *Maintainer) keyOfTuple(t int) (string, store.Predicate) {
	cols := m.store.Columns()
	pred := store.Predicate{Terms: make([]store.Term, len(cols))}
	key := make([]byte, 0, 8*len(cols))
	for ci, c := range cols {
		pred.Terms[ci] = store.Term{Col: c, Value: m.store.Value(t, c)}
		key = appendTermKey(key, pred.Terms[ci])
	}
	return string(key), pred
}

// appendTermKey appends one term's key part, "side/index/value|" in
// decimal. Checkpoints store these keys (ActiveKeys), so the bytes must
// not change.
func appendTermKey(key []byte, t store.Term) []byte {
	key = strconv.AppendInt(key, int64(t.Col.Side), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(t.Col.Index), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(t.Value), 10)
	return append(key, '|')
}

func (m *Maintainer) activate(p *pending) {
	p.active = true
	p.owned = m.snapshots
	p.group.ID = len(m.active)
	m.active = append(m.active, p.group)
	m.sigs = append(m.sigs, signature.Signature{})
	m.stamps = append(m.stamps, m.version)
}

// Insert appends one tagging action and updates the group universe. The
// action's user and item must already exist in the dataset (add them to
// the dataset first; new attribute values are interned automatically).
func (m *Maintainer) Insert(a model.TaggingAction) error {
	if err := m.store.Append(m.dataset, a); err != nil {
		return err
	}
	m.inserts++
	m.version++
	t := m.store.Len() - 1
	key, pred := m.keyOfTuple(t)
	p, ok := m.byKey[key]
	if !ok {
		bm := store.NewBitmap(m.store.Len())
		p = &pending{group: &groups.Group{ID: -1, Pred: pred, Tuples: bm}}
		m.byKey[key] = p
	} else if p.active && p.owned != m.snapshots {
		// A snapshot shares this group: write to a private copy.
		g := p.group
		p.group = &groups.Group{
			ID:      g.ID,
			Pred:    g.Pred, // terms are immutable once built
			Tuples:  g.Tuples.Clone(),
			Members: g.Members[:len(g.Members):len(g.Members)],
		}
		p.owned = m.snapshots
		m.active[g.ID] = p.group
	}
	// Grow-before-Set: the group's universe is always extended ahead of
	// the new tuple id, since Set panics outside the universe.
	p.group.Tuples.Grow(m.store.Len())
	p.group.Tuples.Set(t)
	p.group.Members = append(p.group.Members, t)
	if !p.active && p.group.Size() >= m.minTuples {
		m.activate(p)
	} else if p.active {
		m.stamps[p.group.ID] = m.version
	}
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
	// DirtyGroups counts groups stamped since the last snapshot, whose
	// signatures the next Snapshot re-summarizes.
	DirtyGroups int
}

// Stats returns the current counters.
func (m *Maintainer) Stats() Stats {
	dirty := 0
	for _, s := range m.stamps {
		if s > m.snapVersion {
			dirty++
		}
	}
	return Stats{
		Inserts:       m.inserts,
		ActiveGroups:  len(m.active),
		PendingGroups: len(m.byKey) - len(m.active),
		DirtyGroups:   dirty,
	}
}

// resummarize recomputes the signatures of the groups stamped since the
// last snapshot.
func (m *Maintainer) resummarize() {
	for id, s := range m.stamps {
		if s > m.snapVersion {
			m.sigs[id] = m.sum.Summarize(m.store, m.active[id])
		}
	}
	m.snapVersion = m.version
}

// Snapshot is a frozen, self-contained view of the maintained analysis:
// an engine over a store and group universe that later inserts cannot
// touch.
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

// Snapshot re-summarizes the groups stamped since the last snapshot and
// returns a frozen copy of the analysis, isolated from subsequent inserts,
// so readers may run queries on it while the writer keeps inserting. It
// costs what changed, not what exists: the store snapshot shares columns
// and postings (Store.Clone), the group slice is copied but the groups
// are shared, and Insert copies a shared group or posting before its first
// write after this call. The engine gets a copy of the signature slice,
// whose clean entries share their rows with earlier snapshots; NewEngine
// validates it in O(groups).
//
// Pair matrices carry over: the new engine's cache shares the
// maintainer's core.Carry with a frozen copy of the stamps, so a matrix
// build recomputes only the rows of groups changed or added since the
// carried matrix, bit-identical to a scratch build.
func (m *Maintainer) Snapshot() (*Snapshot, error) {
	m.resummarize()
	st := m.store.Clone()
	gs := slices.Clone(m.active)
	eng, err := core.NewEngine(st, gs, slices.Clone(m.sigs))
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	m.snapshots++
	eng.Cache().UseCarry(m.carry, m.version, slices.Clone(m.stamps))
	return &Snapshot{
		Engine:    eng,
		Store:     st,
		Groups:    gs,
		Version:   m.version,
		VocabSize: st.Vocab.Size(),
	}, nil
}

// Replicate returns a second engine over the frozen snapshot: same
// Version and VocabSize, and the same store, groups and signatures, which
// no writer touches any more. The engine shares the
// receiver's pair-matrix cache: matrices are immutable once built, so
// replicas can safely serve reads from one materialization instead of each
// rebuilding identical n(n-1)/2 triangles. Sharing the cache also carries
// engine-level pair-function overrides (SetPairFunc) into every replica —
// a solve on any replica sees the same measures the base engine was
// configured with. The server does not replicate — every shard's partial
// reads the one published snapshot.
func (s *Snapshot) Replicate() (*Snapshot, error) {
	eng, err := core.NewEngine(s.Store, s.Groups, s.Engine.Sigs)
	if err != nil {
		return nil, err
	}
	eng.AdoptCache(s.Engine)
	return &Snapshot{
		Engine:    eng,
		Store:     s.Store,
		Groups:    s.Groups,
		Version:   s.Version,
		VocabSize: s.VocabSize,
	}, nil
}

// Store exposes the underlying store (read-only use).
func (m *Maintainer) Store() *store.Store { return m.store }

// ActiveGroups returns the current above-threshold groups; the slice is
// shared and must not be mutated.
func (m *Maintainer) ActiveGroups() []*groups.Group { return m.active }
