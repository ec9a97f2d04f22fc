package core

import (
	"sync"
	"sync/atomic"

	"tagdm/internal/lsh"
	"tagdm/internal/mining"
)

// MatrixCache is the shared pair-matrix lifecycle behind one snapshot
// epoch's engines: the per-binding matrices, the pair-function overrides,
// a single-flight build coordinator, an optional memory budget with LRU
// eviction, the link to its maintainer's Carry, and the epoch's SM-LSH
// sign bits: one table per (fold flags, L·DPrime, seed), computed once in
// a single dot-product pass that every shard and relaxation round of every
// request then slices.
//
// Every shard partial of a solve, and every concurrent request, scores
// through the one published engine's cache, so each binding is built
// once per epoch. A cache may also serve a replica engine of its
// snapshot (Snapshot.Replicate via AdoptCache; a replica reads the same
// store, groups and signatures, so its matrices are the same too). Engines of different snapshots must not
// share a cache — carry across epochs goes through a shared Carry
// instead, which reuses clean rows rather than whole matrices.
//
// Outcome accounting: exactly one caller per (binding, epoch) observes
// matrixBuilt or matrixRebuilt — the one whose build closure ran — and
// every other caller, including single-flight waiters that arrived
// mid-build, observes matrixHit. Summed over any set of solves this keeps
// builds + hits equal to bindings touched while physical builds are
// counted once, the invariant the server's matrix counters export.
type MatrixCache struct {
	// mu guards the maps, the budget accounting and the LRU clock. Matrix
	// builds (multi-second at paper scale) and waiting on another
	// caller's in-flight build always happen outside it.
	//
	//tagdm:mutex nonblocking
	mu        sync.Mutex
	entries   map[pairKey]*cacheEntry
	inflight  map[pairKey]*inflightBuild
	overrides map[pairKey]mining.PairFunc
	// vers counts SetPairFunc overrides per binding; a matrix built
	// outside the lock publishes only if the binding's version is
	// unchanged, so a racing override is never shadowed by a stale build.
	vers map[pairKey]uint64

	budget    int64          // max resident matrix bytes; 0 = unlimited
	bytes     int64          // current resident matrix bytes
	evictions *atomic.Uint64 // the carry's counter once one is linked
	tick      uint64         // LRU clock; bumped on every entry touch

	// Carry link (nil for a standalone engine): the maintainer's shared
	// record plus this epoch's version and per-group change stamps.
	carry   *Carry
	version int64
	stamps  []int64

	// Epoch-scoped SM-LSH sign bits, one table per lshKey. A table
	// depends only on the engine's groups, signatures, the spec's fold
	// flags and the key's width and seed, so every shard, relaxation round
	// and request of the epoch slices the same one. Not budget-accounted
	// (n·⌈width/64⌉ words, far below one matrix); lshCap bounds the map
	// against unbounded distinct parameter sets. lshBuilds counts tables
	// computed.
	lsh       map[lshKey]*lshEntry
	lshBuilds atomic.Uint64
}

type cacheEntry struct {
	m     *mining.PairMatrix
	bytes int64
	tick  uint64
}

// inflightBuild is the single-flight rendezvous for one binding: done is
// closed when the build resolves; m is nil when the build was invalidated
// by a racing SetPairFunc and waiters must retry.
type inflightBuild struct {
	done chan struct{}
	m    *mining.PairMatrix
}

// lshKey names one sign-bit table: the fold flags pick the hashed
// vectors, width (L·DPrime) and seed the planes. Every relaxation round
// slices the one table, and (L, DPrime) pairs with equal products share
// it, since both read rows [0, width) of one stream.
type lshKey struct {
	foldUsers, foldItems bool
	width                int
	seed                 int64
}

// lshEntry is one single-flight table: once runs the build, and bits and
// err are read only after once.Do returns.
type lshEntry struct {
	once sync.Once
	bits *lsh.Bits
	err  error
}

// lshCap bounds the per-epoch sign-bit tables. One table serves every
// relaxation round of a (fold flags, L·DPrime, seed), so real workloads
// hold a handful; the cap only guards pathological parameter churn.
const lshCap = 64

// matrixOutcome classifies how a binding was served.
type matrixOutcome uint8

const (
	matrixHit matrixOutcome = iota
	matrixBuilt
	matrixRebuilt
)

func newMatrixCache() *MatrixCache {
	return &MatrixCache{
		entries:   make(map[pairKey]*cacheEntry),
		inflight:  make(map[pairKey]*inflightBuild),
		overrides: make(map[pairKey]mining.PairFunc),
		vers:      make(map[pairKey]uint64),
		evictions: new(atomic.Uint64),
		lsh:       make(map[lshKey]*lshEntry),
	}
}

// MatrixCacheStats is the cache's observable state, exported through the
// server's tagdm_matrix_bytes / tagdm_matrix_evictions_total gauges.
type MatrixCacheStats struct {
	// Bytes is the resident condensed-matrix storage.
	Bytes int64
	// Entries is the resident matrix count.
	Entries int
	// Evictions counts budget evictions. A cache linked to a Carry reports
	// the carry's count, summed over every snapshot of its maintainer, so
	// the exported counter stays monotonic over snapshot publication.
	Evictions uint64
}

// Stats returns the current cache counters.
func (c *MatrixCache) Stats() MatrixCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MatrixCacheStats{Bytes: c.bytes, Entries: len(c.entries), Evictions: c.evictions.Load()}
}

// Carry is the matrix record every snapshot of one maintainer shares: per
// binding, the newest finished default-measure matrix and the change
// stamps of the epoch that built it. A group's stamp is the maintainer
// version at which it was activated or last received a tuple; group IDs
// are stable and append-only, so epochs that agree on a stamp agree on the
// group's predicate and signature. A build rebuilds the carried matrix's
// rows whose stamp differs or that it lacks (bit-identical to a scratch
// build) and, once published, offers its result back. No epoch waits on
// another: while the newest one builds, the next-newest matrix serves. An
// evicted matrix leaves the carry, so a budget still bounds what it pins.
type Carry struct {
	mu        sync.Mutex
	newest    map[pairKey]carried
	evictions atomic.Uint64
}

// carried is one binding's entry in a Carry.
type carried struct {
	m       *mining.PairMatrix
	version int64
	stamps  []int64
}

// NewCarry returns an empty carry record.
func NewCarry() *Carry { return &Carry{newest: make(map[pairKey]carried)} }

// take returns the carried matrix for k and its dirty flags against
// stamps, indexed by the carried matrix's group IDs: a group is dirty when
// its stamp differs or the new universe lacks it. (nil, nil) when nothing
// is carried.
func (cr *Carry) take(k pairKey, stamps []int64) (*mining.PairMatrix, []bool) {
	cr.mu.Lock()
	e, ok := cr.newest[k]
	cr.mu.Unlock()
	if !ok {
		return nil, nil
	}
	dirty := make([]bool, len(e.stamps))
	for i, s := range e.stamps {
		dirty[i] = i >= len(stamps) || stamps[i] != s
	}
	return e.m, dirty
}

// offer records m, built at version over stamps, unless the carry already
// holds a newer epoch's matrix for k.
func (cr *Carry) offer(k pairKey, m *mining.PairMatrix, version int64, stamps []int64) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if e, ok := cr.newest[k]; !ok || e.version <= version {
		cr.newest[k] = carried{m: m, version: version, stamps: stamps}
	}
}

// evicted drops m from the carry if it is k's carried matrix.
func (cr *Carry) evicted(k pairKey, m *mining.PairMatrix) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.newest[k].m == m {
		delete(cr.newest, k)
	}
}

// UseCarry links this (fresh) cache to carry. version is the maintainer
// version of the epoch and stamps[i] the change stamp of group i; the
// cache keeps stamps, so the caller must not modify them. Call before the
// engine serves queries.
func (c *MatrixCache) UseCarry(carry *Carry, version int64, stamps []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.carry, c.version, c.stamps = carry, version, stamps
	c.evictions = &carry.evictions
}

// SetBudget caps resident matrix bytes; 0 removes the cap. Lowering the
// budget below the current residency evicts immediately.
func (c *MatrixCache) SetBudget(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes < 0 {
		bytes = 0
	}
	c.budget = bytes
	c.evictLocked(nil)
}

// overBudget reports whether adding addBytes of matrix storage would
// exceed the budget even after evicting everything else — the signal the
// gated scorer uses to fall back to lazy scoring instead of forcing a full
// build.
func (c *MatrixCache) overBudget(addBytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget > 0 && addBytes > c.budget
}

// setOverride installs a pair-function override for one binding, dropping
// any cached matrix for it and bumping the binding version so an
// in-flight build of the old function cannot repopulate the cache.
func (c *MatrixCache) setOverride(k pairKey, f mining.PairFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.overrides[k] = f
	if ent, ok := c.entries[k]; ok {
		c.bytes -= ent.bytes
		delete(c.entries, k)
	}
	c.vers[k]++
}

// override returns the installed pair-function override for a binding.
func (c *MatrixCache) override(k pairKey) (mining.PairFunc, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.overrides[k]
	return f, ok
}

// lookup returns the cached matrix for a binding without building,
// touching the LRU clock on a hit — the gated scorer's "use what's
// already paid for" probe.
func (c *MatrixCache) lookup(k pairKey) *mining.PairMatrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[k]; ok {
		c.tick++
		ent.tick = c.tick
		return ent.m
	}
	return nil
}

// peek returns the cached matrix for a binding without building, without
// counting an outcome and without touching the LRU clock — the read the
// result-finishing path uses so it never perturbs cache state.
func (c *MatrixCache) peek(k pairKey) *mining.PairMatrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.entries[k]; ok {
		return ent.m
	}
	return nil
}

// matrix returns the binding's matrix, serving from cache, joining an
// in-flight build, or running build itself — exactly one caller per
// resolved build observes a non-hit outcome. build receives the carried
// matrix and its dirty flags when the carry holds one (nil otherwise) and
// must return a matrix over the current universe.
func (c *MatrixCache) matrix(k pairKey, build func(prev *mining.PairMatrix, dirty []bool) *mining.PairMatrix) (*mining.PairMatrix, matrixOutcome) {
	for {
		c.mu.Lock()
		if ent, ok := c.entries[k]; ok {
			c.tick++
			ent.tick = c.tick
			c.mu.Unlock()
			return ent.m, matrixHit
		}
		if fl, ok := c.inflight[k]; ok {
			c.mu.Unlock()
			<-fl.done
			if fl.m != nil {
				// Another caller paid the build; this one shares it.
				return fl.m, matrixHit
			}
			continue // the build was invalidated by an override; retry
		}
		ver := c.vers[k]
		fl := &inflightBuild{done: make(chan struct{})}
		c.inflight[k] = fl
		// An overridden binding neither takes from the carry nor offers
		// to it: carried matrices embody the default measure.
		carry, version, stamps := c.carry, c.version, c.stamps
		if _, overridden := c.overrides[k]; overridden {
			carry = nil
		}
		c.mu.Unlock()

		var prev *mining.PairMatrix
		var dirty []bool
		if carry != nil {
			prev, dirty = carry.take(k, stamps)
		}
		m := build(prev, dirty)
		outcome := matrixBuilt
		if prev != nil {
			outcome = matrixRebuilt
		}

		c.mu.Lock()
		delete(c.inflight, k)
		if c.vers[k] != ver {
			// SetPairFunc landed mid-build; this matrix holds the old
			// measure's values. Wake waiters to retry and retry ourselves.
			close(fl.done)
			c.mu.Unlock()
			continue
		}
		c.insertLocked(k, m)
		if carry != nil {
			carry.offer(k, m, version, stamps)
		}
		fl.m = m
		close(fl.done)
		c.mu.Unlock()
		return m, outcome
	}
}

// insertLocked publishes a built matrix and enforces the budget, never
// evicting the entry just inserted (solvers hold a reference anyway; the
// cache keeps the newest binding resident so the current solve's sibling
// bindings are the ones competing for the remainder).
func (c *MatrixCache) insertLocked(k pairKey, m *mining.PairMatrix) {
	ent := &cacheEntry{m: m, bytes: m.Bytes()}
	c.tick++
	ent.tick = c.tick
	c.entries[k] = ent
	c.bytes += ent.bytes
	c.evictLocked(ent)
}

// evictLocked drops coldest entries until residency fits the budget,
// sparing keep (the just-inserted entry, which may alone exceed the
// budget — a single over-budget matrix is served and kept rather than
// thrashed).
func (c *MatrixCache) evictLocked(keep *cacheEntry) {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget {
		var coldKey pairKey
		var cold *cacheEntry
		for key, ent := range c.entries {
			if ent == keep {
				continue
			}
			if cold == nil || ent.tick < cold.tick {
				coldKey, cold = key, ent
			}
		}
		if cold == nil {
			return
		}
		c.bytes -= cold.bytes
		delete(c.entries, coldKey)
		c.evictions.Add(1)
		if c.carry != nil {
			c.carry.evicted(coldKey, cold.m)
		}
	}
}

// lshBits returns the epoch's sign-bit table for a key, building it once:
// the first caller runs build inside the entry's sync.Once, outside mu,
// and every concurrent caller (the other shards of a solve, other
// requests, later relaxation rounds) waits on that Once and shares the
// table. build is deterministic in the key, so a cached error is the
// answer every retry would get.
func (c *MatrixCache) lshBits(k lshKey, build func() (*lsh.Bits, error)) (*lsh.Bits, error) {
	c.mu.Lock()
	ent, ok := c.lsh[k]
	if !ok {
		if len(c.lsh) >= lshCap {
			// Arbitrary victim: the cap is a safety valve, not an LRU —
			// hitting it means parameter churn no cache policy would help.
			for old := range c.lsh {
				delete(c.lsh, old)
				break
			}
		}
		ent = &lshEntry{}
		c.lsh[k] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() {
		c.lshBuilds.Add(1)
		ent.bits, ent.err = build()
	})
	return ent.bits, ent.err
}
