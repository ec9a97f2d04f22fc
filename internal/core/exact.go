package core

import (
	"context"
	"math"
	"time"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/store"
)

// DefaultMaxExactCandidates caps the number of candidate sets the Exact
// baseline will enumerate before refusing to run. The brute force is
// exponential (Section 3.1); the cap turns an accidental week-long run into
// an immediate error.
const DefaultMaxExactCandidates = 100_000_000

// ExactOptions tunes the brute-force baseline.
type ExactOptions struct {
	// MaxCandidates overrides DefaultMaxExactCandidates when > 0.
	MaxCandidates int64
	// DisablePruning turns off the branch-and-bound subtree cuts and
	// enumerates every candidate, as the pre-pruning baseline did. Pruning
	// is on by default; the disabled path is retained as the oracle the
	// property tests compare against. Either way the returned result is
	// identical — pruning only skips candidates that provably cannot win:
	// those that cannot reach the support floor, and those that cannot
	// beat the incumbent — but CandidatesExamined/CandidatesPruned split
	// differently (see Result).
	DisablePruning bool
}

// Exact enumerates every candidate set of size KLo..KHi over the engine's
// groups, keeps those satisfying all constraints, and returns the feasible
// set with maximum objective. This is the paper's Exact baseline: optimal
// but exponential in k.
//
// Scoring is incremental over precomputed pair matrices: every pair
// function is evaluated once per group pair at setup. Interior levels of
// the depth-first enumeration push one group at a time onto running
// objective/constraint pair-sums (O(k) lookups per binding). The last
// level is one scan over the leaf candidates i: each leaf's pair-sums start
// from the prefix's and add the prefix members' entries read off their
// contiguous pair-matrix rows, in the order a push would add them. A leaf
// is then rejected on its constraints, then on its size-sum support bound,
// and otherwise scored; only a leaf that would replace the incumbent pays
// the exact support union (one bitmap pass against the prefix's lazily
// materialized union). Nothing is recomputed or allocated per candidate.
// Decisions and the returned argmax are identical to evaluating every
// candidate from scratch with ObjectiveScore and ConstraintsSatisfied (for
// k up to 3, the paper's setting, scores are bit-for-bit equal; beyond
// that the same pair values are summed in a different association order).
//
// On top of the incremental scoring, the DFS applies two admissible
// branch-and-bound cuts (on by default; ExactOptions.DisablePruning
// restores the full enumeration), each dropping a prefix's whole subtree.
// The support cut: a set's support is at most its size-sum, and a
// completion draws its remaining members from groups after the prefix's
// last, so a prefix whose size-sum plus that many times the largest later
// group size misses MinSupport has no feasible leaf. It needs no
// incumbent and is exact integer arithmetic. The objective cut:
// per-objective max-row vectors cached on the pair matrices upper-bound
// the pair-sum of any completion, and a prefix whose bound cannot
// strictly beat the incumbent is dropped. A cut subtree holds no leaf the
// full enumeration would accept, so pruning never changes Found, the
// argmax set, Objective or Support — only how the enumeration size splits
// between CandidatesExamined and CandidatesPruned.
// Cancellation: the DFS checks ctx between subtrees (every
// exactCancelCheck leaves), so a server timeout or client disconnect
// stops the enumeration within a bounded slice of work instead of
// running to completion; the run then returns ctx.Err() with an empty
// result. The per-leaf cost of the check is one integer increment.
// Exact runs as the single-shard case of the shard-aware path (see
// shard.go): ExactPartial(shard 0 of 1) explores the whole space and
// MergePartials folds the one partial into the Result, so the serving
// tier's scatter-gather and this entry point share one code path. For a
// parallel run use ExactSharded with of = runtime.GOMAXPROCS(0).
func (e *Engine) Exact(ctx context.Context, spec ProblemSpec, opts ExactOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	p, err := e.ExactPartial(ctx, spec, opts, 0, 1)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && err == cerr {
			return Result{Algorithm: "Exact"}, err
		}
		return Result{}, err
	}
	return e.MergePartials(spec, []Partial{p}, start)
}

// exactCancelCheck is how many leaves a worker visits between ctx polls
// — large enough that the poll is invisible on the hot path, small
// enough that cancellation lands within tens of microseconds of work.
const exactCancelCheck = 4096

// exactWorker explores one shard of the candidate space: first elements i
// with i % stride == offset (offset encoded by the initial call), then all
// completions. It keeps the first maximum it encounters, which in the
// enumeration order means the lexicographically smallest argmax.
//
// Prefix state lives in depth-indexed stacks preallocated to the maximum
// set size: cumulative pair-sums per objective and per constraint,
// cumulative group sizes, and one union bitmap per prefix level derived
// from its parent without cloning. The pair-sum stacks are
// mining.IncrementalEval's scheme (cumulative values, never +delta/-delta,
// for bit-exact backtracking — see its docs and
// TestIncrementalEvalBacktrackExact) inlined so every binding shares one
// ids stack and one non-virtual push loop; composing per-binding
// IncrementalEvals measured ~30% slower on BenchmarkExactSerial. Keep the
// two in sync. Leaves are never pushed: scanLeaves extends the parent's
// sums in the same order push would, so the leaf scores are the same
// floats. Nothing allocates inside the enumeration.
type exactWorker struct {
	engine *Engine
	spec   ProblemSpec
	// objMats/conMats alias the shared matrixScorer's immutable matrices.
	objMats []*mining.PairMatrix
	conMats []*mining.PairMatrix

	// Branch-and-bound state. objMaxRows[o][i] is the largest objective-o
	// pair score group i attains against any other group; objMaxPair[o] the
	// matrix-wide maximum (both alias the shared matrices' cached bound
	// vectors). maxSums[o][d] accumulates max rows over ids[:d+1] like the
	// pair-sum stacks, so the upper bound on any completion is O(objectives)
	// at every node. sizeAfter[l] is the largest group size among groups
	// l+1..n-1 (0 past the end), the support cut's bound on each future
	// member; nil when there is no support floor. prune gates the whole
	// mechanism (ExactOptions.DisablePruning turns it off).
	prune      bool
	objMaxRows [][]float64
	objMaxPair []float64
	maxSums    [][]float64
	sizeAfter  []int

	depth    int
	ids      []int
	objSums  [][]float64 // objSums[o][d]: pair-sum of objective o over ids[:d+1]
	conSums  [][]float64
	sizeSums []int
	// objRows[o][p] / conRows[c][p] are the leaf scan's views of prefix
	// member ids[p]'s matrix row, re-based so that every prefix member's
	// score against leaf i sits at the same index i-ids[d-1]-1. The
	// headers are refilled per scan, never allocated.
	objRows [][][]float64
	conRows [][][]float64
	// unions[d] is the support union of ids[:d+1] for a prefix of a leaf,
	// materialized lazily: only the levels up to unionDepth are valid for
	// the current path, and levels are computed in leafSupport, which the
	// scan reaches only for a leaf that would replace the incumbent.
	// Backtracking lowers the watermark instead of touching the bitmaps,
	// so sibling prefixes still share every common level.
	unions     []*store.Bitmap
	unionDepth int

	best      []*groups.Group
	bestScore float64
	found     bool
	examined  int64
	pruned    int64
	offset    int

	// ctx is polled every exactCancelCheck leaves; once it reports an
	// error, cancelled short-circuits the rest of the DFS.
	ctx        context.Context
	sinceCheck int
	cancelled  bool
}

// newExactWorker builds one worker's mutable DFS state over the scorer's
// shared immutable matrices (sc's own scratch-mutating methods are never
// called here).
func newExactWorker(ctx context.Context, e *Engine, spec ProblemSpec, sc *matrixScorer, offset int, prune bool) *exactWorker {
	kMax := spec.KHi
	if n := len(e.Groups); kMax > n {
		kMax = n
	}
	w := &exactWorker{
		engine:   e,
		ctx:      ctx,
		spec:     spec,
		objMats:  sc.objMats,
		conMats:  sc.conMats,
		prune:    prune,
		offset:   offset,
		ids:      make([]int, kMax),
		objSums:  make([][]float64, len(sc.objMats)),
		conSums:  make([][]float64, len(sc.conMats)),
		sizeSums: make([]int, kMax),
	}
	if prune {
		w.objMaxRows, w.objMaxPair = sc.objectiveBounds()
		w.maxSums = make([][]float64, len(sc.objMats))
		for oi := range w.maxSums {
			w.maxSums[oi] = make([]float64, kMax)
		}
		if spec.MinSupport > 0 {
			// A suffix maximum, not Groups[l+1].Size(): engines need not
			// order their groups by size.
			w.sizeAfter = make([]int, len(e.Groups))
			for l := len(e.Groups) - 2; l >= 0; l-- {
				w.sizeAfter[l] = max(w.sizeAfter[l+1], e.Groups[l+1].Size())
			}
		}
	}
	for oi := range w.objSums {
		w.objSums[oi] = make([]float64, kMax)
	}
	for ci := range w.conSums {
		w.conSums[ci] = make([]float64, kMax)
	}
	w.objRows = prefixRows(len(sc.objMats), kMax)
	w.conRows = prefixRows(len(sc.conMats), kMax)
	if spec.MinSupport > 0 && kMax > 1 {
		// Only prefixes carry a union buffer; a leaf's support is counted
		// against its prefix's union without being stored.
		w.unions = make([]*store.Bitmap, kMax-1)
		for d := range w.unions {
			w.unions[d] = store.NewBitmap(e.Store.Len())
		}
	}
	return w
}

// prefixRows preallocates one row-header slot per prefix position (a leaf
// has at most kMax-1 prefix members) for each of bindings matrices.
func prefixRows(bindings, kMax int) [][][]float64 {
	rows := make([][][]float64, bindings)
	for b := range rows {
		rows[b] = make([][]float64, max(kMax-1, 0))
	}
	return rows
}

// push extends the prefix with group i, advancing every running pair-sum
// by one level at O(depth) matrix lookups per binding; support unions are
// materialized lazily in leafSupport.
func (w *exactWorker) push(i int) {
	d := w.depth
	for oi, m := range w.objMats {
		sum := 0.0
		if d > 0 {
			sum = w.objSums[oi][d-1]
		}
		for _, x := range w.ids[:d] {
			sum += m.At(x, i)
		}
		w.objSums[oi][d] = sum
	}
	for ci, m := range w.conMats {
		sum := 0.0
		if d > 0 {
			sum = w.conSums[ci][d-1]
		}
		for _, x := range w.ids[:d] {
			sum += m.At(x, i)
		}
		w.conSums[ci][d] = sum
	}
	if w.prune {
		for oi, rows := range w.objMaxRows {
			sum := rows[i]
			if d > 0 {
				sum += w.maxSums[oi][d-1]
			}
			w.maxSums[oi][d] = sum
		}
	}
	g := w.engine.Groups[i]
	if d > 0 {
		w.sizeSums[d] = w.sizeSums[d-1] + g.Size()
	} else {
		w.sizeSums[0] = g.Size()
	}
	w.ids[d] = i
	w.depth++
}

// pop backtracks one level; parent aggregates are untouched in the stacks,
// and union levels above the new depth merely fall out of the watermark.
func (w *exactWorker) pop() {
	w.depth--
	if w.unionDepth > w.depth {
		w.unionDepth = w.depth
	}
}

// scanLeaves evaluates every leaf that completes the current prefix
// ids[:depth] with one last member i = first, first+step, ... < n. Per leaf
// it replays ConstraintsSatisfied's constraint means, then the size-sum
// support bound, then the objective; the exact support union runs only for
// a leaf that would replace the incumbent (!found || score > bestScore).
// A leaf is accepted iff it is feasible and wins, so running the union
// last changes no decision. Each pair-sum starts from the parent's
// cumulative sum and adds the prefix members' row entries in ids order —
// push's order — so every score is bit-identical to pushing the leaf.
func (w *exactWorker) scanLeaves(first, step int) {
	d := w.depth
	k := d + 1
	n := len(w.engine.Groups)
	// Re-base the prefix rows at the last prefix member: the scan only
	// visits i > ids[d-1], and entry i-base of every view is (ids[p], i).
	base, sizeBase := 0, 0
	if d > 0 {
		last := w.ids[d-1]
		base = last + 1
		sizeBase = w.sizeSums[d-1]
		for p, x := range w.ids[:d] {
			for oi, m := range w.objMats {
				w.objRows[oi][p] = m.Row(x)[last-x:]
			}
			for ci, m := range w.conMats {
				w.conRows[ci][p] = m.Row(x)[last-x:]
			}
		}
	}
	pairs := float64(k * (k - 1) / 2)
	minSupport := w.spec.MinSupport
leaves:
	for i := first; i < n; i += step {
		w.examined++
		if w.sinceCheck++; w.sinceCheck >= exactCancelCheck {
			w.sinceCheck = 0
			if w.ctx.Err() != nil {
				w.cancelled = true
				return
			}
		}
		j := i - base
		if k >= 2 {
			for ci, c := range w.spec.Constraints {
				sum := w.conSums[ci][d-1]
				for _, row := range w.conRows[ci][:d] {
					sum += row[j]
				}
				if sum/pairs < c.Threshold {
					continue leaves
				}
			}
		}
		g := w.engine.Groups[i]
		if minSupport > 0 && sizeBase+g.Size() < minSupport {
			continue
		}
		var score float64
		for oi, o := range w.spec.Objectives {
			var v float64
			if k >= 2 {
				sum := w.objSums[oi][d-1]
				for _, row := range w.objRows[oi][:d] {
					sum += row[j]
				}
				v = sum / pairs
			}
			score += o.Weight * v
		}
		if w.found && score <= w.bestScore {
			continue
		}
		if minSupport > 0 && w.leafSupport(g) < minSupport {
			continue
		}
		w.bestScore = score
		w.best = w.best[:0]
		for _, id := range w.ids[:d] {
			w.best = append(w.best, w.engine.Groups[id])
		}
		w.best = append(w.best, g)
		w.found = true
	}
}

// leafSupport returns the support of the current prefix plus g, first
// materializing the prefix union levels the watermark has not reached.
func (w *exactWorker) leafSupport(g *groups.Group) int {
	d := w.depth
	if d == 0 {
		return g.Size()
	}
	for l := w.unionDepth; l < d; l++ {
		tuples := w.engine.Groups[w.ids[l]].Tuples
		if l > 0 {
			w.unions[l-1].UnionCountInto(tuples, w.unions[l])
		} else {
			w.unions[0].CopyFrom(tuples)
		}
	}
	w.unionDepth = d
	return w.unions[d-1].OrCount(g.Tuples)
}

// cannotWin reports whether no completion of the current partial
// candidate — its depth groups plus r more — can be accepted.
//
// First the support cut, which needs no incumbent: the r future members
// come from groups after the last prefix member ids[depth-1], each of size
// at most sizeAfter[last], and support never exceeds the size-sum, so a
// prefix whose size-sum plus r*sizeAfter[last] is below MinSupport has no
// feasible completion. The arithmetic is on integers, so the cut is exact.
//
// Then the objective cut, for r more members drawn from anywhere: no
// completion can strictly beat the incumbent. The bound is admissible:
// each of the r*(depth) cross pairs a future member forms with a current
// member x is at most maxRow[x] (accumulated in maxSums), and each of the
// r*(r-1)/2 pairs among future members is at most the matrix-wide
// maximum, so the bounded pair-sum dominates every reachable leaf's. A
// small relative slack absorbs the floating-point difference between this
// bound's association order and the leaf evaluation's (the accumulated
// rounding is ~1e-15 relative; any
// two candidates whose true scores differ by less than the slack tie for
// the enumeration's purposes anyway, and ties never displace the incumbent
// — the DFS keeps the first maximum, so cutting a tying subtree leaves the
// argmax untouched). The objective bound must hold for any completion,
// feasible or not, so it ignores constraints; a constraint pair-sum cut
// on top of the support cut measured slower than the work it saved.
func (w *exactWorker) cannotWin(r int) bool {
	d := w.depth
	if w.sizeAfter != nil && w.sizeSums[d-1]+r*w.sizeAfter[w.ids[d-1]] < w.spec.MinSupport {
		return true
	}
	if !w.found {
		return false
	}
	full := d + r
	pairs := float64(full * (full - 1) / 2)
	futureR := float64(r)
	futurePairs := float64(r * (r - 1) / 2)
	var bound float64
	for oi, o := range w.spec.Objectives {
		s := w.objSums[oi][d-1] + futureR*w.maxSums[oi][d-1] + futurePairs*w.objMaxPair[oi]
		bound += o.Weight * (s / pairs)
	}
	slack := 1e-12 * (1 + math.Abs(bound) + math.Abs(w.bestScore))
	return bound+slack <= w.bestScore
}

// enumerate recursively extends the worker's candidate set by k more
// members; stride shards only the outermost level (depth == full k). The
// last level (k == 1) is one scanLeaves pass.
func (w *exactWorker) enumerate(startIdx, k, stride int) {
	if w.cancelled {
		return
	}
	n := len(w.engine.Groups)
	first, step := startIdx, 1
	if stride > 1 {
		// Align to this worker's shard of the outermost level.
		step = stride
		for first <= n-k && first%stride != w.offset {
			first++
		}
	}
	if k == 1 {
		// Leaves are evaluated unconditionally, matching the naive
		// enumeration's bookkeeping.
		w.scanLeaves(first, step)
		return
	}
	for i := first; i <= n-k; i += step {
		w.push(i)
		// Branch-and-bound: if no completion of this prefix can reach the
		// support floor or beat the incumbent, cut the whole subtree — its
		// binomial(n-i-1, k-1) candidates are counted as pruned, never
		// examined.
		if w.prune && w.cannotWin(k-1) {
			w.pruned += binomial(n-i-1, k-1)
			w.pop()
			continue
		}
		w.enumerate(i+1, k-1, 1)
		w.pop()
	}
}

// lessCandidate orders candidate sets the way the serial enumeration meets
// them: by size, then lexicographically by group ID.
func lessCandidate(a, b []*groups.Group) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return a[i].ID < b[i].ID
		}
	}
	return false
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
		if c < 0 || c > 1<<62 {
			return -1
		}
	}
	return c
}
