package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"tagdm/internal/groups"
	"tagdm/internal/lsh"
	"tagdm/internal/mining"
	"tagdm/internal/model"
)

// ConstraintMode selects how an approximate algorithm handles the hard
// constraints (paper Sections 4.2/4.3 and 5.2/5.3).
type ConstraintMode uint8

const (
	// Filter post-processes candidates for constraint satisfiability
	// (SM-LSH-Fi / DV-FDP-Fi).
	Filter ConstraintMode = iota
	// Fold folds compatible constraints into the search itself — into the
	// hashed vectors for LSH, into the greedy add step for FDP — and
	// filters only what cannot be folded (SM-LSH-Fo / DV-FDP-Fo).
	Fold
)

func (m ConstraintMode) String() string {
	if m == Filter {
		return "filter"
	}
	return "fold"
}

// LSHOptions tunes the SM-LSH family.
type LSHOptions struct {
	// DPrime is the initial number of hyperplanes (paper starts at 10).
	DPrime int
	// L is the number of hash tables (paper uses 1).
	L int
	// Seed drives hyperplane generation.
	Seed int64
	// Mode selects SM-LSH-Fi (Filter) or SM-LSH-Fo (Fold).
	Mode ConstraintMode
	// DisableRelaxation turns off the binary-search relaxation of DPrime
	// (Algorithm 1's repeat loop); used by ablation benches.
	DisableRelaxation bool
	// StrictBucketSize skips buckets holding more than KHi groups, exactly
	// as Algorithm 1's size check reads. The default (false) instead trims
	// an oversized bucket to its best KHi members by greedy objective
	// maximization — without this, datasets where many groups share a tag
	// signature hash to one giant bucket and every run returns null.
	StrictBucketSize bool
}

func (o LSHOptions) withDefaults() LSHOptions {
	if o.DPrime == 0 {
		o.DPrime = 10
	}
	if o.L == 0 {
		o.L = 1
	}
	return o
}

// SMLSH runs the LSH-based similarity maximizer (Algorithm 1 with the
// constraint handling of Sections 4.2/4.3). It requires a spec whose
// objectives are all similarity criteria; diversity objectives need the
// DVFDP family because the hash function cannot be inverted for
// dissimilarity (Section 4.3, Discussion).
//
// Bucket scoring is adaptively gated: bindings already materialized in
// the engine's matrix cache score from pure lookups, and on a cold engine
// the expected bucket-pair volume decides — when it is far below n²/2
// (the usual case: buckets are small at the paper's d'=10), the solve
// keeps the lazy pair-function path and skips the O(n²) build entirely,
// so one-shot runs over large universes no longer pay for matrices
// they'd barely read. Repeated solves (server snapshots, prewarmed
// engines) still amortize full matrices. The groups' sign bits are shared
// per epoch through the same cache: one dot-product pass hashes L·DPrime
// bits per group, and every relaxation round and every concurrent request
// against one snapshot slices that table.
// Cancellation: ctx is checked once per relaxation round (each round is
// one bucket slicing plus one full bucket scan, the unit of work here); a
// cancelled run returns ctx.Err() with an empty result.
//
// Like the other families, this entry point is the single-shard case of
// the shard-aware path (shard.go): the relaxation d' sequence and each
// round's sorted bucket list are deterministic, so smlshPartial(shard 0
// of 1) scans everything and MergePartials folds the one partial into the
// Result.
func (e *Engine) SMLSH(ctx context.Context, spec ProblemSpec, opts LSHOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if !spec.OptimizesSimilarityOnly() {
		return Result{}, fmt.Errorf("core: SM-LSH requires similarity objectives; got %v", spec.Objectives)
	}
	start := time.Now()
	p, err := e.smlshPartial(ctx, spec, opts, 0, 1)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && err == cerr {
			return Result{Algorithm: smlshName(opts)}, err
		}
		return Result{}, err
	}
	return e.MergePartials(spec, []Partial{p}, start)
}

func smlshName(opts LSHOptions) string {
	if opts.Mode == Fold {
		return "SM-LSH-Fo"
	}
	return "SM-LSH-Fi"
}

// smlshPartial runs the relaxation loop scanning only this shard's slice
// of each round's deterministically sorted bucket list. The options are
// checked before any work. Every shard then reads one sign-bit table from
// the engine cache (the first caller of the epoch computes it, the others
// wait for it), and each round slices table t's bits [t·d', (t+1)·d')
// into its bucket list, so the lists agree across shards. A shard breaks
// at its own first multi-group round and records per-round examined
// counts so the merge can discard rounds the serial run would never have
// reached.
func (e *Engine) smlshPartial(ctx context.Context, spec ProblemSpec, opts LSHOptions, shard, of int) (Partial, error) {
	if err := spec.Validate(); err != nil {
		return Partial{}, err
	}
	if !spec.OptimizesSimilarityOnly() {
		return Partial{}, fmt.Errorf("core: SM-LSH requires similarity objectives; got %v", spec.Objectives)
	}
	if err := checkShard(shard, of); err != nil {
		return Partial{}, err
	}
	opts = opts.withDefaults()
	params := lsh.Params{DPrime: opts.DPrime, L: opts.L, Seed: opts.Seed}
	if err := params.Check(len(e.Groups)); err != nil {
		return Partial{}, err
	}
	p := Partial{
		kind: kindSMLSH, algorithm: smlshName(opts), shard: shard, of: of,
		bestTask: -1, multiRound: -1, multiBucket: -1, singleRound: -1, singleBucket: -1,
	}

	// One scorer serves every relaxation round: bucket feasibility and
	// ranking read cached pair matrices when present, and the adaptive
	// gate keeps the lazy pair-function path on cold one-shot solves.
	mt := startStage(ctx, &p.stages, StageMatrix)
	scorer := e.gatedScorer(spec, e.smlshPreferLazy(opts))
	mt.end()
	p.builds, p.rebuilds, p.hits, p.lazy = scorer.builds, scorer.rebuilds, scorer.hits, scorer.lazy
	foldUsers, foldItems := e.foldFlags(spec, opts.Mode)
	ht := startStage(ctx, &p.stages, StageLSHBuild)
	bits, err := e.cache.lshBits(lshKey{foldUsers, foldItems, opts.L * opts.DPrime, opts.Seed}, func() (*lsh.Bits, error) {
		v, err := e.buildHashVectors(foldUsers, foldItems)
		if err != nil {
			return nil, err
		}
		return lsh.Hash(v, params)
	})
	ht.end()
	if err != nil {
		return Partial{}, err
	}

	// Binary-search relaxation over d' (Algorithm 1): try the current d';
	// on a null result, move to a coarser partition (fewer hyperplanes =>
	// bigger buckets => better odds a feasible bucket survives). A
	// feasible singleton bucket scores 0 on any pair-wise objective and
	// would otherwise satisfy the size check at every d', so the search
	// keeps relaxing until it finds a multi-group bucket and only falls
	// back to the best singleton when relaxation is exhausted.
	lo, hi := 1, opts.DPrime
	dprime := opts.DPrime
	round := 0
	//tagdm:cancellable
	for {
		if err := ctx.Err(); err != nil {
			return Partial{}, err
		}
		bt := startStage(ctx, &p.stages, StageLSHBuild)
		buckets := bits.Buckets(opts.L, dprime)
		bt.end()
		st := startStage(ctx, &p.stages, StageBucketScan)
		scan := e.scanBuckets(buckets, spec, opts, scorer, shard, of)
		st.end()
		p.roundExam = append(p.roundExam, scan.examined)
		if scan.multi != nil {
			p.multiRound = round
			p.multiScore = scan.multiScore
			p.multiBucket = scan.multiBucket
			p.multi = scan.multi
			break
		}
		if scan.single != nil && p.single == nil {
			p.singleRound = round
			p.singleSize = scan.singleSize
			p.singleBucket = scan.singleBucket
			p.single = scan.single
		}
		if opts.DisableRelaxation {
			break
		}
		hi = dprime - 1
		if lo > hi {
			break
		}
		dprime = (lo + hi) / 2
		round++
	}
	return p, nil
}

// smlshPreferLazy is the adaptive matrix gate: it estimates the pair
// volume the first two relaxation rounds are expected to read (bucket
// feasibility and ranking touch ~|b|²/2 pairs per bucket; uniform hashing
// puts that near L·n²/2^(d'+1) per round) and prefers the lazy
// pair-function path when doubling that estimate still falls well below
// the n(n-1)/2 pairs a full matrix build pays. With the paper's d'=10 the
// estimate is ~n²/700, so cold one-shot solves gate lazy; tiny d' or many
// tables flip it back to materializing. A heuristic only — deep
// relaxation on null-heavy corpora can exceed the estimate — and results
// are unchanged either way (lazy sources are bit-identical).
func (e *Engine) smlshPreferLazy(opts LSHOptions) bool {
	n := len(e.Groups)
	if n < 2 {
		return true
	}
	total := float64(n) * float64(n-1) / 2
	d0 := opts.DPrime
	d1 := d0 / 2 // the first relaxation target: (1 + d0-1)/2
	perRound := func(d int) float64 {
		buckets := math.Ldexp(1, d) // 2^d
		if buckets > float64(n) {
			buckets = float64(n)
		}
		return float64(opts.L) * total / buckets
	}
	est := perRound(d0) + perRound(d1)
	return 2*est < total
}

// foldFlags reports which structural dimensions Fold mode folds into the
// hashed vectors for this spec: similarity constraints on the user and/or
// item dimensions (diversity constraints cannot be folded into LSH).
func (e *Engine) foldFlags(spec ProblemSpec, mode ConstraintMode) (foldUsers, foldItems bool) {
	if mode != Fold {
		return false, false
	}
	for _, c := range spec.Constraints {
		if c.Meas != mining.Similarity {
			continue
		}
		switch c.Dim {
		case mining.Users:
			foldUsers = true
		case mining.Items:
			foldItems = true
		}
	}
	return foldUsers, foldItems
}

// buildHashVectors builds the per-group vectors to hash, as sparse rows
// that leave out exact zeros. Without folding the vector is the
// (normalized) tag signature alone; with foldUsers/foldItems set, one-hot
// encodings of the group's structural description come first, each block
// normalized on its own (Section 4.3), so groups that agree on those
// attributes tend to collide. Each value is what normalizing the dense
// block would give: a block's norm sums the squares of its non-zero
// coordinates in ascending order, which equals the dense sum. The
// signature block divides each group's non-zero values by its stored
// norm. Nothing here can fail, since NewEngine validated the signatures;
// the error result matches the sign-bit build it feeds.
func (e *Engine) buildHashVectors(foldUsers, foldItems bool) (*lsh.Sparse, error) {
	us, is := e.Store.UserSchema, e.Store.ItemSchema
	uOffs, iOffs := us.OneHotOffsets(), is.OneHotOffsets()
	uDim, iDim := us.TotalCardinality(), is.TotalCardinality()
	nnz := 0
	for _, sig := range e.Sigs {
		nnz += len(sig.Nonzeros())
	}
	if foldUsers {
		nnz += len(e.Groups) * us.Len()
	}
	if foldItems {
		nnz += len(e.Groups) * is.Len()
	}
	v := &lsh.Sparse{
		Start: make([]int, 1, len(e.Groups)+1),
		Index: make([]int32, 0, nnz),
		Value: make([]float64, 0, nnz),
	}
	// oneHot appends the block of schema attribute values a group has set:
	// a 1 at offs[a]+value-1 for each, all divided by the block's norm.
	oneHot := func(n int, offs []int, value func(a int) model.ValueCode) {
		lo := len(v.Index)
		for a := 0; a < n; a++ {
			if x := value(a); x != 0 {
				v.Index = append(v.Index, int32(v.Dim+offs[a]+int(x)-1))
			}
		}
		norm := math.Sqrt(float64(len(v.Index) - lo))
		for range v.Index[lo:] {
			v.Value = append(v.Value, 1/norm)
		}
	}
	for gi, g := range e.Groups {
		v.Dim = 0
		if foldUsers {
			oneHot(us.Len(), uOffs, g.UserValue)
			v.Dim += uDim
		}
		if foldItems {
			oneHot(is.Len(), iOffs, g.ItemValue)
			v.Dim += iDim
		}
		sig, norm := e.Sigs[gi], e.Sigs[gi].Norm()
		for k, c := range sig.Nonzeros() {
			x := sig.Values()[k]
			if norm != 0 {
				x /= norm
			}
			v.Index = append(v.Index, int32(v.Dim)+c)
			v.Value = append(v.Value, x)
		}
		v.Dim += sig.Dim()
		v.Start = append(v.Start, len(v.Index))
	}
	return v, nil
}

// bucketScan is one round's shard-local outcome: the best multi-group set
// (with its score and position in the sorted bucket list, for cross-shard
// tie-breaking), the best feasible singleton (with its size and position),
// and how many buckets this shard examined.
type bucketScan struct {
	multi        []*groups.Group
	multiScore   float64
	multiBucket  int
	single       []*groups.Group
	singleSize   int
	singleBucket int
	examined     int64
}

// scanBuckets scans this shard's slice of a round's buckets — positions
// congruent to shard mod of in the list sorted by (Table, Signature) —
// keeps those whose group count fits [KLo, KHi] (trimming oversized
// buckets unless strict), checks feasibility, and ranks by objective
// score. (Table, Signature) keys are unique, so the order is a total
// order every shard agrees on.
func (e *Engine) scanBuckets(buckets []lsh.Bucket, spec ProblemSpec, opts LSHOptions, sc *matrixScorer, shard, of int) bucketScan {
	out := bucketScan{multiScore: -1.0, multiBucket: -1, singleBucket: -1}
	for bi, b := range buckets {
		if of > 1 && bi%of != shard {
			continue
		}
		out.examined++
		if len(b.IDs) < spec.KLo {
			continue
		}
		ids := b.IDs
		if len(ids) > spec.KHi {
			if opts.StrictBucketSize {
				continue
			}
			ids = e.trimBucket(ids, spec, sc)
		}
		// Both modes must end with a feasible set; folding only raises the
		// odds that co-hashed groups already satisfy the folded
		// constraints, it does not remove the final check for the rest.
		// Rejected buckets — the overwhelming majority — cost matrix
		// lookups only; groups materialize just for the survivors.
		if !sc.feasible(ids) {
			continue
		}
		set := make([]*groups.Group, len(ids))
		for i, id := range ids {
			set[i] = e.Groups[id]
		}
		if len(set) == 1 {
			if set[0].Size() > out.singleSize {
				out.singleSize = set[0].Size()
				out.single = set
				out.singleBucket = bi
			}
			continue
		}
		if score := sc.objective(ids); score > out.multiScore {
			out.multiScore = score
			out.multi = set
			out.multiBucket = bi
		}
	}
	return out
}

// trimBucket reduces an oversized bucket to KHi members by greedy objective
// maximization: seed with the pair of maximal pair score, then repeatedly
// add the member with the greatest total score against the selection.
// When a support floor is set, trimming prefers members large enough that
// KHi of them can clear it (size >= MinSupport/KHi), falling back to the
// whole bucket when too few qualify.
func (e *Engine) trimBucket(ids []int, spec ProblemSpec, sc *matrixScorer) []int {
	k := spec.KHi
	if spec.MinSupport > 0 && k > 0 {
		floor := (spec.MinSupport + k - 1) / k
		big := make([]int, 0, len(ids))
		for _, id := range ids {
			if e.Groups[id].Size() >= floor {
				big = append(big, id)
			}
		}
		if len(big) >= 2 {
			ids = big
		}
	}
	pair := sc.pairObjective
	// Seed with the best pair.
	bi, bj, best := 0, 1, -1.0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if s := pair(ids[i], ids[j]); s > best {
				best, bi, bj = s, i, j
			}
		}
	}
	selected := []int{ids[bi], ids[bj]}
	used := map[int]bool{ids[bi]: true, ids[bj]: true}
	for len(selected) < k {
		cand, candScore := -1, -1.0
		for _, id := range ids {
			if used[id] {
				continue
			}
			var s float64
			for _, sel := range selected {
				s += pair(id, sel)
			}
			if s > candScore {
				cand, candScore = id, s
			}
		}
		if cand == -1 {
			break
		}
		selected = append(selected, cand)
		used[cand] = true
	}
	return selected
}
