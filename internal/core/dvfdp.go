package core

import (
	"context"
	"math"
	"sort"
	"time"

	"tagdm/internal/fdp"
	"tagdm/internal/groups"
	"tagdm/internal/vec"
)

// FDPCriterion selects the dispersion objective of the greedy heuristic.
type FDPCriterion uint8

const (
	// MaxAvg maximizes the average pairwise score (the paper's choice,
	// with the factor-4 guarantee of Theorem 4).
	MaxAvg FDPCriterion = iota
	// MaxMin maximizes the minimum pairwise score.
	MaxMin
)

func (c FDPCriterion) String() string {
	if c == MaxAvg {
		return "max-avg"
	}
	return "max-min"
}

// FDPOptions tunes the DV-FDP family.
type FDPOptions struct {
	// Mode selects DV-FDP-Fi (Filter) or DV-FDP-Fo (Fold).
	Mode ConstraintMode
	// Criterion selects MaxAvg (default) or MaxMin.
	Criterion FDPCriterion
	// Precompute collapses the weighted objective sum into one additional
	// condensed matrix, so each greedy distance is a single lookup instead
	// of one lookup per objective. The per-binding pair matrices
	// themselves are always materialized through the engine cache (that is
	// the point of the scoring layer); this knob only controls the extra
	// combined matrix, which mainly pays off for multi-objective specs.
	// Ablation benches compare.
	Precompute bool
	// FixedSeed uses the arbitrary-pair seeding ablation instead of the
	// max-edge seed.
	FixedSeed bool
	// DisableLocalSearch turns off the post-greedy swap improvement pass;
	// used by ablation benches to quantify its contribution.
	DisableLocalSearch bool
}

// DVFDP runs the facility-dispersion-based optimizer (Algorithm 2 with the
// constraint handling of Sections 5.2/5.3). It maximizes the spec's
// objective directly: for a tag-diversity objective the pairwise "distance"
// is the diversity pair function (cosine distance of signatures); for a
// similarity objective it is the similarity pair function — the extension
// the paper notes makes FDP applicable to similarity problems too.
//
// In Fold mode the hard constraints gate every greedy add: a candidate is
// admissible when, for every constraint, its mean pair score against the
// already-selected groups clears the threshold. Mean-gating each add (with
// the seed pair gated pair-wise) guarantees the final set's aggregate
// constraint by induction — the set's mean is a weighted average of the
// per-add means. The support floor cannot be folded pair-wise, so the
// greedy runs twice, once unrestricted and once with candidates restricted
// to groups of at least MinSupport/KHi tuples (a size sum that can clear
// the floor); the better feasible outcome wins. Section 5.3's final
// support post-check applies either way.
// Cancellation: ctx is checked between greedy passes (floor sweep
// entries, anchored starts) and between local-search rounds; a cancelled
// run returns ctx.Err() with an empty result.
//
// Like Exact, this entry point is the single-shard case of the
// shard-aware path (shard.go): the deterministic start-task list built by
// dvfdpPlan is the unit of sharding, dvfdpPartial(shard 0 of 1) runs all
// of it, and MergePartials folds the one partial into the Result.
func (e *Engine) DVFDP(ctx context.Context, spec ProblemSpec, opts FDPOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	p, err := e.dvfdpPartial(ctx, spec, opts, 0, 1)
	if err != nil {
		return Result{Algorithm: dvfdpName(opts)}, err
	}
	return e.MergePartials(spec, []Partial{p}, start)
}

func dvfdpName(opts FDPOptions) string {
	if opts.Mode == Fold {
		return "DV-FDP-Fo"
	}
	return "DV-FDP-Fi"
}

// dvfdpTask kinds: a floor-sweep greedy pass, the largest-k start, or an
// anchored start seeded on the a-th largest group.
const (
	dvTaskPass = iota
	dvTaskLargest
	dvTaskAnchor
)

type dvfdpTask struct {
	kind   int
	floor  int // dvTaskPass: candidate size floor for this greedy pass
	anchor int // dvTaskAnchor: index into the size-descending group order
}

// dvfdpPlan builds the deterministic start-task list for one solve: it
// depends only on the spec, the options and the engine's group universe,
// so every shard derives the same list and round-robins it by
// task index. The list order is the serial execution order, which the
// winner tie-break leans on.
func (e *Engine) dvfdpPlan(spec ProblemSpec, opts FDPOptions) (tasks []dvfdpTask, k int) {
	n := len(e.Groups)
	k = spec.KHi
	if k > n {
		k = n
	}
	// Filter mode stays faithful to the paper's DV-FDP-Fi: one
	// unconstrained greedy run whose result is post-filtered — and may
	// therefore be null, exactly as Section 5.2 warns.
	if opts.Mode == Filter {
		return []dvfdpTask{{kind: dvTaskPass}}, k
	}
	// Candidate size floors to try: 0 (the paper's algorithm as written,
	// with the dynamic feasibility gate in dvfdpOnce) plus a small sweep of
	// flat per-group floors derived from the support constraint. Different
	// floors trade objective quality against support headroom; the best
	// feasible outcome wins.
	floors := []int{0}
	if spec.MinSupport > 0 && spec.KHi > 0 {
		perGroup := (spec.MinSupport + spec.KHi - 1) / spec.KHi
		for _, f := range []int{perGroup, perGroup / 2} {
			if f <= 0 {
				continue
			}
			eligible := 0
			for _, g := range e.Groups {
				if g.Size() >= f {
					eligible++
				}
			}
			if eligible >= 2 {
				floors = append(floors, f)
			}
		}
	}
	seen := map[int]bool{}
	for _, floor := range floors {
		if seen[floor] {
			continue
		}
		seen[floor] = true
		tasks = append(tasks, dvfdpTask{kind: dvTaskPass, floor: floor})
	}
	if k >= 2 && k <= n {
		tasks = append(tasks, dvfdpTask{kind: dvTaskLargest})
		anchors := 6
		if anchors > n {
			anchors = n
		}
		for a := 0; a < anchors; a++ {
			tasks = append(tasks, dvfdpTask{kind: dvTaskAnchor, anchor: a})
		}
	}
	return tasks, k
}

// groupsBySize returns the engine's groups sorted by descending size.
// sort.Slice's outcome is deterministic for a fixed input ordering, so
// every shard sees the same ranking.
func (e *Engine) groupsBySize() []*groups.Group {
	bySize := make([]*groups.Group, 0, len(e.Groups))
	bySize = append(bySize, e.Groups...)
	sort.Slice(bySize, func(i, j int) bool { return bySize[i].Size() > bySize[j].Size() })
	return bySize
}

// dvfdpPartial runs this shard's slice of the start-task list — tasks t
// with t % of == shard — and records the shard-local winner plus the task
// index that produced it, so the merge can reproduce the serial strict->
// scan over starts in task order.
func (e *Engine) dvfdpPartial(ctx context.Context, spec ProblemSpec, opts FDPOptions, shard, of int) (Partial, error) {
	if err := spec.Validate(); err != nil {
		return Partial{}, err
	}
	if err := checkShard(shard, of); err != nil {
		return Partial{}, err
	}
	name := dvfdpName(opts)
	p := Partial{kind: kindDVFDP, algorithm: name, shard: shard, of: of, bestScore: -1.0, bestTask: -1}
	n := len(e.Groups)
	if n == 0 {
		return p, nil
	}

	// The greedy "distance" is the weighted objective pair score, so that
	// maximizing dispersion maximizes the objective. Pair values come from
	// the engine's precomputed matrices; Precompute additionally collapses
	// the weighted sum across objectives into one condensed matrix, trading
	// n*(n-1)/2 float64 for a single lookup per pair.
	mt := startStage(ctx, &p.stages, StageMatrix)
	scorer := e.scorer(spec)
	dist := vec.DistFunc(scorer.pairObjective)
	if opts.Precompute {
		m := vec.NewMatrixParallel(n, dist, 0)
		dist = m.At
	}
	mt.end()
	p.builds, p.rebuilds, p.hits, p.lazy = scorer.builds, scorer.rebuilds, scorer.hits, scorer.lazy

	tasks, k := e.dvfdpPlan(spec, opts)
	dv := newDVFDPScratch(e, spec, scorer)

	// Gather feasible starting sets from this shard's tasks; bySize is
	// materialized lazily because only Fold-mode largest/anchored tasks
	// consult it.
	gt := startStage(ctx, &p.stages, StageGreedy)
	var bySize []*groups.Group
	type startSet struct {
		task int
		set  []*groups.Group
	}
	var starts []startSet
	//tagdm:cancellable
	for ti, task := range tasks {
		if ti%of != shard {
			continue
		}
		// Cancellation points mirror the pre-shard serial code exactly:
		// Fold-mode floor passes and anchored starts poll ctx, the Filter
		// pass and the largest-k feasibility probe do not.
		if opts.Mode == Fold && task.kind != dvTaskLargest {
			if err := ctx.Err(); err != nil {
				gt.end()
				return Partial{}, err
			}
		}
		switch task.kind {
		case dvTaskPass:
			set, adds := e.dvfdpOnce(spec, opts, scorer, dv, dist, k, task.floor)
			p.examined += adds
			if set != nil && scorer.feasible(scorer.idsOf(set)) {
				starts = append(starts, startSet{task: ti, set: set})
			}
		case dvTaskLargest:
			if bySize == nil {
				bySize = e.groupsBySize()
			}
			largest := bySize[:k]
			if scorer.feasible(scorer.idsOf(largest)) {
				starts = append(starts, startSet{task: ti, set: largest})
			}
		case dvTaskAnchor:
			// Anchored starts: seed on one large group and greedily complete
			// the set with the partners maximizing the objective among those
			// keeping the partial set feasible. These reach regions the
			// dispersion seed never visits (e.g. "similar profiles, diverse
			// tags" optima whose pairwise distances are mid-range).
			if bySize == nil {
				bySize = e.groupsBySize()
			}
			set := e.anchoredStart(bySize[task.anchor], spec, dv, k)
			p.examined += int64(len(set))
			if set != nil && scorer.feasible(scorer.idsOf(set)) {
				starts = append(starts, startSet{task: ti, set: set})
			}
		}
	}
	gt.end()

	// The greedy is myopic: dispersion-first picks can lock it into a
	// low-objective corner once the support gate starts binding. A swap
	// local search from each feasible start recovers most of the gap to
	// Exact at a small linear cost per round; the best outcome wins.
	lt := startStage(ctx, &p.stages, StageLocalSearch)
	for _, st := range starts {
		set := st.set
		if !opts.DisableLocalSearch {
			improved, swaps, err := e.localImprove(ctx, set, spec, scorer, dv)
			if err != nil {
				lt.end()
				return Partial{}, err
			}
			set = improved
			p.examined += swaps
		}
		if score := scorer.objective(scorer.idsOf(set)); score > p.bestScore {
			p.bestScore = score
			p.found = true
			p.best = set
			p.bestTask = st.task
		}
	}
	lt.end()
	return p, nil
}

// localImprove repeatedly tries to swap one selected group for one
// unselected group when the swap keeps the set feasible and raises the
// objective, until a round yields no improvement (capped at 8 rounds).
// It returns the improved set and the number of candidate evaluations.
// Cancellation is checked once per round.
//
// Each position's scan filters first and then scores. While position pos
// is scanned the other members stay fixed, so per binding a candidate's
// set pair-sum is R + V[c]: R sums the pairs among the other members and
// V[c] sums c's column entries against them, both read off the members'
// cached columns (swapFilter). The filter keeps c unless its objective
// estimate falls below the scan-start curScore+1e-12, a constraint
// estimate falls below its threshold, or its size sum cannot reach
// MinSupport; the estimates are held to each bound less filterBound, the
// most a sum taken in another order can differ, and a NaN estimate always
// survives. The survivors then run the unchanged sc.objective and
// sc.feasible in ID order against the live curScore, so every decision
// and every score is the one a trial-by-trial scan makes. A trial the
// filter drops is still counted: each position examines every
// non-member, plus the swapped-out group once more when a swap takes a
// lower ID first, as the trial-by-trial scan then reaches it.
func (e *Engine) localImprove(ctx context.Context, set []*groups.Group, spec ProblemSpec, sc *matrixScorer, dv *dvfdpScratch) ([]*groups.Group, int64, error) {
	n, k := len(e.Groups), len(set)
	cur := make([]*groups.Group, k)
	copy(cur, set)
	ids := make([]int, k)
	members := make([]*dvColumns, k)
	inSet := dv.inSet // by dense group ID
	clear(inSet)
	for i, g := range cur {
		ids[i] = g.ID
		members[i] = dv.columns(g.ID)
		inSet[g.ID] = true
	}
	curScore := sc.objective(ids)
	var evals int64
	//tagdm:cancellable
	for round := 0; round < 8; round++ {
		if err := ctx.Err(); err != nil {
			return nil, evals, err
		}
		improvedThisRound := false
		for pos := range cur {
			out := ids[pos]
			evals += int64(n - k)
			surv := dv.swapFilter(ids, members, pos, curScore+1e-12)
			first := -1
			for _, c := range surv {
				if inSet[c] || c == out {
					continue
				}
				ids[pos] = c
				if score := sc.objective(ids); score > curScore+1e-12 &&
					sc.feasible(ids) {
					curScore = score
					inSet[cur[pos].ID] = false
					inSet[c] = true
					cur[pos] = e.Groups[c]
					if first < 0 {
						first = c
					}
					improvedThisRound = true
				}
			}
			ids[pos] = cur[pos].ID
			if first >= 0 {
				if first < out {
					evals++
				}
				members[pos] = dv.columns(ids[pos])
			}
		}
		if !improvedThisRound {
			break
		}
	}
	return cur, evals, nil
}

// anchoredStart builds a k-set around one anchor group by repeatedly adding
// the candidate that maximizes the objective pair-sum to the partial set
// while keeping it feasible-so-far (constraint aggregates evaluated on the
// partial set; support deferred to the caller's final check). Returns nil
// when no candidate can be added at some step. Each step first drops,
// branch-free, the candidates whose constraint estimates off the set's
// cached columns fall short (keepConstraints; the same bound as the swap
// filter, so no candidate that clears a constraint is dropped). The
// survivors then run in ID order: the pair-sum adds the members' cached
// objective columns, whose entries are the greedy distance bit for bit,
// and a candidate that beats the best sum has each constraint mean summed
// off the cached constraint columns in MeanOver's row-major order. So
// every score and decision matches scoring the trial sets through the
// pair matrices.
func (e *Engine) anchoredStart(anchor *groups.Group, spec ProblemSpec, dv *dvfdpScratch, k int) []*groups.Group {
	set := []*groups.Group{anchor}
	ids := make([]int, 1, k)
	ids[0] = anchor.ID
	cols := make([]*dvColumns, 1, k)
	cols[0] = dv.columns(anchor.ID)
	inSet := dv.inSet // by dense group ID
	clear(inSet)
	inSet[anchor.ID] = true
	for len(set) < k {
		var best *groups.Group
		bestSum := -1.0
		pairs := len(ids) * (len(ids) + 1) / 2
		for c := range dv.surv {
			dv.surv[c] = c
		}
		m := dv.keepConstraints(dv.others(ids, cols, -1), pairs, len(dv.surv))
		for _, c := range dv.surv[:m] {
			if inSet[c] {
				continue
			}
			var sum float64
			for _, col := range cols {
				sum += col.obj[c]
			}
			if sum <= bestSum {
				continue
			}
			ok := true
			for ci, con := range spec.Constraints {
				var s float64
				for i, col := range cols {
					for _, later := range cols[i+1:] {
						s += later.con[ci][ids[i]]
					}
					s += col.con[ci][c]
				}
				if s/float64(pairs) < con.Threshold {
					ok = false
					break
				}
			}
			if ok {
				best, bestSum = e.Groups[c], sum
			}
		}
		if best == nil {
			return nil
		}
		set = append(set, best)
		ids = append(ids, best.ID)
		cols = append(cols, dv.columns(best.ID))
		inSet[best.ID] = true
	}
	return set
}

// dvfdpOnce runs one greedy dispersion pass with the given candidate size
// floor, returning the selected groups (nil when no admissible seed pair
// exists) and the number of greedy selections performed.
func (e *Engine) dvfdpOnce(spec ProblemSpec, opts FDPOptions, sc *matrixScorer, dv *dvfdpScratch, dist vec.DistFunc, k, minSize int) ([]*groups.Group, int64) {
	if k < 2 {
		// Degenerate: a singleton has no pairs, so every singleton scores
		// 0. Filter mode returns group 0 for the post-filter to judge. Fold
		// mode returns the first group in ID order meeting the pass's floor
		// and the support floor (a singleton's support is its size), which
		// is Exact's answer; nil when no group does.
		if opts.Mode == Filter {
			return []*groups.Group{e.Groups[0]}, 1
		}
		for _, g := range e.Groups {
			if g.Size() >= minSize && g.Size() >= spec.MinSupport {
				return []*groups.Group{g}, 1
			}
		}
		return nil, 0
	}
	maxSize := 0
	for _, g := range e.Groups {
		if g.Size() > maxSize {
			maxSize = g.Size()
		}
	}
	accept := e.dvfdpAccept(spec, opts, sc, k, minSize, maxSize)
	// The fixed-seed ablation starts from the arbitrary pair (0, 1) when
	// one probe admits it, and falls back to the max-edge seed otherwise.
	var a, b int
	if opts.FixedSeed && (accept == nil || accept([]int{0}, 1)) {
		a, b = 0, 1
	} else {
		var ok bool
		if a, b, ok = e.dvfdpSeed(spec, opts, sc, dv, k, minSize, maxSize); !ok {
			return nil, 0 // no admissible seed pair: a null outcome
		}
	}
	n := len(e.Groups)
	var (
		run fdp.Result
		err error
	)
	if opts.Criterion == MaxMin && !opts.FixedSeed {
		run, err = fdp.MaxMinFrom(n, k, a, b, dist, accept)
	} else {
		run, err = fdp.MaxAvgFrom(n, k, a, b, dist, accept)
	}
	if err != nil {
		return nil, 0
	}
	set := make([]*groups.Group, len(run.Selected))
	for i, id := range run.Selected {
		set[i] = e.Groups[id]
	}
	return set, int64(len(run.Selected))
}

// dvfdpAccept builds the greedy add gate of one pass (nil when nothing is
// gated). The size floor rejects candidates under minSize. In Fold mode
// with a support floor, a candidate is admissible only if the floor can
// still be reached after picking it, assuming every remaining slot takes
// the largest group (maxSize): this prunes dead-end selections without
// the bluntness of a flat size floor. In Fold mode each constraint's mean
// pair score from the candidate to the selection must clear its
// threshold. dvfdpSeed applies the same gates to the seed pair as
// branch-free survivor filters over each matrix row, and then takes the
// argmax over the survivors.
func (e *Engine) dvfdpAccept(spec ProblemSpec, opts FDPOptions, sc *matrixScorer, k, minSize, maxSize int) fdp.Accept {
	var accept fdp.Accept
	if opts.Mode == Fold && spec.MinSupport > 0 {
		accept = func(selected []int, cand int) bool {
			if minSize > 0 && e.Groups[cand].Size() < minSize {
				return false
			}
			sum := e.Groups[cand].Size()
			for _, s := range selected {
				sum += e.Groups[s].Size()
			}
			remaining := k - len(selected) - 1
			return sum+remaining*maxSize >= spec.MinSupport
		}
	} else if minSize > 0 {
		accept = func(selected []int, cand int) bool {
			return e.Groups[cand].Size() >= minSize
		}
	}
	if opts.Mode == Fold && len(spec.Constraints) > 0 {
		thresholds := make([]float64, len(spec.Constraints))
		for i, c := range spec.Constraints {
			thresholds[i] = c.Threshold
		}
		sizeAccept := accept
		accept = func(selected []int, cand int) bool {
			if sizeAccept != nil && !sizeAccept(selected, cand) {
				return false
			}
			for ci, m := range sc.conSrc {
				var sum float64
				for _, s := range selected {
					sum += m.At(s, cand)
				}
				if sum < thresholds[ci]*float64(len(selected)) {
					return false
				}
			}
			return true
		}
	}
	return accept
}

// dvfdpSeed returns the seed pair (i < j) of one greedy pass: the first
// pair in row-major order among those with the largest weighted objective
// pair score that dvfdpAccept's gate admits in both directions, which is
// the pair fdp.MaxAvg's own seed scan picks. It reads the upper triangle
// one contiguous matrix row at a time. Each row first runs the gates
// branch-free into the survivor list: every Fold constraint through
// keepFirstConstraint/keepConstraint as a one-member prefix (sum0 = 0,
// pairs = 1, so the test is row[x] < Threshold bit for bit and a NaN
// score passes), then the partner's size floor. The argmax then scores
// only the survivors, in ascending order. A pass allocates nothing: the
// buffers are the partial's scratch. The pair score sums the objectives
// in pairObjective's order, so it is bit-identical to the greedy
// distance; a NaN score never wins.
func (e *Engine) dvfdpSeed(spec ProblemSpec, opts FDPOptions, sc *matrixScorer, dv *dvfdpScratch, k, minSize, maxSize int) (int, int, bool) {
	n := len(e.Groups)
	supportGate := opts.Mode == Fold && spec.MinSupport > 0
	// A seed pair leaves k-2 slots for the largest group.
	headroom := (k - 2) * maxSize
	objRows := dv.objRows
	var conRows [][]float64 // constraints gate the seed in Fold mode only
	if opts.Mode == Fold {
		conRows = dv.conRows
	}
	surv := dv.surv
	bi, bj, best := -1, -1, math.Inf(-1)
	for i := 0; i < n-1; i++ {
		si := dv.sizes[i]
		if si < minSize {
			continue
		}
		for oi := range objRows {
			objRows[oi] = sc.objMats[oi].Row(i)
		}
		for ci := range conRows {
			conRows[ci] = sc.conMats[ci].Row(i)
		}
		first := i + 1
		var m int
		if len(conRows) > 0 {
			m = keepFirstConstraint(surv, first, conRows[:1], 0, n-first, 0, 1, spec.Constraints[0].Threshold)
			for ci := 1; ci < len(conRows); ci++ {
				m = keepConstraint(surv[:m], first, conRows[ci:ci+1], 0, 1, spec.Constraints[ci].Threshold)
			}
		} else {
			for j := first; j < n; j++ {
				surv[m] = j
				m++
			}
		}
		// The partner's size floor: the pass's, raised under the support
		// gate to what the pair needs to keep the support reachable.
		need := minSize
		if supportGate {
			need = max(need, spec.MinSupport-headroom-si)
		}
		if need > 0 {
			m = keepSize(surv[:m], dv.sizes, need)
		}
		for _, j := range surv[:m] {
			var d float64
			for oi, o := range spec.Objectives {
				d += o.Weight * objRows[oi][j-first]
			}
			if d > best {
				bi, bj, best = i, j, d
			}
		}
	}
	return bi, bj, bi != -1
}

// keepSize compacts the survivors surv in place to those of at least need
// tuples and returns how many it kept.
func keepSize(surv, sizes []int, need int) int {
	m := 0
	for _, i := range surv {
		surv[m] = i
		if sizes[i] >= need {
			m++
		}
	}
	return m
}

// dvfdpScratch is one partial's DV-FDP working memory: group sizes, the
// survivor list and row headers the seed scan and the swap filter
// compact into, a membership mask, and the column cache. It belongs to
// one goroutine; every partial builds its own, so shards share no buffers.
type dvfdpScratch struct {
	spec    ProblemSpec
	sc      *matrixScorer
	sizes   []int  // by dense group ID
	surv    []int  // survivor list, one slot per group
	inSet   []bool // membership mask by dense group ID
	objRows [][]float64
	conRows [][]float64
	// cols caches, by group ID, the columns gathered so far; gather is the
	// per-objective staging column the weighted sum is built from.
	cols   []*dvColumns
	gather []float64
	free   []dvColumns // zeroed columns not yet handed out
	// The members a filter pass estimates against (others): their IDs,
	// each binding's column headers, and per binding (objectives, then
	// constraints) the largest |entry| over their columns.
	otherIDs  []int
	objOthers [][]float64
	conOthers [][][]float64
	otherAbs  []float64
}

// dvColumns is one group x's full columns over the group universe: obj[c]
// is sc.pairObjective(x, c) bit for bit (the weighted objective sum, in
// objective order), con[ci][c] the ci-th constraint's pair score. abs
// holds, per binding (objectives, then constraints), the largest |score|
// x has against any group; NaN scores are not counted.
type dvColumns struct {
	obj []float64
	con [][]float64
	abs []float64
}

// dvColumnChunk is how many groups' columns the scratch allocates at once.
const dvColumnChunk = 8

func newDVFDPScratch(e *Engine, spec ProblemSpec, sc *matrixScorer) *dvfdpScratch {
	n := len(e.Groups)
	dv := &dvfdpScratch{
		spec:      spec,
		sc:        sc,
		sizes:     make([]int, n),
		surv:      make([]int, n),
		inSet:     make([]bool, n),
		objRows:   make([][]float64, len(spec.Objectives)),
		conRows:   make([][]float64, len(spec.Constraints)),
		cols:      make([]*dvColumns, n),
		gather:    make([]float64, n),
		conOthers: make([][][]float64, len(spec.Constraints)),
		otherAbs:  make([]float64, len(spec.Objectives)+len(spec.Constraints)),
	}
	for i, g := range e.Groups {
		dv.sizes[i] = g.Size()
	}
	return dv
}

// columns returns group x's columns, gathering them from the pair
// matrices on first use.
func (dv *dvfdpScratch) columns(x int) *dvColumns {
	if c := dv.cols[x]; c != nil {
		return c
	}
	n := len(dv.cols)
	no, nc := len(dv.spec.Objectives), len(dv.spec.Constraints)
	if len(dv.free) == 0 {
		// Carve columns out of chunks of dvColumnChunk groups: a paper
		// solve gathers 12-28 groups, so a few allocations serve it.
		dv.free = make([]dvColumns, dvColumnChunk)
		data := make([]float64, dvColumnChunk*(1+nc)*n)
		con := make([][]float64, dvColumnChunk*nc)
		abs := make([]float64, dvColumnChunk*(no+nc))
		for g := range dv.free {
			f := &dv.free[g]
			f.obj, data = data[:n:n], data[n:]
			f.con, con = con[:nc:nc], con[nc:]
			f.abs, abs = abs[:no+nc:no+nc], abs[no+nc:]
			for ci := range f.con {
				f.con[ci], data = data[:n:n], data[n:]
			}
		}
	}
	c := &dv.free[0]
	dv.free = dv.free[1:]
	for oi, o := range dv.spec.Objectives {
		dv.sc.objMats[oi].Col(x, dv.gather)
		for j, v := range dv.gather {
			c.obj[j] += o.Weight * v
		}
		c.abs[oi] = maxAbs(dv.gather)
	}
	for ci, col := range c.con {
		dv.sc.conMats[ci].Col(x, col)
		c.abs[no+ci] = maxAbs(col)
	}
	dv.cols[x] = c
	return c
}

// maxAbs is the largest |v| over the non-NaN entries of vs.
func maxAbs(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// swapFilter returns, in ascending ID order, the groups c that may pass
// sc.objective(ids) > thr && sc.feasible(ids) with c at position pos, the
// other members fixed (members[p] holds ids[p]'s columns): the objective
// estimate first over the whole universe, then each constraint's and the
// size sum over the survivors. Every group whose trial beats thr and is
// feasible survives; current members may survive too, and the caller
// skips them.
func (dv *dvfdpScratch) swapFilter(ids []int, members []*dvColumns, pos int, thr float64) []int {
	others := dv.others(ids, members, pos)
	pairs := len(ids) * (len(ids) - 1) / 2
	var scale float64
	for oi, o := range dv.spec.Objectives {
		scale += math.Abs(o.Weight) * dv.otherAbs[oi]
	}
	m := keepFirstConstraint(dv.surv, 0, dv.objOthers, 0, len(dv.surv), pairSum(dv.objOthers, others), float64(pairs),
		thr-filterBound(pairs, len(dv.spec.Objectives), scale, thr))
	m = dv.keepConstraints(others, pairs, m)
	if dv.spec.MinSupport > 0 {
		need := dv.spec.MinSupport
		for _, id := range others {
			need -= dv.sizes[id]
		}
		m = keepSize(dv.surv[:m], dv.sizes, need)
	}
	return dv.surv[:m]
}

// others points the scratch's per-binding headers at the columns of every
// member but skip (-1 keeps them all), records each binding's largest
// |score| over them, and returns the kept members' IDs.
func (dv *dvfdpScratch) others(ids []int, members []*dvColumns, skip int) []int {
	dv.otherIDs, dv.objOthers = dv.otherIDs[:0], dv.objOthers[:0]
	for ci := range dv.conOthers {
		dv.conOthers[ci] = dv.conOthers[ci][:0]
	}
	clear(dv.otherAbs)
	for p, col := range members {
		if p == skip {
			continue
		}
		dv.otherIDs = append(dv.otherIDs, ids[p])
		dv.objOthers = append(dv.objOthers, col.obj)
		for ci := range dv.conOthers {
			dv.conOthers[ci] = append(dv.conOthers[ci], col.con[ci])
		}
		for b, a := range col.abs {
			dv.otherAbs[b] = max(dv.otherAbs[b], a)
		}
	}
	return dv.otherIDs
}

// keepConstraints compacts dv.surv[:m] to the groups c whose every
// constraint estimate, with c joining the members others (whose columns
// dv.others set up) in a set of pairs pairs, is not below the threshold
// less filterBound, and returns how many it kept.
func (dv *dvfdpScratch) keepConstraints(others []int, pairs, m int) int {
	no := len(dv.spec.Objectives)
	for ci, c := range dv.spec.Constraints {
		cols := dv.conOthers[ci]
		m = keepConstraint(dv.surv[:m], 0, cols, pairSum(cols, others), float64(pairs),
			c.Threshold-filterBound(pairs, 0, dv.otherAbs[no+ci], c.Threshold))
	}
	return m
}

// pairSum is the pair-sum among ids, read off their columns cols: the sum
// of cols[q][ids[p]] over p < q.
func pairSum(cols [][]float64, ids []int) float64 {
	var s float64
	for q, col := range cols {
		for _, id := range ids[:q] {
			s += col[id]
		}
	}
	return s
}

// filterBound bounds how far an estimate can fall below the score it
// stands for. Both are means over the same P = pairs pair values per
// binding, at most scale in magnitude (for the objective: sum_o |w_o| times
// each binding's largest |entry|), summed in different orders. Recursive
// summation of P terms errs by at most (P-1)*u*sum|x| <= (P-1)*u*P*scale
// (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 4.2),
// with u = 2^-53; the division by P, the weights and the terms-way
// objective sum add a few rounding steps more, and subtracting the bound
// from thr one more. 4*(P+terms+1)*u*(scale+|thr|) covers both sides with
// room to spare. It is +Inf, which turns the filter off, when scale or thr
// is not finite or large enough that a sum could overflow.
func filterBound(pairs, terms int, scale, thr float64) float64 {
	s := scale + math.Abs(thr)
	if !(s <= 0x1p900) {
		return math.Inf(1)
	}
	return 4 * float64(pairs+terms+1) * 0x1p-53 * s
}
