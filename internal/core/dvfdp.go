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
			set, adds := e.dvfdpOnce(spec, opts, scorer, dist, k, task.floor)
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
			set := e.anchoredStart(bySize[task.anchor], spec, scorer, dist, k)
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
			improved, swaps, err := e.localImprove(ctx, set, spec, scorer)
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
// Candidates are scored through the spec's pair matrices: a swap trial is
// O(k^2) float lookups, with no per-trial allocation. Cancellation is
// checked once per round.
func (e *Engine) localImprove(ctx context.Context, set []*groups.Group, spec ProblemSpec, sc *matrixScorer) ([]*groups.Group, int64, error) {
	cur := make([]*groups.Group, len(set))
	copy(cur, set)
	ids := make([]int, len(cur))
	for i, g := range cur {
		ids[i] = g.ID
	}
	curScore := sc.objective(ids)
	inSet := make([]bool, len(e.Groups)) // by dense group ID
	for _, g := range cur {
		inSet[g.ID] = true
	}
	var evals int64
	//tagdm:cancellable
	for round := 0; round < 8; round++ {
		if err := ctx.Err(); err != nil {
			return nil, evals, err
		}
		improvedThisRound := false
		for pos := 0; pos < len(cur); pos++ {
			old := cur[pos]
			for _, cand := range e.Groups {
				if inSet[cand.ID] {
					continue
				}
				cur[pos] = cand
				ids[pos] = cand.ID
				evals++
				// Score first: it rejects most candidates and is cheaper
				// than the full feasibility battery.
				if score := sc.objective(ids); score > curScore+1e-12 &&
					sc.feasible(ids) {
					curScore = score
					inSet[old.ID] = false
					inSet[cand.ID] = true
					old = cand
					improvedThisRound = true
					continue
				}
				cur[pos] = old
				ids[pos] = old.ID
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
// when no candidate can be added at some step. Trial sets are scored as id
// slices against the constraint matrices, so probing every candidate per
// step allocates nothing.
func (e *Engine) anchoredStart(anchor *groups.Group, spec ProblemSpec, sc *matrixScorer, dist vec.DistFunc, k int) []*groups.Group {
	set := []*groups.Group{anchor}
	ids := make([]int, 1, k+1)
	ids[0] = anchor.ID
	inSet := make([]bool, len(e.Groups)) // by dense group ID
	inSet[anchor.ID] = true
	for len(set) < k {
		var best *groups.Group
		bestSum := -1.0
		for _, cand := range e.Groups {
			if inSet[cand.ID] {
				continue
			}
			var sum float64
			for _, s := range set {
				sum += dist(s.ID, cand.ID)
			}
			if sum <= bestSum {
				continue
			}
			trial := append(ids, cand.ID)
			ok := true
			for ci, c := range spec.Constraints {
				if sc.conSrc[ci].MeanOver(trial) < c.Threshold {
					ok = false
					break
				}
			}
			if ok {
				best, bestSum = cand, sum
			}
		}
		if best == nil {
			return nil
		}
		set = append(set, best)
		ids = append(ids, best.ID)
		inSet[best.ID] = true
	}
	return set
}

// dvfdpOnce runs one greedy dispersion pass with the given candidate size
// floor, returning the selected groups (nil when no admissible seed pair
// exists) and the number of greedy selections performed.
func (e *Engine) dvfdpOnce(spec ProblemSpec, opts FDPOptions, sc *matrixScorer, dist vec.DistFunc, k, minSize int) ([]*groups.Group, int64) {
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
		if a, b, ok = e.dvfdpSeed(spec, opts, sc, k, minSize, maxSize); !ok {
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
// threshold. dvfdpSeed inlines the same gates for the seed pair.
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
// one contiguous matrix row at a time with the gates inlined (score
// first: a pair that cannot beat the running best needs no gate), so a
// pass costs one sweep of the rows with no call or allocation per pair. The pair
// score sums the objectives in pairObjective's order, so it is
// bit-identical to the greedy distance; a NaN score never wins.
func (e *Engine) dvfdpSeed(spec ProblemSpec, opts FDPOptions, sc *matrixScorer, k, minSize, maxSize int) (int, int, bool) {
	n := len(e.Groups)
	supportGate := opts.Mode == Fold && spec.MinSupport > 0
	// A seed pair leaves k-2 slots for the largest group.
	headroom := (k - 2) * maxSize
	objRows := make([][]float64, len(spec.Objectives))
	var conRows [][]float64 // constraints gate the seed in Fold mode only
	if opts.Mode == Fold {
		conRows = make([][]float64, len(spec.Constraints))
	}
	bi, bj, best := -1, -1, math.Inf(-1)
	for i := 0; i < n-1; i++ {
		si := e.Groups[i].Size()
		if si < minSize {
			continue
		}
		for oi := range objRows {
			objRows[oi] = sc.objMats[oi].Row(i)
		}
		for ci := range conRows {
			conRows[ci] = sc.conMats[ci].Row(i)
		}
		// The partner's size floor: the pass's, raised under the support
		// gate to what the pair needs to keep the support reachable.
		need := minSize
		if supportGate {
			need = max(need, spec.MinSupport-headroom-si)
		}
	pairs:
		for x := 0; x < n-i-1; x++ {
			var d float64
			for oi, o := range spec.Objectives {
				d += o.Weight * objRows[oi][x]
			}
			if !(d > best) {
				continue
			}
			j := i + 1 + x
			if e.Groups[j].Size() < need {
				continue
			}
			for ci, row := range conRows {
				if row[x] < spec.Constraints[ci].Threshold {
					continue pairs
				}
			}
			bi, bj, best = i, j, d
		}
	}
	return bi, bj, bi != -1
}
