package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/vec"
)

// The DV-FDP scans as they stood before the local search, the seed scan
// and the anchored starts learned to filter candidates ahead of scoring
// them: a swap trial scored every candidate through sc.objective and, when
// it beat the score, sc.feasible; the seed scan scored each pair first and
// gated only those beating the running best; an anchored start called the
// greedy distance and MeanOver per candidate. The oracle tests compare the
// filtered scans with these, decision for decision and bit for bit.

// localImproveReference repeatedly tries to swap one selected group for one
// unselected group when the swap keeps the set feasible and raises the
// objective, until a round yields no improvement (capped at 8 rounds).
// It returns the improved set and the number of candidate evaluations.
// Candidates are scored through the spec's pair matrices: a swap trial is
// O(k^2) float lookups, with no per-trial allocation. Cancellation is
// checked once per round.
func (e *Engine) localImproveReference(ctx context.Context, set []*groups.Group, spec ProblemSpec, sc *matrixScorer) ([]*groups.Group, int64, error) {
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

// anchoredStartReference builds a k-set around one anchor group by repeatedly adding
// the candidate that maximizes the objective pair-sum to the partial set
// while keeping it feasible-so-far (constraint aggregates evaluated on the
// partial set; support deferred to the caller's final check). Returns nil
// when no candidate can be added at some step. Trial sets are scored as id
// slices against the constraint matrices, so probing every candidate per
// step allocates nothing.
func (e *Engine) anchoredStartReference(anchor *groups.Group, spec ProblemSpec, sc *matrixScorer, dist vec.DistFunc, k int) []*groups.Group {
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

// dvfdpSeedReference returns the seed pair (i < j) of one greedy pass: the first
// pair in row-major order among those with the largest weighted objective
// pair score that dvfdpAccept's gate admits in both directions, which is
// the pair fdp.MaxAvg's own seed scan picks. It reads the upper triangle
// one contiguous matrix row at a time with the gates inlined (score
// first: a pair that cannot beat the running best needs no gate), so a
// pass costs one sweep of the rows with no call or allocation per pair. The pair
// score sums the objectives in pairObjective's order, so it is
// bit-identical to the greedy distance; a NaN score never wins.
func (e *Engine) dvfdpSeedReference(spec ProblemSpec, opts FDPOptions, sc *matrixScorer, k, minSize, maxSize int) (int, int, bool) {
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

// nearTieSpec draws a spec for the filter oracles: k from 2 to 5, one or
// two objectives whose weights include large ones (at weight 1e5 a score's
// last bit is worth more than the 1e-12 acceptance margin, so a swap
// whose exact score ties the current one is accepted or not by rounding
// alone), zero to two constraints whose thresholds sit on the score
// levels' means, and a support floor that is absent, loose or binding.
func nearTieSpec(rng *rand.Rand, e *Engine) ProblemSpec {
	binding := func() (mining.Dimension, mining.Measure) {
		return mining.Dimension(rng.Intn(3)), mining.Measure(rng.Intn(2))
	}
	weights := []float64{1, 0.7, 1e5, 3.3e5}
	thresholds := []float64{0, 0.1, 0.2, 0.3}
	spec := ProblemSpec{KLo: 1, KHi: 2 + rng.Intn(4), Name: "near-tie"}
	for o := 1 + rng.Intn(2); o > 0; o-- {
		dim, meas := binding()
		spec.Objectives = append(spec.Objectives, Objective{Dim: dim, Meas: meas, Weight: weights[rng.Intn(len(weights))]})
	}
	for c := rng.Intn(3); c > 0; c-- {
		dim, meas := binding()
		spec.Constraints = append(spec.Constraints, Constraint{Dim: dim, Meas: meas, Threshold: thresholds[rng.Intn(len(thresholds))]})
	}
	if rng.Intn(3) > 0 {
		spec.MinSupport = 1 + rng.Intn(spec.KHi*maxGroupSize(e))
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return spec
}

// nearTieEngine scores pairs on non-dyadic levels, so that two summation
// orders of the same pair scores often round apart, with NaN scores on
// about one pair in 30, and groups 0 and 1 scoring 0 against every group
// on the user and item bindings: columns whose filter bound is 0 at
// threshold 0, where a constraint estimate equal to its threshold must
// survive.
func nearTieEngine(t *testing.T, seed int64) *Engine {
	return leveledEngine(t, 28+int(seed%3)*5, seed, []float64{0, 0.1, 0.2, 0.3, 0.6, 0.7}, 30, 2)
}

// TestLocalImproveMatchesReference runs the filtered local search and the
// trial-by-trial reference from the same random starts and checks the
// resulting group IDs, the bits of their score and the examined count.
// One scratch serves every start of a spec, so cached columns are reused
// across starts as in a solve.
func TestLocalImproveMatchesReference(t *testing.T) {
	ctx := context.Background()
	var runs, moved int
	for seed := int64(1); seed <= 30; seed++ {
		e := nearTieEngine(t, seed)
		rng := rand.New(rand.NewSource(seed * 15485863))
		n := len(e.Groups)
		for trial := 0; trial < 8; trial++ {
			spec := nearTieSpec(rng, e)
			sc := e.scorer(spec)
			dv := newDVFDPScratch(e, spec, sc)
			for start := 0; start < 6; start++ {
				// Half the starts hold the zero-scoring groups, so that some
				// positions are scanned against their columns alone.
				perm := rng.Perm(n)
				if start%2 == 0 {
					perm = append([]int{0, 1}, slices.DeleteFunc(perm, func(id int) bool { return id < 2 })...)
					rng.Shuffle(spec.KHi, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				}
				set := make([]*groups.Group, spec.KHi)
				for i := range set {
					set[i] = e.Groups[perm[i]]
				}
				want, wantEvals, err := e.localImproveReference(ctx, set, spec, sc)
				if err != nil {
					t.Fatal(err)
				}
				wantScore := sc.objective(groupIDs(want))
				got, gotEvals, err := e.localImprove(ctx, set, spec, sc, dv)
				if err != nil {
					t.Fatal(err)
				}
				gotScore := sc.objective(groupIDs(got))
				if !slices.Equal(groupIDs(got), groupIDs(want)) || math.Float64bits(gotScore) != math.Float64bits(wantScore) || gotEvals != wantEvals {
					t.Fatalf("seed %d trial %d start %d from %v: got %v score %v (%d evals), reference %v score %v (%d evals)\nspec %+v",
						seed, trial, start, groupIDs(set), groupIDs(got), gotScore, gotEvals, groupIDs(want), wantScore, wantEvals, spec)
				}
				runs++
				if !slices.Equal(groupIDs(want), groupIDs(set)) {
					moved++
				}
			}
		}
	}
	t.Logf("%d local searches compared, %d moved their start", runs, moved)
	if moved == 0 || moved == runs {
		t.Fatalf("degenerate sweep: %d of %d searches moved", moved, runs)
	}
}

// TestDVFDPSeedMatchesReference checks the filtered seed scan against the
// score-first reference, pair for pair, on dyadic and non-dyadic scores
// with NaN pairs, in both modes and at every floor a pass can run.
func TestDVFDPSeedMatchesReference(t *testing.T) {
	var compared int
	for seed := int64(1); seed <= 20; seed++ {
		e := quantizedEngine(t, 30+int(seed%3)*7, seed)
		if seed%2 == 0 {
			e = nearTieEngine(t, seed)
		}
		rng := rand.New(rand.NewSource(seed * 7727))
		for trial := 0; trial < 10; trial++ {
			spec := randomSeedSpec(rng, e)
			sc := e.scorer(spec)
			dv := newDVFDPScratch(e, spec, sc)
			k := min(spec.KHi, len(e.Groups))
			maxSize := maxGroupSize(e)
			for _, mode := range []ConstraintMode{Fold, Filter} {
				opts := FDPOptions{Mode: mode}
				for _, floor := range seedFloors(e, spec) {
					wa, wb, wok := e.dvfdpSeedReference(spec, opts, sc, k, floor, maxSize)
					a, b, ok := e.dvfdpSeed(spec, opts, sc, dv, k, floor, maxSize)
					if a != wa || b != wb || ok != wok {
						t.Fatalf("seed %d trial %d %s floor %d: seed (%d, %d, %v), reference (%d, %d, %v)\nspec %+v",
							seed, trial, dvfdpName(opts), floor, a, b, ok, wa, wb, wok, spec)
					}
					compared++
				}
			}
		}
	}
	t.Logf("%d seed scans compared", compared)
}

// TestAnchoredStartMatchesReference checks the column-summing anchored
// start against the reference that calls the greedy distance and MeanOver
// per candidate, from every anchor.
func TestAnchoredStartMatchesReference(t *testing.T) {
	var built, none int
	for seed := int64(1); seed <= 40; seed++ {
		e := nearTieEngine(t, seed)
		rng := rand.New(rand.NewSource(seed * 104723))
		for trial := 0; trial < 6; trial++ {
			spec := nearTieSpec(rng, e)
			sc := e.scorer(spec)
			dv := newDVFDPScratch(e, spec, sc)
			k := min(spec.KHi, len(e.Groups))
			for _, anchor := range e.Groups {
				want := e.anchoredStartReference(anchor, spec, sc, sc.pairObjective, k)
				got := e.anchoredStart(anchor, spec, dv, k)
				if !slices.Equal(groupIDs(got), groupIDs(want)) || (got == nil) != (want == nil) {
					t.Fatalf("seed %d trial %d anchor %d: got %v, reference %v\nspec %+v",
						seed, trial, anchor.ID, groupIDs(got), groupIDs(want), spec)
				}
				built++
				if want == nil {
					none++
				}
			}
		}
	}
	t.Logf("%d anchored starts compared, %d without a completion", built, none)
	if none == 0 || none == built {
		t.Fatalf("degenerate sweep: %d of %d anchored starts had no completion", none, built)
	}
}
