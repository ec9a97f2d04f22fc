package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
)

// solveAllFamilies runs one spec through all three solver entry points and
// returns the results keyed by family.
func solveAllFamilies(t *testing.T, e *Engine, spec ProblemSpec) map[string]Result {
	t.Helper()
	ctx := context.Background()
	out := make(map[string]Result)
	ex, err := e.Exact(ctx, spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out["exact"] = ex
	similarityOnly := true
	for _, o := range spec.Objectives {
		if o.Meas != mining.Similarity {
			similarityOnly = false
		}
	}
	if similarityOnly {
		sm, err := e.SMLSH(ctx, spec, LSHOptions{DPrime: 6, L: 2, Seed: 9, Mode: Fold})
		if err != nil {
			t.Fatal(err)
		}
		out["smlsh"] = sm
	}
	dv, err := e.DVFDP(ctx, spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	out["dvfdp"] = dv
	return out
}

// TestFinishObjectiveMatchesNaive pins the finish path's matrix-routed
// objective against the naive per-pair evaluation (ObjectiveScore goes
// through miningFunc.Eval): same bits, for every solver family, on both a
// cold engine (lazy sources) and a warm one (cached matrices).
func TestFinishObjectiveMatchesNaive(t *testing.T) {
	for _, warm := range []bool{false, true} {
		e := buildEngine(t)
		spec, err := PaperProblem(1, 3, 5, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			e.PrewarmMatrices(spec)
		}
		for fam, res := range solveAllFamilies(t, e, spec) {
			if !res.Found {
				continue
			}
			naive := e.ObjectiveScore(res.Groups, spec)
			if math.Float64bits(res.Objective) != math.Float64bits(naive) {
				t.Fatalf("warm=%v %s: finish objective %v, naive %v", warm, fam, res.Objective, naive)
			}
		}
	}
}

// TestSolveAccountingPartitionsBindings pins the outcome invariant: over
// any solve, builds + rebuilds + hits + lazy must equal the bindings the
// scorer touched (constraints + objectives), with physical
// materializations counted exactly once.
func TestSolveAccountingPartitionsBindings(t *testing.T) {
	e := buildEngine(t)
	spec, err := PaperProblem(1, 3, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bindings := len(spec.Constraints) + len(spec.Objectives)
	for fam, res := range solveAllFamilies(t, e, spec) {
		total := res.MatrixBuilds + res.MatrixRebuilds + res.MatrixHits + res.MatrixLazy
		if total != bindings {
			t.Fatalf("%s: builds %d + rebuilds %d + hits %d + lazy %d = %d, want %d bindings",
				fam, res.MatrixBuilds, res.MatrixRebuilds, res.MatrixHits, res.MatrixLazy, total, bindings)
		}
	}
}

// TestMatrixBudgetEvictsColdest exercises the LRU budget: with room for
// roughly one matrix, materializing a second binding must evict the first,
// bump the eviction counter, and keep residency within the budget.
func TestMatrixBudgetEvictsColdest(t *testing.T) {
	e := buildEngine(t)
	one := e.PairMatrix(mining.Tags, mining.Similarity).Bytes()
	e.SetMatrixBudget(one)
	if st := e.MatrixStats(); st.Entries != 1 || st.Bytes != one {
		t.Fatalf("after budget set: %+v", st)
	}
	e.PairMatrix(mining.Tags, mining.Diversity)
	st := e.MatrixStats()
	if st.Entries != 1 || st.Bytes != one || st.Evictions != 1 {
		t.Fatalf("after second build: %+v", st)
	}
	// The survivor is the newest binding; the evicted one rebuilds on
	// demand with identical values.
	if got := e.PairMatrix(mining.Tags, mining.Similarity); got.Len() != len(e.Groups) {
		t.Fatalf("re-materialized matrix covers %d groups", got.Len())
	}
	if st := e.MatrixStats(); st.Evictions != 2 {
		t.Fatalf("expected a second eviction, got %+v", st)
	}
}

// TestSolvesUnderTinyBudgetMatchSerial forces the degraded scoring paths —
// eviction churn for the materializing solvers, lazy sources for the gated
// one — and asserts answers stay bit-identical to an unbudgeted engine.
func TestSolvesUnderTinyBudgetMatchSerial(t *testing.T) {
	ref := buildEngine(t)
	budgeted := buildEngine(t)
	budgeted.SetMatrixBudget(64) // far below one matrix: nothing full fits
	for _, problem := range []int{1, 3, 5} {
		spec, err := PaperProblem(problem, 3, 5, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want := solveAllFamilies(t, ref, spec)
		got := solveAllFamilies(t, budgeted, spec)
		for fam := range want {
			w, g := want[fam], got[fam]
			if w.Found != g.Found {
				t.Fatalf("problem %d %s: found %v vs %v", problem, fam, g.Found, w.Found)
			}
			if math.Float64bits(w.Objective) != math.Float64bits(g.Objective) {
				t.Fatalf("problem %d %s: objective %v vs %v", problem, fam, g.Objective, w.Objective)
			}
			for i := range w.Groups {
				if w.Groups[i].ID != g.Groups[i].ID {
					t.Fatalf("problem %d %s: group set differs", problem, fam)
				}
			}
		}
	}
}

// TestColdBudgetSMLSHScoresLazily drives the gated scorer's budget
// fallback: on a cold engine whose budget cannot fit one matrix, an SM-LSH
// solve whose adaptive gate would materialize must score every binding
// through the lazy pair function instead — building and caching nothing —
// and answer bit-identically to an unbudgeted engine, which does build.
func TestColdBudgetSMLSHScoresLazily(t *testing.T) {
	ctx := context.Background()
	opts := LSHOptions{DPrime: 1, L: 2, Seed: 9, Mode: Fold}
	found := false
	for _, problem := range []int{1, 2, 3} {
		spec, err := PaperProblem(problem, 3, 5, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		bindings := len(spec.Constraints) + len(spec.Objectives)
		ref := buildEngine(t)
		want, err := ref.SMLSH(ctx, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.MatrixBuilds != bindings {
			t.Fatalf("problem %d: unbudgeted engine built %d of %d bindings", problem, want.MatrixBuilds, bindings)
		}

		budgeted := buildEngine(t)
		budgeted.SetMatrixBudget(64) // far below one matrix
		if budgeted.smlshPreferLazy(opts) {
			t.Fatalf("problem %d: the adaptive gate prefers lazy at d'=%d; the budget fallback is not reached", problem, opts.DPrime)
		}
		got, err := budgeted.SMLSH(ctx, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found || !sameGroupIDs(got.Groups, want.Groups) {
			t.Fatalf("problem %d: budgeted answer %v (found %v), unbudgeted %v (found %v)",
				problem, groupIDs(got.Groups), got.Found, groupIDs(want.Groups), want.Found)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("problem %d: objective %v vs %v", problem, got.Objective, want.Objective)
		}
		if got.MatrixLazy != bindings || got.MatrixBuilds+got.MatrixRebuilds+got.MatrixHits != 0 {
			t.Fatalf("problem %d: lazy %d builds %d rebuilds %d hits %d, want %d lazy bindings",
				problem, got.MatrixLazy, got.MatrixBuilds, got.MatrixRebuilds, got.MatrixHits, bindings)
		}
		if st := budgeted.MatrixStats(); st.Entries != 0 {
			t.Fatalf("problem %d: budget fallback left matrices resident: %+v", problem, st)
		}
		found = found || want.Found
	}
	if !found {
		t.Fatal("no problem found an answer; the comparison is vacuous")
	}
}

// TestSetPairFuncDropsCachedMatrix pins override invalidation: a matrix
// built for the default measure must not survive a SetPairFunc, and the
// next materialization must embody the override.
func TestSetPairFuncDropsCachedMatrix(t *testing.T) {
	e := buildEngine(t)
	before := e.PairMatrix(mining.Tags, mining.Similarity)
	e.SetPairFunc(mining.Tags, mining.Similarity, func(g1, g2 *groups.Group) float64 { return 0.25 })
	after := e.PairMatrix(mining.Tags, mining.Similarity)
	if after == before {
		t.Fatal("override did not drop the cached matrix")
	}
	if got := after.At(0, 1); got != 0.25 {
		t.Fatalf("overridden matrix value = %v", got)
	}
}

// stampedEngine builds the test engine and links its cache to carry as
// the epoch at version with the given change stamps (all zero when nil).
func stampedEngine(t *testing.T, carry *Carry, version int64, stamps []int64) *Engine {
	t.Helper()
	e := buildEngine(t)
	if stamps == nil {
		stamps = make([]int64, len(e.Groups))
	}
	e.Cache().UseCarry(carry, version, stamps)
	return e
}

// assertScratchIdentical fails unless m is bit-identical to a scratch
// build of the binding over e's groups.
func assertScratchIdentical(t *testing.T, label string, e *Engine, dim mining.Dimension, meas mining.Measure, m *mining.PairMatrix) {
	t.Helper()
	want := mining.NewPairMatrix(e.Groups, e.PairFunc(dim, meas), 0)
	if m.Len() != want.Len() {
		t.Fatalf("%s: matrix over %d groups, want %d", label, m.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		for j := i + 1; j < want.Len(); j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("%s: matrix differs from scratch at (%d,%d)", label, i, j)
			}
		}
	}
}

// TestCarryRebuildsBitIdentical is the core-level carry contract: a
// next-epoch engine over the same groups and stamps must serve every
// carried binding via a rebuild (not a scratch build) that is
// bit-identical to a scratch build. Overridden bindings
// neither take from the carry nor offer to it.
func TestCarryRebuildsBitIdentical(t *testing.T) {
	const dim, meas = mining.Tags, mining.Diversity
	carry := NewCarry()
	stampedEngine(t, carry, 0, nil).PairMatrix(dim, meas)

	next := stampedEngine(t, carry, 1, nil)
	m, outcome := next.pairMatrixTracked(dim, meas)
	if outcome != matrixRebuilt {
		t.Fatalf("carried binding served with outcome %d, want rebuild", outcome)
	}
	assertScratchIdentical(t, "carried", next, dim, meas, m)
	// A binding no epoch built falls back to a scratch build.
	if _, outcome := next.pairMatrixTracked(mining.Users, mining.Similarity); outcome != matrixBuilt {
		t.Fatalf("uncarried binding outcome %d, want scratch build", outcome)
	}
	// Overrides poison the carry: the carried matrix embodies the default
	// measure, so an overridden binding must build from scratch, and its
	// matrix must not replace the carried one.
	third := stampedEngine(t, carry, 2, nil)
	third.SetPairFunc(dim, meas, func(g1, g2 *groups.Group) float64 { return 1 })
	if _, outcome := third.pairMatrixTracked(dim, meas); outcome != matrixBuilt {
		t.Fatalf("overridden binding outcome %d, want scratch build", outcome)
	}
	fourth := stampedEngine(t, carry, 3, nil)
	m, outcome = fourth.pairMatrixTracked(dim, meas)
	if outcome != matrixRebuilt {
		t.Fatalf("binding after an overridden epoch served with outcome %d, want rebuild", outcome)
	}
	assertScratchIdentical(t, "after override", fourth, dim, meas, m)
}

// TestCarryLateBuildOnOlderEpoch: epoch 0 builds a binding, epoch 1
// builds a different one, and epoch 2 is published. A late solve on epoch
// 1 that now needs the first binding must rebuild from epoch 0's matrix,
// recomputing the rows its stamps mark changed, not build from scratch
// because a newer epoch was published in between.
func TestCarryLateBuildOnOlderEpoch(t *testing.T) {
	const dim, meas = mining.Tags, mining.Diversity
	carry := NewCarry()
	e0 := stampedEngine(t, carry, 0, nil)
	e0.PairMatrix(dim, meas)

	s1 := make([]int64, len(e0.Groups))
	s1[1] = 1
	e1 := stampedEngine(t, carry, 1, s1)
	e1.PairMatrix(mining.Users, mining.Similarity)

	s2 := append([]int64(nil), s1...)
	s2[2] = 2
	stampedEngine(t, carry, 2, s2)

	m, outcome := e1.pairMatrixTracked(dim, meas)
	if outcome != matrixRebuilt {
		t.Fatalf("late build on epoch 1 served with outcome %d, want rebuild", outcome)
	}
	assertScratchIdentical(t, "late epoch-1 build", e1, dim, meas, m)
}

// TestCarryConcurrentEpochsOutOfOrder: the newest of three epochs over
// growing universes builds a binding first, then the two older epochs
// build it concurrently. Each older build takes the newer, larger matrix
// (the shrink path of RebuildRows) and must be bit-identical to a scratch
// build over its own universe; neither may replace the newer matrix in
// the carry.
func TestCarryConcurrentEpochsOutOfOrder(t *testing.T) {
	const dim, meas = mining.Tags, mining.Diversity
	base := buildEngine(t)
	n := len(base.Groups)
	carry := NewCarry()
	epochs := make([]*Engine, 3)
	for v := range epochs {
		size := n - 2 + v
		e, err := NewEngine(base.Store, base.Groups[:size], base.Sigs[:size])
		if err != nil {
			t.Fatal(err)
		}
		// Groups beyond the first epoch's universe were activated later,
		// and the newest epoch saw group 0 change.
		stamps := make([]int64, size)
		for i := n - 2; i < size; i++ {
			stamps[i] = int64(i - n + 3)
		}
		if v == 2 {
			stamps[0] = 2
		}
		e.Cache().UseCarry(carry, int64(v), stamps)
		epochs[v] = e
	}
	m, _ := epochs[2].pairMatrixTracked(dim, meas)
	assertScratchIdentical(t, "newest epoch", epochs[2], dim, meas, m)

	type served struct {
		m       *mining.PairMatrix
		outcome matrixOutcome
	}
	results := make([]served, 2)
	var wg sync.WaitGroup
	for v := 0; v < 2; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			m, outcome := epochs[v].pairMatrixTracked(dim, meas)
			results[v] = served{m, outcome}
		}(v)
	}
	wg.Wait()
	for v, r := range results {
		if r.outcome != matrixRebuilt {
			t.Fatalf("epoch %d served with outcome %d, want rebuild", v, r.outcome)
		}
		assertScratchIdentical(t, fmt.Sprintf("epoch %d", v), epochs[v], dim, meas, r.m)
	}
	if got := carry.newest[pairKey{dim, meas}].version; got != 2 {
		t.Fatalf("carry holds epoch %d's matrix, want the newest (2)", got)
	}
}

// TestCarryDropsEvictedMatrices: a matrix evicted under the budget leaves
// the carry as well, and the eviction count lives in the carry, so a
// later epoch's cache reports it.
func TestCarryDropsEvictedMatrices(t *testing.T) {
	carry := NewCarry()
	e0 := stampedEngine(t, carry, 0, nil)
	n := len(e0.Groups)
	e0.SetMatrixBudget(int64(n*(n-1)/2) * 8) // room for one matrix
	e0.PairMatrix(mining.Tags, mining.Diversity)
	e0.PairMatrix(mining.Users, mining.Similarity) // evicts tags-diversity
	if _, ok := carry.newest[pairKey{mining.Tags, mining.Diversity}]; ok {
		t.Fatal("evicted matrix still carried")
	}
	e1 := stampedEngine(t, carry, 1, nil)
	if got := e1.MatrixStats().Evictions; got != 1 {
		t.Fatalf("next epoch reports %d evictions, want 1", got)
	}
	if _, outcome := e1.pairMatrixTracked(mining.Users, mining.Similarity); outcome != matrixRebuilt {
		t.Fatalf("resident binding outcome %d, want rebuild", outcome)
	}
}
