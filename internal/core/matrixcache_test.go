package core

import (
	"context"
	"math"
	"testing"
	"time"

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

// TestAttachCarryRebuildsBitIdentical is the core-level carry contract: a
// next-epoch engine over the same groups, attached to the previous cache
// with an empty dirty set, must serve every binding via a rebuild (not a
// scratch build) that is bit-identical to the previous epoch's matrix.
func TestAttachCarryRebuildsBitIdentical(t *testing.T) {
	prev := buildEngine(t)
	prevMat := prev.PairMatrix(mining.Tags, mining.Diversity)

	next := buildEngine(t)
	next.Cache().AttachCarry(prev.Cache(), make([]bool, len(prev.Groups)))
	m, outcome := next.pairMatrixTracked(mining.Tags, mining.Diversity)
	if outcome != matrixRebuilt {
		t.Fatalf("carried binding served with outcome %d, want rebuild", outcome)
	}
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(prevMat.At(i, j)) {
				t.Fatalf("carried matrix differs at (%d,%d)", i, j)
			}
		}
	}
	// A binding the previous epoch never built falls back to a scratch
	// build.
	if _, outcome := next.pairMatrixTracked(mining.Users, mining.Similarity); outcome != matrixBuilt {
		t.Fatalf("uncarried binding outcome %d, want scratch build", outcome)
	}
	// Overrides poison the carry: the carried matrix embodies the default
	// measure, so an overridden binding must build from scratch.
	third := buildEngine(t)
	third.Cache().AttachCarry(next.Cache(), make([]bool, len(next.Groups)))
	third.SetPairFunc(mining.Tags, mining.Diversity, func(g1, g2 *groups.Group) float64 { return 1 })
	if _, outcome := third.pairMatrixTracked(mining.Tags, mining.Diversity); outcome != matrixBuilt {
		t.Fatalf("overridden binding outcome %d, want scratch build", outcome)
	}
}

// TestAttachCarryFoldsThroughQuietEpoch: an epoch that published and was
// replaced before any solve ran (no matrices built) must not break the
// carry chain — the new cache folds through to the grandparent with the
// dirty sets merged.
func TestAttachCarryFoldsThroughQuietEpoch(t *testing.T) {
	grand := buildEngine(t)
	grand.PairMatrix(mining.Tags, mining.Diversity)

	quiet := buildEngine(t)
	quiet.Cache().AttachCarry(grand.Cache(), make([]bool, len(grand.Groups)))

	next := buildEngine(t)
	next.Cache().AttachCarry(quiet.Cache(), make([]bool, len(quiet.Groups)))
	if _, outcome := next.pairMatrixTracked(mining.Tags, mining.Diversity); outcome != matrixRebuilt {
		t.Fatalf("carry did not fold through the quiet epoch: outcome %d", outcome)
	}
}

// TestCarryWaitsForParentBuild: a new epoch whose previous epoch is still
// building a binding must wait for that build and rebuild only its dirty
// rows from the result, not build from scratch beside it. The parent's
// build is held open while the child starts; the child must report a
// rebuild, and its matrix must be bit-identical to a scratch build.
func TestCarryWaitsForParentBuild(t *testing.T) {
	const dim, meas = mining.Tags, mining.Diversity
	prev := buildEngine(t)
	entered, release := make(chan struct{}), make(chan struct{})
	parentDone := make(chan struct{})
	go func() {
		defer close(parentDone)
		prev.cache.matrix(pairKey{dim, meas}, func(*mining.PairMatrix, []bool) *mining.PairMatrix {
			close(entered)
			<-release
			return mining.NewPairMatrix(prev.Groups, prev.PairFunc(dim, meas), 0)
		})
	}()
	<-entered

	next := buildEngine(t)
	dirty := make([]bool, len(prev.Groups))
	dirty[1] = true
	next.Cache().AttachCarry(prev.Cache(), dirty)
	type served struct {
		m       *mining.PairMatrix
		outcome matrixOutcome
	}
	child := make(chan served, 1)
	go func() {
		m, outcome := next.pairMatrixTracked(dim, meas)
		child <- served{m, outcome}
	}()
	// Give the child time to reach the parent's in-flight build; without
	// the wait it would finish a scratch build here.
	time.Sleep(20 * time.Millisecond)
	select {
	case got := <-child:
		t.Fatalf("child served (outcome %d) while the parent's build was held", got.outcome)
	default:
	}
	close(release)
	<-parentDone
	got := <-child
	if got.outcome != matrixRebuilt {
		t.Fatalf("child outcome %d, want rebuild from the parent's build", got.outcome)
	}
	want := mining.NewPairMatrix(next.Groups, next.PairFunc(dim, meas), 0)
	for i := 0; i < want.Len(); i++ {
		for j := i + 1; j < want.Len(); j++ {
			if math.Float64bits(got.m.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("rebuilt matrix differs from scratch at (%d,%d)", i, j)
			}
		}
	}
}
