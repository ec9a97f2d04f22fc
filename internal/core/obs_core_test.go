package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/obs"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// buildWideEngine constructs an engine with n random groups over a small
// tuple universe — enough candidate volume to make the Exact enumeration
// take real time, which the cancellation tests need.
func buildWideEngine(t testing.TB, n int, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const universe = 64
	d := model.NewDataset(model.NewSchema("u"), model.NewSchema("g"))
	user, err := d.AddUser(map[string]string{"u": "x"})
	if err != nil {
		t.Fatal(err)
	}
	item, err := d.AddItem(map[string]string{"g": "y"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < universe; i++ {
		if err := d.AddAction(user, item, 0, "t"); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	gs := make([]*groups.Group, n)
	for i := range gs {
		bm := store.NewBitmap(universe)
		for id := 0; id < universe; id++ {
			if rng.Float64() < 0.3 {
				bm.Set(id)
			}
		}
		if bm.Count() == 0 {
			bm.Set(rng.Intn(universe))
		}
		gs[i] = &groups.Group{ID: i, Tuples: bm, Members: bm.Slice()}
	}
	sigs := signature.SummarizeAll(signature.FrequencyOfSize(s.Vocab.Size()), s, gs)
	e, err := NewEngine(s, gs, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// slowExactSpec enumerates ~65M candidates over 200 groups with pruning
// disabled — several seconds of DFS when left alone.
func slowExactSpec() ProblemSpec {
	return ProblemSpec{
		Name: "slow", KLo: 1, KHi: 4,
		Objectives: []Objective{{Dim: mining.Tags, Meas: mining.Diversity, Weight: 1}},
	}
}

func TestExactHonorsCancellation(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			e := buildWideEngine(t, 200, 7)
			e.PrewarmMatrices(slowExactSpec()) // keep the deadline out of the matrix build
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := exactMode(ctx, e, slowExactSpec(), ExactOptions{DisablePruning: true}, parallel)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want deadline exceeded", err)
			}
			if res.Found || len(res.Groups) != 0 {
				t.Fatalf("cancelled run returned a result: %+v", res)
			}
			// The full enumeration runs for seconds; a cancelled run must
			// stop near the deadline. The bound is loose to absorb slow CI
			// and the race detector.
			if elapsed > 5*time.Second {
				t.Fatalf("cancelled run kept working for %v", elapsed)
			}
		})
	}
}

func TestSolversRejectCancelledContext(t *testing.T) {
	e := buildEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, _ := PaperProblem(4, 2, 5, 0.5, 0.5) // diversity objective -> DV-FDP
	if _, err := e.DVFDP(ctx, spec, FDPOptions{Mode: Fold}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DVFDP err = %v, want canceled", err)
	}
	sim, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	if _, err := e.SMLSH(ctx, sim, LSHOptions{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SMLSH err = %v, want canceled", err)
	}
	if _, err := e.Exact(ctx, spec, ExactOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exact err = %v, want canceled", err)
	}
}

func TestResultStagesAndCounters(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(3, 2, 5, 0.1, 0.1) // similarity objective -> SM-LSH
	div, _ := PaperProblem(4, 2, 5, 0.5, 0.5)  // diversity objective -> DV-FDP

	ex, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Cold engine: the first run must have built matrices.
	if ex.MatrixBuilds == 0 {
		t.Fatalf("cold Exact run reports %d matrix builds", ex.MatrixBuilds)
	}
	if ex.StageWall(StageEnumerate) <= 0 {
		t.Fatalf("Exact stages missing enumerate: %+v", ex.Stages)
	}
	if ex.StageWall(StageMatrix) <= 0 {
		t.Fatalf("Exact stages missing matrix: %+v", ex.Stages)
	}

	// Same spec again: all bindings now come from the engine cache.
	ex2, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex2.MatrixBuilds != 0 || ex2.MatrixHits == 0 {
		t.Fatalf("warm Exact run: builds=%d hits=%d", ex2.MatrixBuilds, ex2.MatrixHits)
	}

	lr, err := e.SMLSH(context.Background(), spec, LSHOptions{Seed: 7, Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{StageMatrix, StageLSHBuild, StageBucketScan} {
		if lr.StageWall(want) <= 0 {
			t.Fatalf("SM-LSH stages missing %s: %+v", want, lr.Stages)
		}
	}

	dr, err := e.DVFDP(context.Background(), div, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{StageMatrix, StageGreedy, StageLocalSearch} {
		if dr.StageWall(want) <= 0 {
			t.Fatalf("DV-FDP stages missing %s: %+v", want, dr.Stages)
		}
	}
}

func TestSolveEmitsTraceSpans(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(4, 2, 5, 0.5, 0.5)
	root := obs.NewTrace("solve")
	ctx := obs.WithSpan(context.Background(), root)
	if _, err := e.Solve(ctx, spec, SolveOptions{FDP: FDPOptions{Mode: Fold}}); err != nil {
		t.Fatal(err)
	}
	root.End()
	tree := root.Tree()
	for _, want := range []string{StageMatrix, StageGreedy, StageLocalSearch} {
		if tree.Find(want) == nil {
			t.Fatalf("trace missing %s span: %+v", want, tree)
		}
	}
	// Stage spans and Result.Stages time the same windows; both must be
	// children of the root, not nested in each other.
	for _, c := range tree.Children {
		if len(c.Children) != 0 {
			t.Fatalf("stage span %s has unexpected children", c.Name)
		}
	}
}
