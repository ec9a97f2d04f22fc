package core

import (
	"context"

	"sync"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
)

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{0, 0, 1}, {3, 4, 0}, {3, -1, 0}, {250, 3, 2573000},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if got := binomial(10_000_000, 5); got != -1 {
		t.Errorf("huge binomial should overflow to -1, got %d", got)
	}
}

// shardedOf is the partial count the parallel-mode tests run ExactSharded
// with: fixed, so multi-partial coverage does not depend on the CPU count.
const shardedOf = 3

// exactMode runs Exact serially, or as shardedOf concurrent partials.
func exactMode(ctx context.Context, e *Engine, spec ProblemSpec, opts ExactOptions, sharded bool) (Result, error) {
	if sharded {
		return e.ExactSharded(ctx, spec, opts, shardedOf)
	}
	return e.Exact(ctx, spec, opts)
}

func TestExactParallelMatchesSerial(t *testing.T) {
	e := buildEngine(t)
	for id := 1; id <= 6; id++ {
		spec, _ := PaperProblem(id, 3, 5, 0.5, 0.5)
		serial, err := e.Exact(context.Background(), spec, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := exactMode(context.Background(), e, spec, ExactOptions{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Found != parallel.Found {
			t.Fatalf("problem %d: found mismatch %v vs %v", id, serial.Found, parallel.Found)
		}
		// Each parallel worker prunes against its own shard-local incumbent,
		// so the examined/pruned split differs from the serial run — but
		// both must account for the same full enumeration.
		if st, pt := serial.CandidatesExamined+serial.CandidatesPruned,
			parallel.CandidatesExamined+parallel.CandidatesPruned; st != pt {
			t.Fatalf("problem %d: candidates %d vs %d", id, st, pt)
		}
		if !serial.Found {
			continue
		}
		if serial.Objective != parallel.Objective {
			t.Fatalf("problem %d: objective %v vs %v", id, serial.Objective, parallel.Objective)
		}
		if len(serial.Groups) != len(parallel.Groups) {
			t.Fatalf("problem %d: group count %d vs %d",
				id, len(serial.Groups), len(parallel.Groups))
		}
	}
}

// TestCandidateCountSemantics is the regression pin for the
// examined/pruned split: with pruning disabled, CandidatesExamined matches
// the naive full enumeration (sum of binomials) and nothing is pruned; with
// pruning on (the default), pruned subtrees are reported separately, the
// two counts partition the same enumeration, and on the paper problems over
// this world the bound actually fires (pruned > 0). Serial and parallel
// agree on the partition total.
func TestCandidateCountSemantics(t *testing.T) {
	e := buildEngine(t)
	n := len(e.Groups)
	anyPruned := false
	for id := 1; id <= 6; id++ {
		spec, _ := PaperProblem(id, 3, 5, 0.5, 0.5)
		var total int64
		for k := spec.KLo; k <= spec.KHi && k <= n; k++ {
			total += binomial(n, k)
		}
		off, err := e.Exact(context.Background(), spec, ExactOptions{DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if off.CandidatesExamined != total {
			t.Fatalf("problem %d: pruning off examined %d, enumeration size %d",
				id, off.CandidatesExamined, total)
		}
		if off.CandidatesPruned != 0 {
			t.Fatalf("problem %d: pruning off reported %d pruned", id, off.CandidatesPruned)
		}
		for _, parallel := range []bool{false, true} {
			on, err := exactMode(context.Background(), e, spec, ExactOptions{}, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if got := on.CandidatesExamined + on.CandidatesPruned; got != total {
				t.Fatalf("problem %d parallel=%v: examined %d + pruned %d = %d, want %d",
					id, parallel, on.CandidatesExamined, on.CandidatesPruned, got, total)
			}
			if on.CandidatesPruned > 0 {
				anyPruned = true
			}
			if on.Found != off.Found || on.Objective != off.Objective {
				t.Fatalf("problem %d parallel=%v: pruning changed the result", id, parallel)
			}
		}
	}
	if !anyPruned {
		t.Fatal("bound never fired on any paper problem; pruning is inert")
	}
}

// TestMatrixAndBoundCacheRace hammers the engine's matrix + bound-vector
// cache from every direction at once — measure overrides, prewarms, and
// pruning solves that read the cached bound vectors — to prove the
// invalidation protocol is race-free (the CI -race job gives this test its
// teeth). Results are not asserted against each other (overrides change
// them mid-flight by design); every run must simply complete without a
// race, and the final state must serve the last override's values.
func TestMatrixAndBoundCacheRace(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 3, 5, 0.5, 0.5)
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				v := 0.25 + float64((wi+iter)%3)*0.25
				e.SetPairFunc(mining.Tags, mining.Similarity,
					func(g1, g2 *groups.Group) float64 { return v })
				e.PrewarmMatrices(spec)
			}
		}(wi)
	}
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				if _, err := exactMode(context.Background(), e, spec, ExactOptions{}, wi%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	e.SetPairFunc(mining.Tags, mining.Similarity,
		func(g1, g2 *groups.Group) float64 { return 0.5 })
	m := e.PairMatrix(mining.Tags, mining.Similarity)
	if got := m.At(0, 1); got != 0.5 {
		t.Fatalf("post-race matrix serves %v, want the last override's 0.5", got)
	}
	if got := m.MaxRows()[0]; got != 0.5 {
		t.Fatalf("post-race bound vector serves %v, want 0.5", got)
	}
	res, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := e.Exact(context.Background(), spec, ExactOptions{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != off.Found || res.Objective != off.Objective {
		t.Fatal("post-race pruning run diverges from the oracle")
	}
}

func TestExactParallelDeterministic(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 3, 5, 0.5, 0.5)
	var firstIDs []int
	for run := 0; run < 3; run++ {
		res, err := exactMode(context.Background(), e, spec, ExactOptions{}, true)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(res.Groups))
		for i, g := range res.Groups {
			ids[i] = g.ID
		}
		if run == 0 {
			firstIDs = ids
			continue
		}
		if len(ids) != len(firstIDs) {
			t.Fatalf("run %d returned different set size", run)
		}
		for i := range ids {
			if ids[i] != firstIDs[i] {
				t.Fatalf("run %d returned different groups %v vs %v", run, ids, firstIDs)
			}
		}
	}
}
