package core

import (
	"context"
	"fmt"
	"testing"

	"tagdm/internal/mining"
)

// These tests target the DV-FDP refinements layered on the paper's
// Algorithm 2: the support-feasibility gate, the floor sweep, anchored
// starts, and the swap local search.

func TestDVFDPLocalSearchImproves(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(6, 3, 5, 0.5, 0.5)
	with, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	without, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold, DisableLocalSearch: true})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Found {
		t.Fatal("local-search run found nothing")
	}
	if without.Found && with.Objective < without.Objective-1e-9 {
		t.Fatalf("local search degraded quality: %v -> %v", without.Objective, with.Objective)
	}
}

func TestDVFDPSupportGate(t *testing.T) {
	e := buildEngine(t)
	// Groups have 5 tuples each; k=2 means max support 10. A floor of 10
	// forces the selection to honor it; 11 is infeasible.
	feasible, _ := PaperProblem(6, 2, 10, 0.3, 0.3)
	res, err := e.DVFDP(context.Background(), feasible, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("feasible support rejected")
	}
	if res.Support < 10 {
		t.Fatalf("support = %d", res.Support)
	}
	infeasible, _ := PaperProblem(6, 2, 11, 0.3, 0.3)
	res2, err := e.DVFDP(context.Background(), infeasible, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Found {
		t.Fatal("infeasible support satisfied")
	}
}

func TestLocalImproveKeepsFeasibility(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(4, 3, 5, 0.5, 0.5)
	res, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Skip("no feasible start in this world")
	}
	improved, _, _ := e.localImprove(context.Background(), res.Groups, spec, e.scorer(spec))
	if !e.ConstraintsSatisfied(improved, spec) {
		t.Fatal("local search returned infeasible set")
	}
	if e.ObjectiveScore(improved, spec) < res.Objective-1e-9 {
		t.Fatal("local search reduced objective")
	}
}

func TestLocalImproveIdempotentOnOptimum(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(6, 2, 5, 0.5, 0.5)
	exact, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Found {
		t.Skip("no exact optimum")
	}
	improved, _, _ := e.localImprove(context.Background(), exact.Groups, spec, e.scorer(spec))
	got := e.ObjectiveScore(improved, spec)
	if got > exact.Objective+1e-9 {
		t.Fatalf("local search beat the exact optimum: %v > %v", got, exact.Objective)
	}
	if got < exact.Objective-1e-9 {
		t.Fatalf("local search degraded the optimum: %v < %v", got, exact.Objective)
	}
}

func TestAnchoredStartFeasiblePartials(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(6, 3, 5, 0.5, 0.5)
	div := e.PairFunc(mining.Tags, mining.Diversity)
	dist := func(i, j int) float64 { return div(e.Groups[i], e.Groups[j]) }
	set := e.anchoredStart(e.Groups[0], spec, e.scorer(spec), dist, 3)
	if set == nil {
		t.Skip("no anchored completion in this world")
	}
	if len(set) != 3 {
		t.Fatalf("anchored start size %d", len(set))
	}
	if set[0] != e.Groups[0] {
		t.Fatal("anchor not first")
	}
	seen := map[int]bool{}
	for _, g := range set {
		if seen[g.ID] {
			t.Fatal("duplicate group in anchored start")
		}
		seen[g.ID] = true
	}
	for _, c := range spec.Constraints {
		if e.miningFunc(c.Dim, c.Meas).Eval(set) < c.Threshold {
			t.Fatalf("anchored start violates %v", c)
		}
	}
}

func TestDVFDPFiStaysPurePostFilter(t *testing.T) {
	// In Filter mode the greedy must not consult constraints: with an
	// impossible pairwise constraint, Fold can only return null after
	// failing to seed, while Filter still runs the unconstrained greedy
	// and then nulls at the post-check. Both must be null; neither may
	// error.
	e := buildEngine(t)
	spec := ProblemSpec{
		KLo: 1, KHi: 2,
		Constraints: []Constraint{{Dim: mining.Users, Meas: mining.Similarity, Threshold: 0.99}},
		Objectives:  []Objective{{Dim: mining.Tags, Meas: mining.Diversity, Weight: 1}},
		Name:        "impossible",
	}
	for _, mode := range []ConstraintMode{Filter, Fold} {
		res, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		// The engine world does contain identical user descriptions
		// (same profile, different items), so threshold 0.99 is actually
		// satisfiable there; just require feasibility when found.
		if res.Found && !e.ConstraintsSatisfied(res.Groups, spec) {
			t.Fatalf("mode %v returned infeasible set", mode)
		}
	}
}

func TestDVFDPKOne(t *testing.T) {
	e := buildEngine(t)
	spec := ProblemSpec{
		KLo: 1, KHi: 1,
		Objectives: []Objective{{Dim: mining.Tags, Meas: mining.Diversity, Weight: 1}},
		Name:       "singleton",
	}
	res, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Groups) != 1 {
		t.Fatalf("singleton run: found=%v groups=%d", res.Found, len(res.Groups))
	}
}

// TestDVFDPKOneMeetsSupport pins Fold mode's singleton pass: with KHi = 1
// it must return the first group in ID order that clears the support
// floor, which is Exact's answer, not group 0 regardless of its size.
// sizeSpreadEngine's group 0 has 3 tuples and group 1 has 12.
func TestDVFDPKOneMeetsSupport(t *testing.T) {
	e := sizeSpreadEngine(t)
	ctx := context.Background()
	for _, obj := range []Objective{
		{Dim: mining.Tags, Meas: mining.Diversity, Weight: 1},
		{Dim: mining.Users, Meas: mining.Similarity, Weight: 1},
	} {
		for _, floor := range []int{0, 10, 13, 15} {
			spec := ProblemSpec{KLo: 1, KHi: 1, MinSupport: floor, Objectives: []Objective{obj}, Name: "singleton"}
			want, err := e.Exact(ctx, spec, ExactOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.DVFDP(ctx, spec, FDPOptions{Mode: Fold})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v support=%d", obj.Meas, floor)
			if got.Found != want.Found || !sameGroupIDs(got.Groups, want.Groups) ||
				got.Objective != want.Objective || got.Support != want.Support {
				t.Fatalf("%s: DV-FDP-Fo found %v %v objective %v support %d, Exact found %v %v objective %v support %d",
					label, got.Found, groupIDs(got.Groups), got.Objective, got.Support,
					want.Found, groupIDs(want.Groups), want.Objective, want.Support)
			}
		}
	}
	spec := ProblemSpec{KLo: 1, KHi: 1, MinSupport: 10, Name: "singleton",
		Objectives: []Objective{{Dim: mining.Tags, Meas: mining.Diversity, Weight: 1}}}
	res, err := e.DVFDP(ctx, spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Groups) != 1 || res.Groups[0].ID != 1 || res.Support != 12 {
		t.Fatalf("support 10: found %v groups %v support %d, want group 1 with support 12",
			res.Found, groupIDs(res.Groups), res.Support)
	}
}

func TestDVFDPEmptyEngine(t *testing.T) {
	e := buildEngine(t)
	empty := &Engine{Store: e.Store, Groups: nil, Sigs: nil, cache: newMatrixCache()}
	spec, _ := PaperProblem(6, 2, 0, 0.5, 0.5)
	res, err := empty.DVFDP(context.Background(), spec, FDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("found groups in empty engine")
	}
}

func TestDVFDPCandidatesCounted(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(6, 3, 5, 0.5, 0.5)
	res, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found && res.CandidatesExamined == 0 {
		t.Fatal("no work recorded")
	}
}
