package experiments

import (
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/groups"
)

// naiveExactRef is the pre-matrix Exact baseline: full enumeration with
// every candidate rescored from scratch through the engine's naive
// ObjectiveScore / ConstraintsSatisfied. It anchors the acceptance
// criterion that the incremental matrix path changes nothing but speed on
// the experiments corpus.
func naiveExactRef(e *core.Engine, spec core.ProblemSpec) (bool, []int, float64) {
	n := len(e.Groups)
	var (
		found     bool
		best      []int
		bestScore float64
	)
	var set []*groups.Group
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == 0 {
			if !e.ConstraintsSatisfied(set, spec) {
				return
			}
			if score := e.ObjectiveScore(set, spec); !found || score > bestScore {
				bestScore = score
				best = best[:0]
				for _, g := range set {
					best = append(best, g.ID)
				}
				found = true
			}
			return
		}
		for i := start; i <= n-k; i++ {
			set = append(set, e.Groups[i])
			rec(i+1, k-1)
			set = set[:len(set)-1]
		}
	}
	for k := spec.KLo; k <= spec.KHi && k <= n; k++ {
		rec(0, k)
	}
	return found, best, bestScore
}

// TestExactEquivalenceOnCorpus runs all six paper problems on the
// experiments corpus (the FastConfig ExactEngine the figures and
// benchmarks use) and demands byte-identical results from the serial and
// parallel Exact against the naive reference: same feasibility, same
// argmax group IDs, bit-for-bit equal objective and support.
func TestExactEquivalenceOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pipeline is slow under -short")
	}
	st := setup(t)
	ex, err := st.ExactEngine()
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams()
	for id := 1; id <= 6; id++ {
		spec, err := core.PaperProblem(id, p.K, p.support(st), p.Q, p.R)
		if err != nil {
			t.Fatal(err)
		}
		wantFound, wantIDs, wantScore := naiveExactRef(ex, spec)
		for _, parallel := range []bool{false, true} {
			res, err := exactMode(ex, spec, core.ExactOptions{}, parallel)
			if err != nil {
				t.Fatalf("problem %d parallel=%v: %v", id, parallel, err)
			}
			if res.Found != wantFound {
				t.Fatalf("problem %d parallel=%v: found %v, naive %v",
					id, parallel, res.Found, wantFound)
			}
			if !wantFound {
				continue
			}
			gotIDs := make([]int, len(res.Groups))
			for i, g := range res.Groups {
				gotIDs[i] = g.ID
			}
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("problem %d parallel=%v: set size %d, naive %d",
					id, parallel, len(gotIDs), len(wantIDs))
			}
			for i := range gotIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("problem %d parallel=%v: argmax %v, naive %v",
						id, parallel, gotIDs, wantIDs)
				}
			}
			if res.Objective != wantScore {
				t.Fatalf("problem %d parallel=%v: objective %v, naive %v",
					id, parallel, res.Objective, wantScore)
			}
			wantSet := make([]*groups.Group, len(wantIDs))
			for i, gid := range wantIDs {
				wantSet[i] = ex.Groups[gid]
			}
			if want := groups.Support(wantSet); res.Support != want {
				t.Fatalf("problem %d parallel=%v: support %d, naive %d",
					id, parallel, res.Support, want)
			}
		}
	}
}
