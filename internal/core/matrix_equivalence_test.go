package core

import (
	"context"

	"fmt"
	"math/rand"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// naiveExact re-implements the pre-matrix Exact baseline verbatim: full
// enumeration with every candidate scored from scratch through the naive
// ObjectiveScore / ConstraintsSatisfied pair. The production Exact must
// reproduce its decisions byte for byte.
func naiveExact(e *Engine, spec ProblemSpec) (bool, []*groups.Group, float64, int64) {
	n := len(e.Groups)
	var (
		found     bool
		best      []*groups.Group
		bestScore float64
		examined  int64
	)
	var set []*groups.Group
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == 0 {
			examined++
			if !e.ConstraintsSatisfied(set, spec) {
				return
			}
			if score := e.ObjectiveScore(set, spec); !found || score > bestScore {
				bestScore = score
				best = append(best[:0:0], set...)
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
	return found, best, bestScore, examined
}

func sameGroupIDs(a, b []*groups.Group) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// TestExactMatchesNaiveReference sweeps every solvable role assignment plus
// the six paper problems (under several support floors and size bounds)
// and demands that the incremental matrix-backed Exact — serial and
// parallel — reproduces the naive enumeration exactly: same feasibility,
// same argmax set, bit-identical objective, same candidate count.
func TestExactMatchesNaiveReference(t *testing.T) {
	e := buildEngine(t)
	var specs []ProblemSpec
	for id := 1; id <= 6; id++ {
		for _, p := range []int{0, 5, 12} {
			spec, err := PaperProblem(id, 3, p, 0.5, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
		}
	}
	for _, spec := range AllRoles() {
		spec.MinSupport = 8
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		wantFound, wantBest, wantScore, wantExamined := naiveExact(e, spec)
		for _, parallel := range []bool{false, true} {
			for _, disablePruning := range []bool{false, true} {
				label := fmt.Sprintf("%s parallel=%v pruning=%v", spec.Name, parallel, !disablePruning)
				res, err := exactMode(context.Background(), e, spec, ExactOptions{DisablePruning: disablePruning}, parallel)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Found != wantFound {
					t.Fatalf("%s: found %v, naive %v", label, res.Found, wantFound)
				}
				if disablePruning {
					// The oracle path enumerates everything: examined must
					// match the naive count exactly, nothing pruned.
					if res.CandidatesExamined != wantExamined {
						t.Fatalf("%s: examined %d, naive %d", label, res.CandidatesExamined, wantExamined)
					}
					if res.CandidatesPruned != 0 {
						t.Fatalf("%s: pruned %d with pruning disabled", label, res.CandidatesPruned)
					}
				} else if got := res.CandidatesExamined + res.CandidatesPruned; got != wantExamined {
					// Pruning splits the same enumeration into examined and
					// pruned; the split must account for every candidate.
					t.Fatalf("%s: examined %d + pruned %d = %d, naive %d",
						label, res.CandidatesExamined, res.CandidatesPruned, got, wantExamined)
				}
				if !wantFound {
					continue
				}
				if !sameGroupIDs(res.Groups, wantBest) {
					t.Fatalf("%s: argmax %v, naive %v",
						label, res.Describe(e.Store), groupIDs(wantBest))
				}
				if res.Objective != wantScore {
					t.Fatalf("%s: objective %v, naive %v", label, res.Objective, wantScore)
				}
			}
		}
	}
}

// exactModes runs spec through every way Exact can be driven — serial,
// DisablePruning, and as two or three concurrent ExactPartial shards
// merged by MergePartials (ExactSharded) — and demands the naive
// enumeration's set and objective, with the candidate accounting
// naiveExact's examined count implies.
func exactModes(t *testing.T, e *Engine, spec ProblemSpec, label string) {
	t.Helper()
	ctx := context.Background()
	wantFound, wantBest, wantScore, wantExamined := naiveExact(e, spec)
	modes := []struct {
		name string
		run  func() (Result, error)
	}{
		{"serial", func() (Result, error) { return e.Exact(ctx, spec, ExactOptions{}) }},
		{"sharded-2", func() (Result, error) { return e.ExactSharded(ctx, spec, ExactOptions{}, 2) }},
		{"no-pruning", func() (Result, error) { return e.Exact(ctx, spec, ExactOptions{DisablePruning: true}) }},
		{"sharded-3", func() (Result, error) { return e.ExactSharded(ctx, spec, ExactOptions{}, 3) }},
	}
	for _, m := range modes {
		res, err := m.run()
		if err != nil {
			t.Fatalf("%s %s: %v", label, m.name, err)
		}
		if res.Found != wantFound || !sameGroupIDs(res.Groups, wantBest) || res.Objective != wantScore {
			t.Fatalf("%s %s: found %v %v objective %v, naive found %v %v objective %v",
				label, m.name, res.Found, groupIDs(res.Groups), res.Objective, wantFound, groupIDs(wantBest), wantScore)
		}
		if got := res.CandidatesExamined + res.CandidatesPruned; got != wantExamined {
			t.Fatalf("%s %s: examined %d + pruned %d, naive examined %d",
				label, m.name, res.CandidatesExamined, res.CandidatesPruned, wantExamined)
		}
		if m.name == "no-pruning" && res.CandidatesPruned != 0 {
			t.Fatalf("%s %s: pruned %d with pruning disabled", label, m.name, res.CandidatesPruned)
		}
	}
}

// windowEngine builds an engine over buildEngine's store whose groups
// overlap: group i covers the tuple window [10i, 10i+30). A set's support
// is then often well below its size-sum, so the cheap size-sum bound
// passes leaves that the exact union rejects.
func windowEngine(t *testing.T) *Engine {
	t.Helper()
	s := buildEngine(t).Store
	var gs []*groups.Group
	for lo := 0; lo+30 <= s.Len() && len(gs) < 10; lo += 10 {
		bm := store.NewBitmap(s.Len())
		var members []int
		for id := lo; id < lo+30; id++ {
			bm.Set(id)
			members = append(members, id)
		}
		gs = append(gs, &groups.Group{ID: len(gs), Tuples: bm, Members: members})
	}
	e, err := NewEngine(s, gs, signature.SummarizeAll(signature.NewFrequency(s), s, gs))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExactLeafScanTiesAndSupportOrder covers the two decisions the last
// DFS level's scan takes out of the naive order — scoring a leaf before
// its support union, and running the union only for a leaf that would
// replace the incumbent — against the naive enumeration in every Exact
// mode, on overlapping groups (see windowEngine).
//
// All-tie matrices: with every pair function constant, every candidate of
// a size scores the same, so the first feasible set in enumeration order
// must win; the support floors reject the first candidates through the
// union, not the size-sum. Support-rejected optimum: with the objective
// scoring tuple overlap, the best leaves are the most overlapping pairs,
// and a floor one above their support still passes their size-sum, so
// they reach the union and fail it.
func TestExactLeafScanTiesAndSupportOrder(t *testing.T) {
	t.Run("all-ties", func(t *testing.T) {
		e := windowEngine(t)
		for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
			for _, meas := range []mining.Measure{mining.Similarity, mining.Diversity} {
				e.SetPairFunc(dim, meas, func(g1, g2 *groups.Group) float64 { return 0.5 })
			}
		}
		specs := AllRoles()
		for id := 1; id <= 6; id++ {
			spec, err := PaperProblem(id, 3, 0, 0.5, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			spec.KLo = 1
			specs = append(specs, spec)
		}
		unionRejected := false
		for _, spec := range specs {
			for _, floor := range []int{0, 50, 60} {
				spec.MinSupport = floor
				found, best, _, _ := naiveExact(e, spec)
				// The first candidate of the winner's size is {0, 1, ...};
				// winning past it means the union rejected it.
				if found && len(best) >= 2 && best[1].ID != 1 {
					unionRejected = true
				}
				exactModes(t, e, spec, fmt.Sprintf("%s support=%d", spec.Name, floor))
			}
		}
		if !unionRejected {
			t.Fatal("every tie winner was its size's first candidate; the floors exercise nothing")
		}
	})

	t.Run("support-rejected-optimum", func(t *testing.T) {
		e := windowEngine(t)
		overlap := func(g1, g2 *groups.Group) float64 {
			shared := g1.Size() + g2.Size() - g1.Tuples.OrCount(g2.Tuples)
			return float64(shared) / 30
		}
		e.SetPairFunc(mining.Tags, mining.Similarity, overlap)
		e.SetPairFunc(mining.Users, mining.Similarity, overlap)
		obj := []Objective{{Dim: mining.Tags, Meas: mining.Similarity, Weight: 1}}
		specs := []ProblemSpec{
			{Name: "overlap", KLo: 1, KHi: 3, Objectives: obj},
			{Name: "overlap-constrained", KLo: 2, KHi: 3, Objectives: obj,
				Constraints: []Constraint{{Dim: mining.Users, Meas: mining.Similarity, Threshold: 0.3}}},
		}
		for _, spec := range specs {
			found, best, _, _ := naiveExact(e, spec)
			if !found {
				t.Fatalf("%s: no unconstrained optimum", spec.Name)
			}
			sizeSum := 0
			for _, g := range best {
				sizeSum += g.Size()
			}
			spec.MinSupport = groups.Support(best) + 1
			if spec.MinSupport > sizeSum {
				t.Fatalf("%s: optimum %v has disjoint groups; the size-sum bound would reject it",
					spec.Name, groupIDs(best))
			}
			exactModes(t, e, spec, fmt.Sprintf("%s support=%d", spec.Name, spec.MinSupport))
		}
	})
}

func groupIDs(gs []*groups.Group) []int {
	out := make([]int, len(gs))
	for i, g := range gs {
		out[i] = g.ID
	}
	return out
}

// TestScorerMatchesNaive checks the matrix scorer against the naive
// ObjectiveScore / ConstraintsSatisfied on randomized candidate sets of
// every size the engine can produce, including empty and singleton sets.
func TestScorerMatchesNaive(t *testing.T) {
	e := buildEngine(t)
	rng := rand.New(rand.NewSource(17))
	specs := AllRoles()
	for si, spec := range specs {
		spec.MinSupport = []int{0, 5, 10, 25}[si%4]
		spec.KLo = 1 + si%2
		spec.KHi = 2 + si%3
		sc := e.scorer(spec)
		for trial := 0; trial < 20; trial++ {
			k := rng.Intn(5)
			perm := rng.Perm(len(e.Groups))[:k]
			set := make([]*groups.Group, k)
			for i, id := range perm {
				set[i] = e.Groups[id]
			}
			ids := sc.idsOf(set)
			if got, want := sc.objective(ids), e.ObjectiveScore(set, spec); got != want {
				t.Fatalf("spec %d trial %d: objective %v, naive %v", si, trial, got, want)
			}
			if got, want := sc.feasible(ids), e.ConstraintsSatisfied(set, spec); got != want {
				t.Fatalf("spec %d trial %d (k=%d): feasible %v, naive %v", si, trial, k, got, want)
			}
			if got, want := sc.support(ids), groups.Support(set); got != want {
				t.Fatalf("spec %d trial %d: support %d, naive %d", si, trial, got, want)
			}
		}
	}
}

// TestSetPairFuncInvalidatesMatrix proves an overridden measure is not
// served stale values from a previously built matrix.
func TestSetPairFuncInvalidatesMatrix(t *testing.T) {
	e := buildEngine(t)
	m := e.PairMatrix(mining.Users, mining.Similarity)
	if m2 := e.PairMatrix(mining.Users, mining.Similarity); m2 != m {
		t.Fatal("second PairMatrix call must return the cached matrix")
	}
	e.SetPairFunc(mining.Users, mining.Similarity,
		func(g1, g2 *groups.Group) float64 { return 0.25 })
	m3 := e.PairMatrix(mining.Users, mining.Similarity)
	if m3 == m {
		t.Fatal("SetPairFunc must invalidate the cached matrix")
	}
	if got := m3.At(0, 1); got != 0.25 {
		t.Fatalf("rebuilt matrix serves %v, want 0.25", got)
	}
}

// TestExactCandidateLoopAllocationFree pins the tentpole claim: after the
// matrices are warm, a full serial Exact run allocates only its fixed
// setup (worker stacks, result bookkeeping) — nothing per candidate. The
// world yields ~700 candidates per run, so a sub-candidate-count ceiling
// proves the loop itself is allocation-free.
func TestExactCandidateLoopAllocationFree(t *testing.T) {
	e := buildEngine(t)
	spec, err := PaperProblem(1, 3, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.PrewarmMatrices(spec)
	res, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if total := res.CandidatesExamined + res.CandidatesPruned; total < 500 {
		t.Fatalf("world too small to prove anything: %d candidates", total)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := e.Exact(context.Background(), spec, ExactOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 60 {
		t.Fatalf("Exact allocated %v objects per run over %d candidates; the candidate loop is leaking allocations",
			avg, res.CandidatesExamined)
	}
}
