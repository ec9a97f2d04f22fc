package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/signature"
	"tagdm/internal/store"
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

// sizeSpreadEngine builds an engine over buildEngine's store whose groups
// are disjoint runs of tuples with deliberately unsorted sizes: a set's
// support is exactly its size-sum, and the largest group after a given one
// is often not the next one.
func sizeSpreadEngine(t *testing.T) *Engine {
	t.Helper()
	s := buildEngine(t).Store
	var gs []*groups.Group
	lo := 0
	for _, size := range []int{3, 12, 2, 9, 1, 14, 4, 2, 11, 5} {
		bm := store.NewBitmap(s.Len())
		var members []int
		for id := lo; id < lo+size; id++ {
			bm.Set(id)
			members = append(members, id)
		}
		lo += size
		gs = append(gs, &groups.Group{ID: len(gs), Tuples: bm, Members: members})
	}
	e, err := NewEngine(s, gs, signature.SummarizeAll(signature.NewFrequency(s), s, gs))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// supportCutLeaves counts, leaf by leaf, the k-sets the support cut must
// prune: those with a proper prefix ids[:d] whose size-sum plus k-d times
// the largest size after ids[d-1] is below floor. byDepth[d] counts the
// leaves whose shallowest such prefix has depth d.
func supportCutLeaves(e *Engine, k, floor int) (cut int64, byDepth []int64) {
	n := len(e.Groups)
	byDepth = make([]int64, k)
	maxAfter := func(l int) int {
		m := 0
		for j := l + 1; j < n; j++ {
			m = max(m, e.Groups[j].Size())
		}
		return m
	}
	ids := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(ids) == k {
			sum := 0
			for d := 1; d < k; d++ {
				sum += e.Groups[ids[d-1]].Size()
				if sum+(k-d)*maxAfter(ids[d-1]) < floor {
					cut++
					byDepth[d]++
					return
				}
			}
			return
		}
		for i := start; i < n; i++ {
			ids = append(ids, i)
			rec(i + 1)
			ids = ids[:len(ids)-1]
		}
	}
	rec(0)
	return cut, byDepth
}

// TestExactSupportCut checks the support feasibility cut on
// sizeSpreadEngine against the DisablePruning oracle, serially and as two
// and three shards: Found, the group IDs, the objective's bits and Support
// must match, examined + pruned must cover the enumeration, and the cut
// must examine fewer candidates than the oracle. The fixture's floors make
// the cut fire at depth 1 for k=2 and at depth 2 for k=3. Under tying pair
// scores the objective cut never fires, so the pruned count must equal the
// leaves supportCutLeaves finds. The oracle's winners sit under prefixes
// whose next group is small but a later one is large: bounding the future
// members by Groups[last+1] instead of the suffix maximum would cut them.
func TestExactSupportCut(t *testing.T) {
	ctx := context.Background()
	e := sizeSpreadEngine(t)
	n := len(e.Groups)
	obj := []Objective{{Dim: mining.Tags, Meas: mining.Similarity, Weight: 1}}
	scores := []struct {
		name string
		f    mining.PairFunc
	}{
		{"ties", func(g1, g2 *groups.Group) float64 { return 0.5 }},
		{"varied", func(g1, g2 *groups.Group) float64 {
			return float64((g1.ID*g2.ID+g1.ID+g2.ID)%17) / 17
		}},
	}
	cases := []struct{ k, floor, cutDepth int }{{2, 20, 1}, {3, 30, 2}}
	for _, sc := range scores {
		e.SetPairFunc(mining.Tags, mining.Similarity, sc.f)
		for _, c := range cases {
			spec := ProblemSpec{Name: "support-cut", KLo: c.k, KHi: c.k, MinSupport: c.floor, Objectives: obj}
			label := fmt.Sprintf("%s k=%d support=%d", sc.name, c.k, c.floor)
			oracle, err := e.Exact(ctx, spec, ExactOptions{DisablePruning: true})
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.Found {
				t.Fatalf("%s: oracle found no feasible set", label)
			}
			if !nextGroupCuts(e, oracle.Groups, c.floor) {
				t.Fatalf("%s: a Groups[last+1] bound would keep the oracle's %v; the fixture tests nothing",
					label, groupIDs(oracle.Groups))
			}
			cut, byDepth := supportCutLeaves(e, c.k, c.floor)
			if byDepth[c.cutDepth] == 0 {
				t.Fatalf("%s: the support cut never fires at depth %d (by depth %v)", label, c.cutDepth, byDepth)
			}
			modes := []struct {
				name string
				run  func() (Result, error)
			}{
				{"serial", func() (Result, error) { return e.Exact(ctx, spec, ExactOptions{}) }},
				{"sharded-2", func() (Result, error) { return e.ExactSharded(ctx, spec, ExactOptions{}, 2) }},
				{"sharded-3", func() (Result, error) { return e.ExactSharded(ctx, spec, ExactOptions{}, 3) }},
			}
			for _, m := range modes {
				res, err := m.run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Found != oracle.Found || !slices.Equal(groupIDs(res.Groups), groupIDs(oracle.Groups)) ||
					math.Float64bits(res.Objective) != math.Float64bits(oracle.Objective) || res.Support != oracle.Support {
					t.Fatalf("%s %s: found %v %v objective %v support %d, oracle found %v %v objective %v support %d",
						label, m.name, res.Found, groupIDs(res.Groups), res.Objective, res.Support,
						oracle.Found, groupIDs(oracle.Groups), oracle.Objective, oracle.Support)
				}
				if got, want := res.CandidatesExamined+res.CandidatesPruned, binomial(n, c.k); got != want {
					t.Fatalf("%s %s: examined %d + pruned %d = %d, want %d",
						label, m.name, res.CandidatesExamined, res.CandidatesPruned, got, want)
				}
				if res.CandidatesExamined >= oracle.CandidatesExamined {
					t.Fatalf("%s %s: examined %d, oracle %d", label, m.name, res.CandidatesExamined, oracle.CandidatesExamined)
				}
				if sc.name == "ties" && res.CandidatesPruned != cut {
					t.Fatalf("%s %s: pruned %d, support cut covers %d leaves", label, m.name, res.CandidatesPruned, cut)
				}
			}
		}
	}
}

// nextGroupCuts reports whether bounding each future member of best's
// prefixes by the next group's size, rather than the largest later one,
// would wrongly declare best infeasible.
func nextGroupCuts(e *Engine, best []*groups.Group, floor int) bool {
	k, sum := len(best), 0
	for d := 1; d < k; d++ {
		last := best[d-1].ID
		sum += best[d-1].Size()
		if last+1 < len(e.Groups) && sum+(k-d)*e.Groups[last+1].Size() < floor {
			return true
		}
	}
	return false
}
