package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tagdm/internal/fdp"
	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/signature"
	"tagdm/internal/store"
	"tagdm/internal/vec"
)

// quantizedEngine builds an engine of n groups with spread-out sizes over
// buildWideEngine's 64-tuple store, and overrides all six pair bindings
// with symmetric scores drawn from a few levels in [-0.5, 1], so that
// many pairs tie on every objective and every constraint, plus a few NaN
// scores.
func quantizedEngine(t *testing.T, n int, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := buildWideEngine(t, 1, seed).Store
	gs := make([]*groups.Group, n)
	for i := range gs {
		bm := store.NewBitmap(s.Len())
		density := 0.05 + 0.6*rng.Float64()
		for id := 0; id < s.Len(); id++ {
			if rng.Float64() < density {
				bm.Set(id)
			}
		}
		if bm.Count() == 0 {
			bm.Set(rng.Intn(s.Len()))
		}
		gs[i] = &groups.Group{ID: i, Tuples: bm, Members: bm.Slice()}
	}
	e, err := NewEngine(s, gs, signature.SummarizeAll(signature.FrequencyOfSize(s.Vocab.Size()), s, gs))
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
		for _, meas := range []mining.Measure{mining.Similarity, mining.Diversity} {
			tab := make([][]float64, n)
			for i := range tab {
				tab[i] = make([]float64, n)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v := float64(rng.Intn(4))/2 - 0.5
					if rng.Intn(40) == 0 {
						v = math.NaN() // never a seed score, admitted by a constraint
					}
					tab[i][j], tab[j][i] = v, v
				}
			}
			e.SetPairFunc(dim, meas, func(a, b *groups.Group) float64 { return tab[a.ID][b.ID] })
		}
	}
	return e
}

// randomSeedSpec draws a spec with one to three objectives (weights
// including zero and negative ones), zero to two constraints, and a
// support floor that is absent, loose or binding.
func randomSeedSpec(rng *rand.Rand, e *Engine) ProblemSpec {
	binding := func() (mining.Dimension, mining.Measure) {
		return mining.Dimension(rng.Intn(3)), mining.Measure(rng.Intn(2))
	}
	weights := []float64{1, 0.5, 2, 0, -1, -0.25}
	spec := ProblemSpec{KLo: 1, KHi: 2 + rng.Intn(3), Name: "seed"}
	for o := 1 + rng.Intn(3); o > 0; o-- {
		dim, meas := binding()
		spec.Objectives = append(spec.Objectives, Objective{Dim: dim, Meas: meas, Weight: weights[rng.Intn(len(weights))]})
	}
	for c := rng.Intn(3); c > 0; c-- {
		dim, meas := binding()
		spec.Constraints = append(spec.Constraints, Constraint{Dim: dim, Meas: meas, Threshold: float64(rng.Intn(4))/2 - 0.5})
	}
	if rng.Intn(3) > 0 {
		spec.MinSupport = 1 + rng.Intn(spec.KHi*maxGroupSize(e))
	}
	return spec
}

// seedFloors lists the size floors one spec's seed scans are checked at:
// the floor-sweep passes dvfdpPlan derives, plus the spread of group sizes
// so that rows and partners get skipped in both modes.
func seedFloors(e *Engine, spec ProblemSpec) []int {
	floors := []int{0}
	for _, mode := range []ConstraintMode{Fold, Filter} {
		tasks, _ := e.dvfdpPlan(spec, FDPOptions{Mode: mode})
		for _, task := range tasks {
			if task.kind == dvTaskPass && task.floor > 0 {
				floors = append(floors, task.floor)
			}
		}
	}
	for _, g := range e.Groups[:4] {
		floors = append(floors, g.Size())
	}
	return floors
}

// TestDVFDPSeedMatchesGenericScan checks the row seed against fdp.MaxAvg's
// generic seed scan, which probes the accept closure dvfdpOnce builds in
// both directions of every pair scoring above the running best. Quantized
// scores make ties common, so the first-in-row-major tie-break is pinned
// along with every gate: size floor, support headroom and each Fold
// constraint.
func TestDVFDPSeedMatchesGenericScan(t *testing.T) {
	var compared, none, gated int
	for seed := int64(1); seed <= 24; seed++ {
		e := quantizedEngine(t, 30+int(seed%3)*7, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		n := len(e.Groups)
		for trial := 0; trial < 12; trial++ {
			spec := randomSeedSpec(rng, e)
			sc := e.scorer(spec)
			dist := vec.DistFunc(sc.pairObjective)
			k := min(spec.KHi, n)
			maxSize := maxGroupSize(e)
			free, _, _ := e.dvfdpSeed(spec, FDPOptions{Mode: Filter}, sc, k, 0, maxSize)
			for _, mode := range []ConstraintMode{Fold, Filter} {
				opts := FDPOptions{Mode: mode}
				for _, floor := range seedFloors(e, spec) {
					accept := e.dvfdpAccept(spec, opts, sc, k, floor, maxSize)
					// k=2 stops the oracle right after its seed scan; the
					// accept closure keeps the pass's own k.
					want, err := fdp.MaxAvg(n, 2, dist, accept)
					a, b, ok := e.dvfdpSeed(spec, opts, sc, k, floor, maxSize)
					compared++
					if err != nil {
						none++
						if ok {
							t.Fatalf("seed %d trial %d %s floor %d: row seed (%d, %d), generic scan found none\nspec %+v",
								seed, trial, dvfdpName(opts), floor, a, b, spec)
						}
						continue
					}
					if !ok || a != want.Selected[0] || b != want.Selected[1] {
						t.Fatalf("seed %d trial %d %s floor %d: row seed (%d, %d, %v), generic scan %v\nspec %+v",
							seed, trial, dvfdpName(opts), floor, a, b, ok, want.Selected, spec)
					}
					if a != free {
						gated++
					}
				}
			}
		}
	}
	t.Logf("%d seed scans compared, %d without a seed, %d moved by a gate", compared, none, gated)
	// The sweep must exercise both outcomes and gates that move the seed.
	if none == 0 || gated == 0 || none == compared {
		t.Fatalf("degenerate sweep: %d compared, %d without a seed, %d moved by a gate", compared, none, gated)
	}
}

// TestDVFDPOnceMatchesGenericGreedy runs whole greedy passes both ways:
// dvfdpOnce (row seed, then the seeded loop) against the generic
// fdp.MaxAvg/MaxMin with the same accept closure, and the fixed-seed
// ablation against its (0, 1)-or-max-edge rule.
func TestDVFDPOnceMatchesGenericGreedy(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		e := quantizedEngine(t, 33, seed)
		rng := rand.New(rand.NewSource(seed * 104729))
		n := len(e.Groups)
		for trial := 0; trial < 10; trial++ {
			spec := randomSeedSpec(rng, e)
			sc := e.scorer(spec)
			dist := vec.DistFunc(sc.pairObjective)
			k := min(spec.KHi, n)
			maxSize := maxGroupSize(e)
			for _, opts := range []FDPOptions{{Mode: Fold}, {Mode: Filter}, {Mode: Fold, Criterion: MaxMin}, {Mode: Fold, FixedSeed: true}} {
				for _, floor := range seedFloors(e, spec) {
					accept := e.dvfdpAccept(spec, opts, sc, k, floor, maxSize)
					var want fdp.Result
					var err error
					switch {
					case opts.FixedSeed && (accept == nil || accept([]int{0}, 1)):
						want, err = fdp.MaxAvgFrom(n, k, 0, 1, dist, accept)
					case opts.Criterion == MaxMin:
						want, err = fdp.MaxMin(n, k, dist, accept)
					default:
						want, err = fdp.MaxAvg(n, k, dist, accept)
					}
					got, adds := e.dvfdpOnce(spec, opts, sc, dist, k, floor)
					if err != nil {
						if got != nil {
							t.Fatalf("seed %d trial %d %+v floor %d: got %v, generic run failed: %v", seed, trial, opts, floor, groupIDs(got), err)
						}
						continue
					}
					if ids := groupIDs(got); !slices.Equal(ids, want.Selected) || adds != int64(len(want.Selected)) {
						t.Fatalf("seed %d trial %d %+v floor %d: got %v (%d adds), generic %v", seed, trial, opts, floor, ids, adds, want.Selected)
					}
				}
			}
		}
	}
}

func maxGroupSize(e *Engine) int {
	maxSize := 0
	for _, g := range e.Groups {
		maxSize = max(maxSize, g.Size())
	}
	return maxSize
}

// TestDVFDPSeedAllocations pins the seed scan's cost shape: at most two
// row-table allocations per pass, none per pair.
func TestDVFDPSeedAllocations(t *testing.T) {
	e := quantizedEngine(t, 40, 3)
	spec := ProblemSpec{
		KLo: 1, KHi: 3, MinSupport: 30,
		Objectives:  []Objective{{Dim: mining.Tags, Meas: mining.Diversity, Weight: 1}, {Dim: mining.Users, Meas: mining.Similarity, Weight: 0.5}},
		Constraints: []Constraint{{Dim: mining.Items, Meas: mining.Similarity, Threshold: 0}},
	}
	sc := e.scorer(spec)
	allocs := testing.AllocsPerRun(20, func() {
		e.dvfdpSeed(spec, FDPOptions{Mode: Fold}, sc, 3, 0, 64)
	})
	if allocs > 2 {
		t.Fatalf("dvfdpSeed made %.0f allocations per pass, want at most 2", allocs)
	}
}
