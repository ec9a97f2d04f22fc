package fdp

import (
	"math"
	"math/rand"
	"testing"

	"tagdm/internal/vec"
)

// lineDist places points on a line at the given coordinates.
func lineDist(coords []float64) vec.DistFunc {
	return func(i, j int) float64 { return math.Abs(coords[i] - coords[j]) }
}

func TestValidation(t *testing.T) {
	d := lineDist([]float64{0, 1, 2})
	if _, err := MaxAvg(3, 1, d, nil); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := MaxAvg(2, 3, d, nil); err == nil {
		t.Fatal("n<k accepted")
	}
	if _, err := MaxMin(3, 1, d, nil); err == nil {
		t.Fatal("MaxMin k=1 accepted")
	}
	if _, err := Exact(2, 3, d); err == nil {
		t.Fatal("Exact n<k accepted")
	}
}

func TestMaxAvgSeedsWithMaxEdge(t *testing.T) {
	// Points at 0, 1, 10: max edge is (0, 10).
	res, err := MaxAvg(3, 2, lineDist([]float64{0, 1, 10}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %v", res.Selected)
	}
	has := map[int]bool{res.Selected[0]: true, res.Selected[1]: true}
	if !has[0] || !has[2] {
		t.Fatalf("seed pair = %v, want {0, 2}", res.Selected)
	}
	if res.AvgDistance != 10 || res.MinDistance != 10 {
		t.Fatalf("distances = %v / %v", res.AvgDistance, res.MinDistance)
	}
}

func TestMaxAvgGreedyAdd(t *testing.T) {
	// Points at 0, 4, 5, 10. Seed (0, 10); next add maximizes sum of
	// distances: point 1 at 4 gives 4+6=10, point 2 at 5 gives 5+5=10.
	// Tie broken by index order (first maximum wins) -> point 1.
	res, err := MaxAvg(4, 3, lineDist([]float64{0, 4, 5, 10}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 3 {
		t.Fatalf("selected %v", res.Selected)
	}
	want := map[int]bool{0: true, 3: true, 1: true}
	for _, s := range res.Selected {
		if !want[s] {
			t.Fatalf("selection %v", res.Selected)
		}
	}
}

func TestMaxMinPrefersSpread(t *testing.T) {
	// Points at 0, 1, 5, 10. MAX-MIN with k=3 should pick 0, 10 and then 5
	// (min distance 5) rather than 1 (min distance 1).
	res, err := MaxMin(4, 3, lineDist([]float64{0, 1, 5, 10}), nil)
	if err != nil {
		t.Fatal(err)
	}
	has := map[int]bool{}
	for _, s := range res.Selected {
		has[s] = true
	}
	if !has[0] || !has[3] || !has[2] {
		t.Fatalf("MaxMin selection = %v, want {0, 2, 3}", res.Selected)
	}
	if res.MinDistance != 5 {
		t.Fatalf("MinDistance = %v", res.MinDistance)
	}
}

func TestAcceptConstraint(t *testing.T) {
	// Forbid point 3 entirely; selection must avoid it.
	coords := []float64{0, 1, 5, 10}
	accept := func(sel []int, cand int) bool { return cand != 3 }
	res, err := MaxAvg(4, 3, lineDist(coords), accept)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Selected {
		if s == 3 {
			t.Fatalf("rejected point selected: %v", res.Selected)
		}
	}
	if len(res.Selected) != 3 {
		t.Fatalf("selected %d points", len(res.Selected))
	}
}

func TestAcceptCanExhaustCandidates(t *testing.T) {
	// Only points 0 and 1 admissible; k=3 must stop at 2 points.
	accept := func(sel []int, cand int) bool { return cand <= 1 }
	res, err := MaxAvg(4, 3, lineDist([]float64{0, 1, 5, 10}), accept)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %v, want 2 admissible points", res.Selected)
	}
}

func TestAcceptNoSeedPair(t *testing.T) {
	accept := func(sel []int, cand int) bool { return false }
	if _, err := MaxAvg(4, 2, lineDist([]float64{0, 1, 2, 3}), accept); err == nil {
		t.Fatal("expected error when no admissible seed pair")
	}
}

func TestExactSmall(t *testing.T) {
	// On a line, the pairwise sum of 3 points a<b<c is 2(c-a), so every
	// optimal 3-subset contains both endpoints and scores avg 20/3 here.
	coords := []float64{0, 1, 2, 9, 10}
	res, err := Exact(5, 3, lineDist(coords))
	if err != nil {
		t.Fatal(err)
	}
	has := map[int]bool{}
	for _, s := range res.Selected {
		has[s] = true
	}
	if !has[0] || !has[4] {
		t.Fatalf("Exact = %v, must contain endpoints", res.Selected)
	}
	if math.Abs(res.AvgDistance-20.0/3.0) > 1e-12 {
		t.Fatalf("AvgDistance = %v, want 20/3", res.AvgDistance)
	}
}

func TestExactTooLarge(t *testing.T) {
	if _, err := Exact(1000, 10, func(i, j int) float64 { return 1 }); err == nil {
		t.Fatal("huge enumeration accepted")
	}
}

// TestApproximationBound verifies the factor-4 guarantee (paper Theorem 4)
// empirically on random metric instances, comparing against Exact.
func TestApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(8)
		k := 2 + rng.Intn(3)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		dist := func(i, j int) float64 { return vec.Euclidean(pts[i], pts[j]) }
		opt, err := Exact(n, k, dist)
		if err != nil {
			t.Fatal(err)
		}
		app, err := MaxAvg(n, k, dist, nil)
		if err != nil {
			t.Fatal(err)
		}
		if opt.AvgDistance > 4*app.AvgDistance+1e-12 {
			t.Fatalf("trial %d: opt %v > 4x approx %v", trial, opt.AvgDistance, app.AvgDistance)
		}
		if app.AvgDistance > opt.AvgDistance+1e-12 {
			t.Fatalf("trial %d: approx beats exact?!", trial)
		}
	}
}

func TestRandomSeedVariant(t *testing.T) {
	coords := []float64{5, 5.1, 0, 10}
	// Max-edge seeding picks (2, 3); fixed seeding starts from (0, 1) which
	// are nearly coincident, so its average must be no better.
	maxSeed, err := MaxAvg(4, 2, lineDist(coords), nil)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := MaxAvgFrom(4, 2, 0, 1, lineDist(coords), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.AvgDistance > maxSeed.AvgDistance {
		t.Fatalf("fixed seed %v beat max-edge seed %v", fixed.AvgDistance, maxSeed.AvgDistance)
	}
}

func TestSeededRunsValidateSeed(t *testing.T) {
	d := lineDist([]float64{0, 1, 2, 3})
	for _, seed := range [][2]int{{0, 0}, {-1, 2}, {1, 4}} {
		if _, err := MaxAvgFrom(4, 3, seed[0], seed[1], d, nil); err == nil {
			t.Fatalf("MaxAvgFrom accepted seed %v", seed)
		}
		if _, err := MaxMinFrom(4, 3, seed[0], seed[1], d, nil); err == nil {
			t.Fatalf("MaxMinFrom accepted seed %v", seed)
		}
	}
	if _, err := MaxAvgFrom(4, 1, 0, 1, d, nil); err == nil {
		t.Fatal("MaxAvgFrom k=1 accepted")
	}
	// A seeded run starts from the given pair and keeps it first.
	res, err := MaxMinFrom(4, 3, 1, 2, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0] != 1 || res.Selected[1] != 2 || len(res.Selected) != 3 {
		t.Fatalf("MaxMinFrom(1, 2) selected %v", res.Selected)
	}
}

// TestSeedPairProbes pins the seed scan's accept protocol: both directions
// are probed with a one-element selection, and the first pair in row-major
// order among the largest admissible distances wins.
func TestSeedPairProbes(t *testing.T) {
	// Distances 0..3 on a line: pairs (0,3) is the max edge, but point 0
	// only admits point 1 and point 3 is never admitted next to 0.
	accept := func(sel []int, cand int) bool {
		if len(sel) != 1 {
			t.Fatalf("seed probe with selection %v", sel)
		}
		return !(sel[0] == 0 && cand == 3) && !(sel[0] == 3 && cand == 0)
	}
	a, b, ok := seedPair(4, lineDist([]float64{0, 1, 2, 3}), accept)
	if !ok || a != 0 || b != 2 {
		t.Fatalf("seedPair = (%d, %d, %v), want (0, 2)", a, b, ok)
	}
	// Equal distances everywhere: the first admissible pair wins.
	flat := func(i, j int) float64 { return 1 }
	if a, b, _ := seedPair(4, flat, func(sel []int, cand int) bool { return sel[0]+cand > 2 }); a != 0 || b != 3 {
		t.Fatalf("tie-break picked (%d, %d), want (0, 3)", a, b)
	}
}

func TestMatrixBackedDispersion(t *testing.T) {
	// Using a precomputed vec.Matrix as the oracle must match direct calls.
	coords := []float64{0, 2, 7, 11, 13}
	direct := lineDist(coords)
	m := vec.NewMatrix(len(coords), direct)
	a, err := MaxAvg(5, 3, direct, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaxAvg(5, 3, m.At, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgDistance != b.AvgDistance {
		t.Fatalf("matrix-backed run differs: %v vs %v", a.AvgDistance, b.AvgDistance)
	}
}

// Property: greedy MAX-AVG selection always returns exactly k distinct
// indices when unconstrained, and its average distance is positive when
// points are distinct.
func TestQuickMaxAvgShape(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(20)
		k := 2 + rng.Intn(n-2)
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = float64(i) + rng.Float64()*0.25 // strictly increasing
		}
		res, err := MaxAvg(n, k, lineDist(pts), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Selected) != k {
			t.Fatalf("n=%d k=%d: selected %d", n, k, len(res.Selected))
		}
		seen := map[int]bool{}
		for _, s := range res.Selected {
			if seen[s] {
				t.Fatalf("duplicate selection %v", res.Selected)
			}
			seen[s] = true
		}
		if res.AvgDistance <= 0 {
			t.Fatalf("non-positive avg distance %v", res.AvgDistance)
		}
		if res.MinDistance > res.AvgDistance {
			t.Fatalf("min %v > avg %v", res.MinDistance, res.AvgDistance)
		}
	}
}
