package mining

import (
	"math"
	"math/rand"
	"testing"

	"tagdm/internal/groups"
)

// tablePair builds n bare groups plus a symmetric pair function backed by
// a random table quantized to multiples of 1/64 — dyadic values keep every
// pair-sum exact in float64, so the equivalence assertions below are
// bit-level, not tolerances.
func tablePair(rng *rand.Rand, n int) ([]*groups.Group, [][]float64, PairFunc) {
	gs := make([]*groups.Group, n)
	for i := range gs {
		gs[i] = &groups.Group{ID: i}
	}
	tab := make([][]float64, n)
	for i := range tab {
		tab[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(rng.Intn(65)) / 64
			tab[i][j], tab[j][i] = v, v
		}
	}
	return gs, tab, func(g1, g2 *groups.Group) float64 { return tab[g1.ID][g2.ID] }
}

func randomIDSets(rng *rand.Rand, n, sets int) [][]int {
	out := make([][]int, 0, sets)
	for s := 0; s < sets; s++ {
		var ids []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, i)
			}
		}
		if len(ids) < 2 {
			ids = []int{0, n - 1}
		}
		out = append(out, ids)
	}
	return out
}

// TestPairSourcesBitIdentical pins the contract solvers rely on when they
// score through either source: LazyPairs must agree bit for bit with the
// materialized PairMatrix on At and MeanOver.
func TestPairSourcesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 7, 24} {
		gs, _, pair := tablePair(rng, n)
		mat := NewPairMatrix(gs, pair, 0)
		lazy := NewLazyPairs(gs, pair)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := lazy.At(i, j), mat.At(i, j); got != want {
					t.Fatalf("n=%d: At(%d,%d) = %v, want %v", n, i, j, got, want)
				}
			}
		}
		for _, ids := range append(randomIDSets(rng, n, 8), nil, []int{0}) {
			if got, want := lazy.MeanOver(ids), mat.MeanOver(ids); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: MeanOver(%v) = %v, want %v", n, ids, got, want)
			}
		}
	}
}

// TestRebuildRowsMatchesScratchRandom is the dirty-row carry property: for
// random universes, random dirty sets, and random growth (appended groups),
// rebuilding from the previous matrix must be bit-identical to building
// from scratch with the new pair function — given that the dirty flags
// cover every changed row.
func TestRebuildRowsMatchesScratchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		nPrev := 2 + rng.Intn(20)
		gsPrev, _, pairPrev := tablePair(rng, nPrev)
		prev := NewPairMatrix(gsPrev, pairPrev, 0)

		// The new epoch: same universe plus up to 4 appended groups, a new
		// table that differs from the old one only in rows marked dirty.
		nNew := nPrev + rng.Intn(5)
		gsNew, tabNew, pairNew := tablePair(rng, nNew)
		dirty := make([]bool, nPrev)
		for i := 0; i < nPrev; i++ {
			dirty[i] = rng.Intn(4) == 0
		}
		for i := 0; i < nPrev; i++ {
			for j := i + 1; j < nPrev; j++ {
				if !dirty[i] && !dirty[j] {
					// Clean pairs keep their old value — the invariant the
					// carry contract demands of callers.
					tabNew[i][j] = prev.At(i, j)
					tabNew[j][i] = prev.At(i, j)
				}
			}
		}

		workers := 1 + rng.Intn(3)
		got := prev.RebuildRows(gsNew, pairNew, dirty, workers)
		want := NewPairMatrix(gsNew, pairNew, 0)
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: Len %d vs %d", trial, got.Len(), want.Len())
		}
		for i := 0; i < nNew; i++ {
			for j := i + 1; j < nNew; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("trial %d (nPrev=%d nNew=%d dirty=%v): (%d,%d) = %v, want %v",
						trial, nPrev, nNew, dirty, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		// The receiver must be untouched by the rebuild.
		for i := 0; i < nPrev; i++ {
			for j := i + 1; j < nPrev; j++ {
				if prev.At(i, j) != pairPrev(gsPrev[i], gsPrev[j]) {
					t.Fatalf("trial %d: RebuildRows mutated its receiver at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestRebuildRowsAllDirtyAndShrink covers the degenerate carries: every
// row dirty (nothing reusable) and a universe smaller than the receiver's,
// with every row dirty and with every row clean (neither the dirty flags
// nor the receiver's clean rows may be read past the new group slice).
func TestRebuildRowsAllDirtyAndShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gs, _, pair := tablePair(rng, 10)
	prev := NewPairMatrix(gs, pair, 0)

	allDirty := make([]bool, 10)
	for i := range allDirty {
		allDirty[i] = true
	}
	gs2, _, pair2 := tablePair(rng, 10)
	got := prev.RebuildRows(gs2, pair2, allDirty, 0)
	want := NewPairMatrix(gs2, pair2, 0)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("all-dirty rebuild differs at (%d,%d)", i, j)
			}
		}
	}

	small := gs2[:4]
	gotS := prev.RebuildRows(small, pair2, allDirty, 0)
	wantS := NewPairMatrix(small, pair2, 0)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if gotS.At(i, j) != wantS.At(i, j) {
				t.Fatalf("shrunk rebuild differs at (%d,%d)", i, j)
			}
		}
	}

	// Shrink with every row clean: the clean rows copy from the receiver
	// but must stop at the new universe's edge.
	gotC := prev.RebuildRows(gs[:4], pair, make([]bool, 10), 0)
	wantC := NewPairMatrix(gs[:4], pair, 0)
	if gotC.Len() != 4 {
		t.Fatalf("clean shrink has %d groups, want 4", gotC.Len())
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if gotC.At(i, j) != wantC.At(i, j) {
				t.Fatalf("clean shrunk rebuild differs at (%d,%d)", i, j)
			}
		}
	}
}
