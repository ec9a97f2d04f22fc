package mining

import (
	"math"
	"math/rand"
	"testing"

	"tagdm/internal/groups"
)

// syntheticUniverse fabricates n ID-only groups plus a deterministic
// symmetric pair function, so matrix properties can be probed at sizes the
// fixture world cannot reach.
func syntheticUniverse(n int, seed int64) ([]*groups.Group, PairFunc) {
	gs := make([]*groups.Group, n)
	for i := range gs {
		gs[i] = &groups.Group{ID: i}
	}
	pair := func(g1, g2 *groups.Group) float64 {
		lo, hi := g1.ID, g2.ID
		if lo > hi {
			lo, hi = hi, lo
		}
		rng := rand.New(rand.NewSource(seed + int64(lo*7919+hi)))
		return rng.Float64()
	}
	return gs, pair
}

func TestPairMatrixMatchesPairFunc(t *testing.T) {
	s, gs := world(t)
	sigs := frequencySigs(s, gs)
	for _, dim := range []Dimension{Users, Items, Tags} {
		for _, meas := range []Measure{Similarity, Diversity} {
			f := For(s, sigs, dim, meas)
			for _, workers := range []int{0, 1, 3} {
				m := NewPairMatrix(gs, f.Pair, workers)
				if m.Len() != len(gs) {
					t.Fatalf("%s: Len = %d, want %d", f, m.Len(), len(gs))
				}
				for i := range gs {
					for j := range gs {
						want := 0.0
						if i != j {
							want = f.Pair(gs[i], gs[j])
						}
						if got := m.At(i, j); got != want {
							t.Fatalf("%s workers=%d At(%d,%d) = %v, want %v",
								f, workers, i, j, got, want)
						}
						if j > i && m.Row(i)[j-i-1] != want {
							t.Fatalf("%s workers=%d Row(%d)[%d] = %v, want %v",
								f, workers, i, j-i-1, m.Row(i)[j-i-1], want)
						}
					}
					if got := len(m.Row(i)); got != len(gs)-i-1 {
						t.Fatalf("%s: len(Row(%d)) = %d, want %d", f, i, got, len(gs)-i-1)
					}
				}
			}
		}
	}
}

// TestEvalMatrixMatchesEval drives randomized subsets — including the empty
// and singleton edge cases — through PairMatrix.MeanOver and demands exact
// agreement with the naive Mean-aggregated Eval, whose pair visit order
// MeanOver replicates.
func TestEvalMatrixMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(13)
		gs, pair := syntheticUniverse(n, int64(trial))
		m := NewPairMatrix(gs, pair, 0)
		for _, agg := range []Aggregator{nil, Mean} {
			f := Func{Dim: Tags, Meas: Similarity, Pair: pair, Agg: agg}
			for k := 0; k <= n; k++ {
				ids := rng.Perm(n)[:k]
				set := make([]*groups.Group, k)
				for i, id := range ids {
					set[i] = gs[id]
				}
				want := f.Eval(set)
				got := m.MeanOver(ids)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d n=%d k=%d: MeanOver = %v, Eval = %v",
						trial, n, k, got, want)
				}
			}
		}
	}
}

// TestEvalMatrixAllocationFree pins that scoring through the matrix reads
// pure lookups: unlike Eval, MeanOver builds no scores slice.
func TestEvalMatrixAllocationFree(t *testing.T) {
	gs, pair := syntheticUniverse(10, 3)
	m := NewPairMatrix(gs, pair, 0)
	ids := []int{1, 4, 7, 9}
	if avg := testing.AllocsPerRun(100, func() { m.MeanOver(ids) }); avg != 0 {
		t.Fatalf("MeanOver allocated %v per run", avg)
	}
}

// TestMaxRowsBoundVectors pins the branch-and-bound ingredients: MaxRows
// must hold each group's best pair score against any partner, MaxPair the
// global maximum, repeated calls must serve the same cached slice, and the
// degenerate one-group universe (no pairs at all) must bound at 0.
func TestMaxRowsBoundVectors(t *testing.T) {
	gs, pair := syntheticUniverse(9, 3)
	m := NewPairMatrix(gs, pair, 0)
	rows := m.MaxRows()
	if len(rows) != len(gs) {
		t.Fatalf("MaxRows has %d entries, want %d", len(rows), len(gs))
	}
	global := 0.0
	for i := range gs {
		want := 0.0
		first := true
		for j := range gs {
			if j == i {
				continue
			}
			if v := pair(gs[i], gs[j]); first || v > want {
				want, first = v, false
			}
		}
		if rows[i] != want {
			t.Fatalf("MaxRows[%d] = %v, want %v", i, rows[i], want)
		}
		if want > global {
			global = want
		}
	}
	if m.MaxPair() != global {
		t.Fatalf("MaxPair = %v, want %v", m.MaxPair(), global)
	}
	// The vector upper-bounds any pair involving i — the admissibility the
	// Exact bound leans on.
	for i := range gs {
		for j := range gs {
			if i != j && pair(gs[i], gs[j]) > rows[i] {
				t.Fatalf("pair(%d,%d) exceeds MaxRows[%d]", i, j, i)
			}
		}
	}
	if &m.MaxRows()[0] != &rows[0] {
		t.Fatal("MaxRows rebuilt instead of serving the cached vector")
	}
	single, _ := syntheticUniverse(1, 3)
	m1 := NewPairMatrix(single, pair, 0)
	if got := m1.MaxRows(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("one-group MaxRows = %v, want [0]", got)
	}
	if m1.MaxPair() != 0 {
		t.Fatalf("one-group MaxPair = %v, want 0", m1.MaxPair())
	}
}
