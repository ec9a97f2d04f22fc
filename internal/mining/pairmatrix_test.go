package mining

import (
	"math"
	"math/rand"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/signature"
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
	sigs := signature.SummarizeAll(signature.NewFrequency(s), s, gs)
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
// and singleton edge cases — through every aggregator and demands exact
// agreement with the naive Eval, whose pair visit order EvalMatrix
// replicates.
func TestEvalMatrixMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sumAgg := func(scores []float64) float64 { // custom: exercises the fallback
		var s float64
		for _, x := range scores {
			s += x
		}
		return s
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(13)
		gs, pair := syntheticUniverse(n, int64(trial))
		m := NewPairMatrix(gs, pair, 0)
		for _, agg := range []Aggregator{nil, Mean, Min, sumAgg} {
			f := Func{Dim: Tags, Meas: Similarity, Pair: pair, Agg: agg}
			for k := 0; k <= n; k++ {
				ids := rng.Perm(n)[:k]
				set := make([]*groups.Group, k)
				for i, id := range ids {
					set[i] = gs[id]
				}
				want := f.Eval(set)
				got := f.EvalMatrix(m, ids)
				if got != want {
					t.Fatalf("trial %d n=%d k=%d: EvalMatrix = %v, Eval = %v",
						trial, n, k, got, want)
				}
			}
		}
	}
}

func TestEvalMatrixAllocationFree(t *testing.T) {
	gs, pair := syntheticUniverse(10, 3)
	m := NewPairMatrix(gs, pair, 0)
	ids := []int{1, 4, 7, 9}
	for _, f := range []Func{
		{Pair: pair}, // nil aggregator defaults to Mean
		{Pair: pair, Agg: Mean},
		{Pair: pair, Agg: Min},
	} {
		f := f
		if avg := testing.AllocsPerRun(100, func() { f.EvalMatrix(m, ids) }); avg != 0 {
			t.Fatalf("EvalMatrix allocated %v per run", avg)
		}
	}
}

// TestIncrementalEvalMatchesEval random-walks a push/pop sequence and
// checks the running mean against the naive Eval after every step: exactly
// for sets of up to three groups (where the addition orders coincide), and
// within floating-point tolerance beyond.
func TestIncrementalEvalMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(11)
		gs, pair := syntheticUniverse(n, int64(100+trial))
		m := NewPairMatrix(gs, pair, 0)
		f := Func{Pair: pair, Agg: Mean}
		inc := NewIncrementalEval(m, n)
		var set []*groups.Group
		for step := 0; step < 200; step++ {
			if inc.Len() > 0 && (inc.Len() == n || rng.Intn(3) == 0) {
				inc.Pop()
				set = set[:len(set)-1]
			} else {
				// Push any group not currently in the set.
				id := rng.Intn(n)
				for containsID(inc.IDs(), id) {
					id = (id + 1) % n
				}
				inc.Push(id)
				set = append(set, gs[id])
			}
			want := f.Eval(set)
			got := inc.Mean()
			if inc.Len() <= 3 {
				if got != want {
					t.Fatalf("trial %d step %d k=%d: incremental %v != naive %v",
						trial, step, inc.Len(), got, want)
				}
			} else if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d step %d k=%d: incremental %v vs naive %v",
					trial, step, inc.Len(), got, want)
			}
		}
	}
}

// TestIncrementalEvalBacktrackExact proves the cumulative-sum stack gives
// bit-identical results to a fresh forward evaluation after arbitrary
// backtracking — the property +delta/-delta running sums cannot offer.
func TestIncrementalEvalBacktrackExact(t *testing.T) {
	gs, pair := syntheticUniverse(9, 42)
	m := NewPairMatrix(gs, pair, 0)
	inc := NewIncrementalEval(m, 4)
	inc.Push(0)
	inc.Push(3)
	inc.Push(5)
	inc.Pop()
	inc.Pop()
	inc.Push(7)
	inc.Push(8)
	fresh := NewIncrementalEval(m, 4)
	for _, id := range []int{0, 7, 8} {
		fresh.Push(id)
	}
	if inc.Sum() != fresh.Sum() || inc.Mean() != fresh.Mean() {
		t.Fatalf("backtracked sum %v / mean %v != fresh %v / %v",
			inc.Sum(), inc.Mean(), fresh.Sum(), fresh.Mean())
	}
	inc.Reset()
	if inc.Len() != 0 || inc.Sum() != 0 || inc.Mean() != 0 {
		t.Fatal("Reset did not empty the evaluator")
	}
}

func TestIncrementalEvalEdgeCases(t *testing.T) {
	gs, pair := syntheticUniverse(4, 5)
	m := NewPairMatrix(gs, pair, 0)
	inc := NewIncrementalEval(m, 0)
	if inc.Mean() != 0 || inc.Sum() != 0 {
		t.Fatal("empty evaluator must score 0")
	}
	inc.Push(2)
	if inc.Mean() != 0 {
		t.Fatal("singleton must score 0: no pair evidence")
	}
	inc.Push(1)
	if want := pair(gs[1], gs[2]); inc.Mean() != want {
		t.Fatalf("pair mean = %v, want %v", inc.Mean(), want)
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

func containsID(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
