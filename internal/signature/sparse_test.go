package signature

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/store"
	"tagdm/internal/vec"
)

// checkSparseMatchesDense compares the view's norm and cosine with the
// dense vec.Norm and vec.Cosine bit for bit: every signature's norm, and
// the cosine of every pair (i, j) with i <= j < i+window.
func checkSparseMatchesDense(t *testing.T, label string, sigs []Signature, window int) {
	t.Helper()
	v, err := NewSparse(sigs, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := range sigs {
		if got, want := v.Norm(i), vec.Norm(sigs[i].Weights); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: norm of %d = %v, dense %v", label, i, got, want)
		}
		for j := i; j < len(sigs) && j < i+window; j++ {
			got, want := v.Cosine(i, j), vec.Cosine(sigs[i].Weights, sigs[j].Weights)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: cosine(%d, %d) = %v (%#x), dense %v (%#x)",
					label, i, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if back := v.Cosine(j, i); math.Float64bits(back) != math.Float64bits(want) {
				t.Fatalf("%s: cosine(%d, %d) = %v, dense %v", label, j, i, back, want)
			}
		}
	}
}

// TestSparseCosineMatchesDenseOnCorpora: frequency, TF-IDF and LDA
// signatures of three datagen.Small corpora, every pair.
func TestSparseCosineMatchesDenseOnCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen corpora under -short")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := datagen.Small()
		cfg.Seed = seed
		w, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.New(w.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		gs := (&groups.Enumerator{Store: s, MinTuples: 5}).FullyDescribed()
		topics, err := TrainLDA(s, gs, 8, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sum := range []Summarizer{NewFrequency(s), FitTFIDF(s, gs), topics} {
			sigs := SummarizeAll(sum, s, gs)
			checkSparseMatchesDense(t, sum.Name(), sigs, len(sigs))
		}
	}
}

// TestSparseCosineMatchesDenseOnEdgeValues: 2,000 random vectors mixing
// +0, -0, subnormals, near-overflow magnitudes (whose squares overflow
// to +Inf) and ordinary weights of both signs, with some all-zero rows.
func TestSparseCosineMatchesDenseOnEdgeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, dim = 2000, 12
	sigs := make([]Signature, n)
	for i := range sigs {
		w := make([]float64, dim)
		for c := range w {
			sign := float64(1 - 2*rng.Intn(2))
			switch r := rng.Intn(10); {
			case i%50 == 0 || r < 4:
				w[c] = 0
			case r == 4:
				w[c] = math.Copysign(0, -1)
			case r == 5:
				w[c] = sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
			case r == 6:
				w[c] = sign * math.MaxFloat64 * rng.Float64()
			case r == 7:
				w[c] = sign * 1e-160 * rng.Float64()
			default:
				w[c] = sign * rng.Float64()
			}
		}
		sigs[i] = Signature{Weights: w}
	}
	checkSparseMatchesDense(t, "edge", sigs, 64)
}

func TestNewSparseRejectsInvalidSignatures(t *testing.T) {
	ok := Signature{Weights: []float64{1, 0, 2}}
	for _, c := range []struct {
		name  string
		bad   Signature
		coord int
	}{
		{"short", Signature{Weights: []float64{1, 2}}, -1},
		{"nan", Signature{Weights: []float64{0, math.NaN(), 1}}, 1},
		{"+inf", Signature{Weights: []float64{0, 0, math.Inf(1)}}, 2},
		{"-inf", Signature{Weights: []float64{math.Inf(-1), 0, 0}}, 0},
	} {
		_, err := NewSparse([]Signature{ok, ok, c.bad}, nil)
		var inv *InvalidError
		if !errors.As(err, &inv) {
			t.Fatalf("%s: error %v, want *InvalidError", c.name, err)
		}
		if inv.Index != 2 || inv.Want != 3 || inv.Dim != len(c.bad.Weights) || inv.Coord != c.coord {
			t.Fatalf("%s: %+v", c.name, inv)
		}
	}
	v, err := NewSparse([]Signature{ok, {Weights: []float64{0, math.Copysign(0, -1), 0}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Nonzeros(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("non-zeros of %v = %v", ok.Weights, got)
	}
	if got := v.Nonzeros(1); len(got) != 0 {
		t.Fatalf("-0 counted as a non-zero: %v", got)
	}
	if v.Norm(1) != 0 || v.Cosine(0, 1) != 0 {
		t.Fatalf("zero signature: norm %v, cosine %v", v.Norm(1), v.Cosine(0, 1))
	}
	full := Signature{Weights: []float64{3, -1, 2}}
	v, err = NewSparse([]Signature{full, ok, full}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if got := v.Nonzeros(i); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("non-zeros of signature %d, %v = %v", i, full.Weights, got)
		}
	}
	if got := v.Nonzeros(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("non-zeros of %v between two dense signatures = %v", ok.Weights, got)
	}
	if v.NNZ() != 8 {
		t.Fatalf("NNZ = %d, want 8", v.NNZ())
	}
}

// TestNewSparseCarriesHeldRows: a view built from a previous one carries
// the row and norm of every signature that still holds the previous
// weights slice, rescans the rest (replaced, appended, or all of them
// after a dimension change), and equals a scratch view bit for bit.
func TestNewSparseCarriesHeldRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(dim int) Signature {
		w := make([]float64, dim)
		for c := range w {
			if rng.Intn(4) == 0 {
				w[c] = rng.NormFloat64()
			}
		}
		if rng.Intn(5) == 0 {
			for c := range w {
				w[c] = 1 + rng.Float64() // no zero weight: the shared full row
			}
		}
		return Signature{Weights: w}
	}
	sigs := make([]Signature, 40)
	for i := range sigs {
		sigs[i] = random(30)
	}
	prev, err := NewSparse(sigs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		next := append([]Signature(nil), sigs...)
		dim := 30
		if round == 3 {
			dim = 31
			for i := range next {
				next[i] = random(dim)
			}
		}
		replaced := map[int]bool{}
		for k := 0; k < 5 && round < 3; k++ {
			i := rng.Intn(len(next))
			next[i], replaced[i] = random(dim), true
		}
		next = append(next, random(dim), random(dim))
		v, err := NewSparse(next, prev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSparse(next, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != want.Len() || v.NNZ() != want.NNZ() || v.Dim() != want.Dim() {
			t.Fatalf("round %d: len/nnz/dim %d/%d/%d, scratch %d/%d/%d", round, v.Len(), v.NNZ(), v.Dim(), want.Len(), want.NNZ(), want.Dim())
		}
		for i := range next {
			if !slices.Equal(v.Nonzeros(i), want.Nonzeros(i)) || math.Float64bits(v.Norm(i)) != math.Float64bits(want.Norm(i)) {
				t.Fatalf("round %d: row %d differs from scratch", round, i)
			}
			r, p := v.Nonzeros(i), prev.Nonzeros(min(i, prev.Len()-1))
			aliased := len(r) > 0 && len(p) > 0 && &r[0] == &p[0]
			if carry := round < 3 && i < prev.Len() && !replaced[i]; carry && len(r) > 0 && !aliased {
				t.Fatalf("round %d: held row %d was rescanned", round, i)
			} else if !carry && aliased && len(r) < v.Dim() {
				t.Fatalf("round %d: row %d carried although its weights changed", round, i)
			}
		}
		prev, sigs = v, next
	}
	bad := append([]Signature(nil), sigs...)
	bad[len(bad)-1] = Signature{Weights: make([]float64, len(sigs[0].Weights))}
	bad[len(bad)-1].Weights[2] = math.Inf(1)
	var inv *InvalidError
	if _, err := NewSparse(bad, prev); !errors.As(err, &inv) || inv.Index != len(bad)-1 || inv.Coord != 2 {
		t.Fatalf("carried view over a non-finite weight: error %v, want *InvalidError", err)
	}
}
