package signature

import (
	"errors"
	"math"
	"math/rand"
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
	v, err := NewSparse(sigs)
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
		_, err := NewSparse([]Signature{ok, ok, c.bad})
		var inv *InvalidError
		if !errors.As(err, &inv) {
			t.Fatalf("%s: error %v, want *InvalidError", c.name, err)
		}
		if inv.Index != 2 || inv.Want != 3 || inv.Dim != len(c.bad.Weights) || inv.Coord != c.coord {
			t.Fatalf("%s: %+v", c.name, inv)
		}
	}
	v, err := NewSparse([]Signature{ok, {Weights: []float64{0, math.Copysign(0, -1), 0}}})
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
	v, err = NewSparse([]Signature{full, ok, full})
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
