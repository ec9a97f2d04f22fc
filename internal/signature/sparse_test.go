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

// checkSparseMatchesDense compares each signature's norm and cosine with
// vec.Norm and vec.Cosine over its dense weights, bit for bit: every norm,
// and the cosine of every pair (i, j) with |i-j| < window, both ways.
func checkSparseMatchesDense(t *testing.T, label string, dense [][]float64, window int) {
	t.Helper()
	sigs := make([]Signature, len(dense))
	for i, w := range dense {
		sigs[i] = FromDense(w)
	}
	for i := range sigs {
		if got, want := sigs[i].Norm(), vec.Norm(dense[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: norm of %d = %v, dense %v", label, i, got, want)
		}
		for j := max(0, i-window+1); j < len(sigs) && j < i+window; j++ {
			want := vec.Cosine(dense[i], dense[j])
			for _, got := range []float64{sigs[i].Cosine(sigs[j]), sigs[j].Cosine(sigs[i])} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: cosine(%d, %d) = %v (%#x), dense %v (%#x)",
						label, i, j, got, math.Float64bits(got), want, math.Float64bits(want))
				}
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
			dense := make([][]float64, len(gs))
			for i, g := range gs {
				dense[i] = sum.Summarize(s, g).Dense()
			}
			checkSparseMatchesDense(t, sum.Name(), dense, len(dense))
		}
	}
}

// TestSparseCosineMatchesDenseOnEdgeValues: 2,000 random vectors mixing
// +0, -0, subnormals, near-overflow magnitudes (whose squares overflow
// to +Inf) and ordinary weights of both signs, with some all-zero rows
// and some rows with no zero weight.
func TestSparseCosineMatchesDenseOnEdgeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, dim = 2000, 12
	dense := make([][]float64, n)
	for i := range dense {
		w := make([]float64, dim)
		for c := range w {
			sign := float64(1 - 2*rng.Intn(2))
			switch r := rng.Intn(10); {
			case i%50 == 0 || (i%7 != 0 && r < 4):
				w[c] = 0
			case i%7 != 0 && r == 4:
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
		dense[i] = w
	}
	checkSparseMatchesDense(t, "edge", dense, 64)
}

// TestValidateRejectsInvalidSignatures: a dimension mismatch or a NaN or
// ±Inf weight is reported with the signature's index and the weight's
// coordinate; ±0 is never a non-zero, and finite weights whose norm
// overflows pass.
func TestValidateRejectsInvalidSignatures(t *testing.T) {
	ok := FromDense([]float64{1, 0, 2})
	for _, c := range []struct {
		name  string
		bad   []float64
		coord int
	}{
		{"short", []float64{1, 2}, -1},
		{"nan", []float64{0, math.NaN(), 1}, 1},
		{"+inf", []float64{0, 0, math.Inf(1)}, 2},
		{"-inf", []float64{math.Inf(-1), 0, 0}, 0},
		{"nan after inf", []float64{math.Inf(1), math.NaN(), 0}, 0},
	} {
		err := Validate([]Signature{ok, ok, FromDense(c.bad)})
		var inv *InvalidError
		if !errors.As(err, &inv) {
			t.Fatalf("%s: error %v, want *InvalidError", c.name, err)
		}
		if inv.Index != 2 || inv.Want != 3 || inv.Dim != len(c.bad) || inv.Coord != c.coord {
			t.Fatalf("%s: %+v", c.name, inv)
		}
		if c.coord >= 0 && math.Float64bits(inv.Value) != math.Float64bits(c.bad[c.coord]) {
			t.Fatalf("%s: value %v, want %v", c.name, inv.Value, c.bad[c.coord])
		}
	}
	huge := FromDense([]float64{math.MaxFloat64, 0, -math.MaxFloat64})
	if !math.IsInf(huge.Norm(), 1) {
		t.Fatalf("norm of two MaxFloat64 weights = %v, want +Inf", huge.Norm())
	}
	if err := Validate([]Signature{ok, huge}); err != nil {
		t.Fatalf("finite weights with an overflowing norm rejected: %v", err)
	}
	zero := FromDense([]float64{0, math.Copysign(0, -1), 0})
	if err := Validate([]Signature{ok, zero}); err != nil {
		t.Fatal(err)
	}
	if got := ok.Nonzeros(); !slices.Equal(got, []int32{0, 2}) || !slices.Equal(ok.Values(), []float64{1, 2}) {
		t.Fatalf("non-zeros of [1 0 2] = %v, %v", got, ok.Values())
	}
	if len(zero.Nonzeros()) != 0 || zero.Dim() != 3 {
		t.Fatalf("-0 counted as a non-zero: %v (dim %d)", zero.Nonzeros(), zero.Dim())
	}
	if zero.Norm() != 0 || ok.Cosine(zero) != 0 || zero.Cosine(ok) != 0 {
		t.Fatalf("zero signature: norm %v, cosine %v", zero.Norm(), ok.Cosine(zero))
	}
	if Validate(nil) != nil {
		t.Fatal("empty set rejected")
	}
}

// sameSignature reports whether a and b agree bit for bit: dimension,
// positions, values and norm.
func sameSignature(a, b Signature) bool {
	if a.dim != b.dim || !slices.Equal(a.pos, b.pos) || len(a.val) != len(b.val) ||
		math.Float64bits(a.norm) != math.Float64bits(b.norm) {
		return false
	}
	for k := range a.val {
		if math.Float64bits(a.val[k]) != math.Float64bits(b.val[k]) {
			return false
		}
	}
	return true
}

// TestFromDenseRoundTrip: densifying a signature and converting it back
// gives the same signature bit for bit, for random sparse rows, full rows
// and the zero vector; a vector without -0 survives the other way round.
// Full rows of one length share their positions.
func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		w := make([]float64, 1+rng.Intn(40))
		for c := range w {
			if i%3 == 0 || rng.Intn(4) == 0 {
				w[c] = rng.NormFloat64()
			}
		}
		s := FromDense(w)
		if back := FromDense(s.Dense()); !sameSignature(s, back) {
			t.Fatalf("row %d: FromDense(Dense(s)) = %+v, want %+v", i, back, s)
		}
		if !slices.Equal(s.Dense(), w) {
			t.Fatalf("row %d: Dense(FromDense(w)) = %v, want %v", i, s.Dense(), w)
		}
	}
	if z := FromDense(make([]float64, 4)); !sameSignature(z, FromDense(z.Dense())) || z.Dim() != 4 {
		t.Fatalf("zero vector round trip: %+v", z)
	}
	a, b := FromDense([]float64{1, 2, 3}), FromDense([]float64{-4, 5, 6})
	if &a.Nonzeros()[0] != &b.Nonzeros()[0] || cap(a.Nonzeros()) != 3 {
		t.Fatalf("full rows do not share capped positions: %p %p cap %d",
			a.Nonzeros(), b.Nonzeros(), cap(a.Nonzeros()))
	}
}

// denseFrequency and denseTFIDF are the summarizers as they were while
// signatures were dense vocabulary-long vectors: the oracle the sparse
// builds must reproduce.
func denseFrequency(vocab int, s *store.Store, g *groups.Group) []float64 {
	w := make([]float64, vocab)
	for tag, n := range groups.TagBag(s, g) {
		if int(tag) < len(w) {
			w[tag] = float64(n)
		}
	}
	return w
}

func denseTFIDF(t *TFIDF, s *store.Store, g *groups.Group) []float64 {
	w := make([]float64, t.vocabSize)
	bag := groups.TagBag(s, g)
	var total int
	for _, n := range bag {
		total += n
	}
	if total == 0 {
		return w
	}
	for tag, n := range bag {
		if int(tag) < len(w) {
			tf := float64(n) / float64(total)
			w[tag] = tf * t.idf[tag]
		}
	}
	return w
}

// TestSummarizersMatchDenseOracle: Frequency and TFIDF, built from the tag
// bag, equal FromDense of the dense vector the summarizers used to return,
// bit for bit, for every group of datagen.Small and datagen.Default.
// Frequency is also checked over a vocabulary shorter than the store's,
// where tags past the end drop out.
func TestSummarizersMatchDenseOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen corpora under -short")
	}
	for _, c := range []struct {
		name string
		cfg  datagen.Config
	}{{"small", datagen.Small()}, {"default", datagen.Default()}} {
		w, err := datagen.Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.New(w.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		gs := (&groups.Enumerator{Store: s, MinTuples: 5}).FullyDescribed()
		vocab := s.Vocab.Size()
		freq, short, tfidf := NewFrequency(s), FrequencyOfSize(vocab/2), FitTFIDF(s, gs)
		for _, g := range gs {
			if got, want := freq.Summarize(s, g), FromDense(denseFrequency(vocab, s, g)); !sameSignature(got, want) {
				t.Fatalf("%s: frequency of group %d = %+v, dense %+v", c.name, g.ID, got, want)
			}
			if got, want := short.Summarize(s, g), FromDense(denseFrequency(vocab/2, s, g)); !sameSignature(got, want) {
				t.Fatalf("%s: short frequency of group %d = %+v, dense %+v", c.name, g.ID, got, want)
			}
			if got, want := tfidf.Summarize(s, g), FromDense(denseTFIDF(tfidf, s, g)); !sameSignature(got, want) {
				t.Fatalf("%s: tfidf of group %d = %+v, dense %+v", c.name, g.ID, got, want)
			}
		}
	}
}
