package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNormAndNormalize(t *testing.T) {
	v := []float64{3, 4}
	if !almostEqual(Norm(v), 5) {
		t.Fatalf("Norm = %v", Norm(v))
	}
	Normalize(v)
	if !almostEqual(Norm(v), 1) {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := []float64{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector should be unchanged")
	}
}

func TestCosine(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 1},
		{[]float64{1, 0}, []float64{0, 1}, 0},
		{[]float64{1, 0}, []float64{-1, 0}, -1},
		{[]float64{1, 1}, []float64{1, 1}, 1},
		{[]float64{0, 0}, []float64{1, 1}, 0}, // zero vector convention
	}
	for _, c := range cases {
		if got := Cosine(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("Cosine(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngle(t *testing.T) {
	if got := Angle([]float64{1, 0}, []float64{0, 1}); !almostEqual(got, math.Pi/2) {
		t.Fatalf("Angle = %v, want pi/2", got)
	}
	if got := Angle([]float64{2, 0}, []float64{5, 0}); !almostEqual(got, 0) {
		t.Fatalf("Angle of parallel = %v", got)
	}
}

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 5) {
		t.Fatalf("Euclidean = %v", got)
	}
}

func TestAddScaleConcat(t *testing.T) {
	a := []float64{1, 2}
	Add(a, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("Add = %v", a)
	}
	Scale(a, 0.5)
	if a[0] != 2 || a[1] != 3 {
		t.Fatalf("Scale = %v", a)
	}
	c := Concat([]float64{1}, nil, []float64{2, 3})
	if len(c) != 3 || c[0] != 1 || c[2] != 3 {
		t.Fatalf("Concat = %v", c)
	}
}

func TestMatrixAt(t *testing.T) {
	pts := [][]float64{{0}, {1}, {3}, {6}}
	m := NewMatrix(len(pts), func(i, j int) float64 { return Euclidean(pts[i], pts[j]) })
	for i := range pts {
		for j := range pts {
			want := math.Abs(pts[i][0] - pts[j][0])
			if got := m.At(i, j); !almostEqual(got, want) {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
			if j > i && m.Row(i)[j-i-1] != m.At(i, j) {
				t.Fatalf("Row(%d)[%d] = %v, At = %v", i, j-i-1, m.Row(i)[j-i-1], m.At(i, j))
			}
		}
		if got := len(m.Row(i)); got != len(pts)-i-1 {
			t.Fatalf("len(Row(%d)) = %d, want %d", i, got, len(pts)-i-1)
		}
	}
}

func TestMatrixDegenerate(t *testing.T) {
	m := NewMatrix(1, func(i, j int) float64 { return 1 })
	if len(m.Row(0)) != 0 {
		t.Fatal("a single point has no pairs")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("diagonal must be zero")
	}
}

func TestAvgMinPairwise(t *testing.T) {
	dist := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	idxs := []int{0, 2, 5}
	// pairs: |0-2|=2, |0-5|=5, |2-5|=3 -> avg 10/3, min 2
	if got := AvgPairwise(idxs, dist); !almostEqual(got, 10.0/3.0) {
		t.Fatalf("AvgPairwise = %v", got)
	}
	if got := MinPairwise(idxs, dist); !almostEqual(got, 2) {
		t.Fatalf("MinPairwise = %v", got)
	}
	if AvgPairwise([]int{7}, dist) != 0 || MinPairwise(nil, dist) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
}

// Property: cosine similarity is symmetric and bounded.
func TestQuickCosineSymmetricBounded(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := make([]float64, 8), make([]float64, 8)
		for i := range x {
			// Keep magnitudes bounded so norms cannot overflow to +Inf.
			x[i] = math.Mod(a[i], 1e6)
			y[i] = math.Mod(b[i], 1e6)
		}
		c1, c2 := Cosine(x, y), Cosine(y, x)
		return c1 == c2 && c1 >= -1 && c1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: condensed matrix agrees with direct recomputation at every cell.
func TestQuickMatrixConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		dist := func(i, j int) float64 { return Euclidean(pts[i], pts[j]) }
		m := NewMatrix(n, dist)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(m.At(i, j), dist(i, j)) {
					t.Fatalf("n=%d cell (%d,%d): %v != %v", n, i, j, m.At(i, j), dist(i, j))
				}
				if !almostEqual(m.At(i, j), m.At(j, i)) {
					t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

// Property: triangle inequality holds for Euclidean on random points, which
// the FDP approximation bound relies on.
func TestQuickEuclideanTriangle(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		ab := Euclidean(a[:], b[:])
		bc := Euclidean(b[:], c[:])
		ac := Euclidean(a[:], c[:])
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
