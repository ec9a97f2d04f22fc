// Package vec provides the dense vector and distance-matrix primitives used
// by the LSH and facility-dispersion algorithm families. Everything operates
// on []float64 so signatures computed by the signature package plug in
// directly.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ,
// because a silent truncation here would corrupt every similarity score
// downstream.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dot of length %d and %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float64) float64 {
	var s float64
	for _, x := range a {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of a and b in [-1, 1]. Zero vectors
// are defined to have similarity 0 with everything, which matches the
// convention that a group with no tags is incomparable rather than maximally
// similar.
func Cosine(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	// Clamp rounding drift so downstream acos calls stay in domain.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// CosineDistance returns 1 - Cosine(a, b), a dissimilarity in [0, 2].
func CosineDistance(a, b []float64) float64 { return 1 - Cosine(a, b) }

// Angle returns the angle between a and b in radians, theta in [0, pi].
// This is the quantity that appears in the Charikar LSH collision bound
// P[h(a)=h(b)] = 1 - theta/pi.
func Angle(a, b []float64) float64 { return math.Acos(Cosine(a, b)) }

// Euclidean returns the L2 distance between a and b.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: euclidean of length %d and %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Normalize scales a to unit length in place and returns it. The zero vector
// is left unchanged.
func Normalize(a []float64) []float64 {
	n := Norm(a)
	if n == 0 {
		return a
	}
	for i := range a {
		a[i] /= n
	}
	return a
}

// Add accumulates b into a in place.
func Add(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: add of length %d and %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Scale multiplies a by s in place.
func Scale(a []float64, s float64) {
	for i := range a {
		a[i] *= s
	}
}

// Concat returns a new vector holding the concatenation of its arguments.
// It is used by the folding algorithms, which prepend one-hot attribute
// blocks to tag signatures.
func Concat(parts ...[]float64) []float64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]float64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// DistFunc computes a dissimilarity between two indexed points.
type DistFunc func(i, j int) float64

// Matrix is a symmetric pairwise distance matrix with a zero diagonal,
// stored in condensed upper-triangular form to halve memory: for n points
// it keeps n*(n-1)/2 float64 values.
type Matrix struct {
	n    int
	data []float64
}

// NewMatrix computes the full pairwise matrix for n points using dist.
func NewMatrix(n int, dist DistFunc) *Matrix {
	m := &Matrix{n: n, data: make([]float64, n*(n-1)/2)}
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.data[idx] = dist(i, j)
			idx++
		}
	}
	return m
}

// Len returns the number of points.
func (m *Matrix) Len() int { return m.n }

// At returns the distance between points i and j.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	// Index of (i, j), j > i, in row-major condensed storage.
	return m.data[i*(2*m.n-i-1)/2+(j-i-1)]
}

// Row returns the contiguous condensed segment holding the pairs (x, j)
// for every j > x: Row(x)[j-x-1] == At(x, j). The slice aliases the
// matrix's storage and must not be modified.
func (m *Matrix) Row(x int) []float64 {
	start := x * (2*m.n - x - 1) / 2
	return m.data[start : start+m.n-x-1 : start+m.n-x-1]
}

// Col writes point x's distance to every point into dst[:Len()]:
// dst[j] == At(j, x), with dst[x] == 0. The entries for j > x are Row(x);
// those for j < x are strided through the rows above it.
func (m *Matrix) Col(x int, dst []float64) {
	dst = dst[:m.n]
	idx := x - 1 // (0, x); (j+1, x) sits n-j-2 entries after (j, x)
	for j := 0; j < x; j++ {
		dst[j] = m.data[idx]
		idx += m.n - j - 2
	}
	dst[x] = 0
	copy(dst[x+1:], m.Row(x))
}

// AvgPairwise returns the mean of dist over all unordered pairs drawn from
// idxs. With fewer than two indices it returns 0.
func AvgPairwise(idxs []int, dist DistFunc) float64 {
	if len(idxs) < 2 {
		return 0
	}
	var sum float64
	pairs := 0
	for i := 0; i < len(idxs); i++ {
		for j := i + 1; j < len(idxs); j++ {
			sum += dist(idxs[i], idxs[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// MinPairwise returns the minimum of dist over all unordered pairs drawn
// from idxs, or 0 with fewer than two indices.
func MinPairwise(idxs []int, dist DistFunc) float64 {
	if len(idxs) < 2 {
		return 0
	}
	best := math.Inf(1)
	for i := 0; i < len(idxs); i++ {
		for j := i + 1; j < len(idxs); j++ {
			if d := dist(idxs[i], idxs[j]); d < best {
				best = d
			}
		}
	}
	return best
}
