package signature

import (
	"fmt"
	"math"
)

// Sparse is a read-only view of a signature set: for each signature the
// ascending positions of its non-zero weights, plus its L2 norm.
// Signatures are mostly zero (a group's frequency signature sets a dozen
// of its 400 coordinates), so every consumer of the set reads this one
// view instead of rescanning dense weights: the tag pair measure's cosine
// and SM-LSH's hash vectors. The positions of the signatures one
// NewSparse call scans share one slab, except that signatures with no zero
// weight (LDA topic mixtures) all share one 0..dim-1 row, so a dense set
// costs a row header and a norm per signature. The view aliases the
// signatures, whose weights stay the values' source and must not change
// while any view holds them.
type Sparse struct {
	sigs []Signature
	dim  int
	nnz  int
	rows [][]int32
	norm []float64
	full []int32 // the shared 0..dim-1 row, nil until a signature needs it
}

// InvalidError reports a signature set that cannot be scored: a signature
// whose length differs from the first signature's, or a NaN or ±Inf weight.
type InvalidError struct {
	// Index is the offending signature's position in the set.
	Index int
	// Dim is its length and Want the set's (the first signature's).
	Dim, Want int
	// Coord is the position of the non-finite weight, -1 for a length
	// mismatch; Value is that weight.
	Coord int
	Value float64
}

func (e *InvalidError) Error() string {
	if e.Coord < 0 {
		return fmt.Sprintf("signature: signature %d has dim %d, want %d", e.Index, e.Dim, e.Want)
	}
	return fmt.Sprintf("signature: signature %d has weight %v at coordinate %d", e.Index, e.Value, e.Coord)
}

// NewSparse validates sigs and builds their view. prev, when non-nil, is
// an earlier view to carry from: signature i keeps prev's row and norm
// when it holds the very weights slice that prev's signature i held, and
// only the other signatures are scanned and validated. Weights are never
// changed in place, so the same slice holds the same values, which prev
// already validated and scanned; a maintainer that re-summarizes a few
// groups per epoch pays for those groups, not for every weight. Each norm
// sums the squares of the non-zero weights in ascending order: a left-out
// zero adds +0, so it is bit-identical to the dense vec.Norm, and a
// carried row and norm equal a rescan bit for bit. Rescanned rows share
// one new slab; carried rows keep pointing into the slabs of the views
// they came from.
func NewSparse(sigs []Signature, prev *Sparse) (*Sparse, error) {
	v := &Sparse{sigs: sigs, rows: make([][]int32, len(sigs)), norm: make([]float64, len(sigs))}
	if len(sigs) > 0 {
		v.dim = len(sigs[0].Weights)
	}
	if prev != nil && prev.dim == v.dim {
		v.full = prev.full
	}
	const noZero, carried = -1, -2
	var slab []int32
	ends := make([]int, len(sigs)) // row i ends at slab[ends[i]], or noZero or carried
	for i, s := range sigs {
		w := s.Weights
		if len(w) != v.dim {
			return nil, &InvalidError{Index: i, Dim: len(w), Want: v.dim, Coord: -1}
		}
		if prev.holds(i, w) {
			v.rows[i], v.norm[i] = prev.rows[i], prev.norm[i]
			v.nnz += len(v.rows[i])
			ends[i] = carried
			continue
		}
		lo := len(slab)
		var sq float64
		for c, x := range w {
			if x == 0 {
				continue
			}
			if x-x != 0 { // NaN or ±Inf, neither of which equals 0
				return nil, &InvalidError{Index: i, Dim: len(w), Want: v.dim, Coord: c, Value: x}
			}
			slab = append(slab, int32(c))
			sq += x * x
		}
		v.norm[i] = math.Sqrt(sq)
		v.nnz += len(slab) - lo
		ends[i] = len(slab)
		if len(slab)-lo == v.dim {
			slab, ends[i] = slab[:lo], noZero
		}
	}
	lo := 0
	for i, end := range ends {
		switch {
		case end == carried:
		case end >= 0:
			v.rows[i], lo = slab[lo:end:end], end
		default:
			if v.full == nil {
				v.full = make([]int32, v.dim)
				for c := range v.full {
					v.full[c] = int32(c)
				}
			}
			v.rows[i] = v.full
		}
	}
	return v, nil
}

// holds reports whether v's signature i is the weights slice w itself
// (same first element and length); false for a nil view or an i past it.
func (v *Sparse) holds(i int, w []float64) bool {
	if v == nil || i >= len(v.sigs) {
		return false
	}
	p := v.sigs[i].Weights
	return len(p) == len(w) && (len(w) == 0 || &p[0] == &w[0])
}

// Len returns the number of signatures.
func (v *Sparse) Len() int { return len(v.rows) }

// Signatures returns the signatures the view was built over (aliased,
// read-only).
func (v *Sparse) Signatures() []Signature { return v.sigs }

// Dim returns the common signature length.
func (v *Sparse) Dim() int { return v.dim }

// NNZ returns the number of non-zero weights over all signatures.
func (v *Sparse) NNZ() int { return v.nnz }

// Nonzeros returns the ascending positions of signature i's non-zero
// weights. The slice aliases the view and must not be modified.
func (v *Sparse) Nonzeros(i int) []int32 { return v.rows[i] }

// Weights returns signature i's dense weights (aliased, read-only).
func (v *Sparse) Weights(i int) []float64 { return v.sigs[i].Weights }

// Norm returns signature i's L2 norm.
func (v *Sparse) Norm(i int) float64 { return v.norm[i] }

// Cosine returns the cosine similarity of signatures i and j in [-1, 1],
// 0 when either is the zero vector — bit-identical to vec.Cosine over the
// dense weights. The dot product walks the shorter row's non-zeros in
// ascending order and reads the other signature's dense weight at each.
// The terms it leaves out are products with a zero factor, so ±0, and
// adding ±0 never changes the dense loop's running sum: the sum starts at
// +0 and round-to-nearest addition never yields -0 from it, so a skipped
// term meets either +0 (giving +0) or a non-zero sum (unchanged).
func (v *Sparse) Cosine(i, j int) float64 {
	ni, nj := v.norm[i], v.norm[j]
	if ni == 0 || nj == 0 {
		return 0
	}
	walk, a, b := v.rows[i], v.sigs[i].Weights, v.sigs[j].Weights
	if other := v.rows[j]; len(other) < len(walk) {
		walk, a, b = other, b, a
	}
	var s float64
	for _, c := range walk {
		s += a[c] * b[c]
	}
	c := s / (ni * nj)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}
