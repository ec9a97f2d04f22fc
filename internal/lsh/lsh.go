// Package lsh implements the random-hyperplane (sign random projection)
// locality sensitive hashing scheme of Charikar (STOC 2002) used by the
// paper's SM-LSH family of algorithms (Section 4). Each of d' hash
// functions is the sign of a dot product with a random Gaussian vector;
// the collision probability of two vectors is 1 - theta/pi (Theorem 2).
//
// Unlike classical LSH usage (nearest-neighbor lookups for a query point),
// the TagDM algorithms enumerate the buckets themselves and rank them by a
// scoring function, so the package exposes buckets directly. Hashing is
// one pass: Hash computes every vector's sign bits under the first L·d'
// planes of one seeded stream, and Buckets slices those bits into the
// tables of any d' up to that width, as Algorithm 1's relaxation needs.
package lsh

import (
	"fmt"
	"math"
	"math/rand"

	"tagdm/internal/vec"
)

// Params configures hashing.
type Params struct {
	// DPrime is the number of hyperplanes (signature bits) per table.
	// Must be in [1, 64]; the paper starts at 10.
	DPrime int
	// L is the number of independent hash tables (the paper uses 1).
	L int
	// Seed drives hyperplane generation.
	Seed int64
}

// Check reports why p cannot hash n vectors: no vectors, DPrime outside
// [1, 64], or L below 1, tested in that order. Callers that do work before
// hashing check first, so a bad parameter set fails before that work.
func (p Params) Check(n int) error {
	if n == 0 {
		return fmt.Errorf("lsh: no vectors")
	}
	if p.DPrime < 1 || p.DPrime > 64 {
		return fmt.Errorf("lsh: DPrime %d out of [1, 64]", p.DPrime)
	}
	if p.L < 1 {
		return fmt.Errorf("lsh: L must be >= 1, got %d", p.L)
	}
	return nil
}

// Sparse is a set of vectors of one dimension in compressed rows: vector
// i's non-zero coordinates are Index[Start[i]:Start[i+1]], strictly
// ascending, with values Value[Start[i]:Start[i+1]]. A coordinate left
// out reads as zero. Start has one entry more than there are vectors.
type Sparse struct {
	Dim   int
	Start []int
	Index []int32
	Value []float64
}

// Len returns the number of vectors.
func (s *Sparse) Len() int { return max(len(s.Start)-1, 0) }

// Bits holds every vector's sign bits under the first width planes of a
// seeded stream. Bit b of vector i is 1 iff plane b · v_i >= 0; it lives
// in word words[i*perVec + b/64] at position b%64.
type Bits struct {
	n, width, perVec int
	words            []uint64
}

// Hash draws planes rows [0, L·DPrime) of the stream seeded by p.Seed,
// each of v.Dim Gaussian coordinates, and computes every vector's L·DPrime
// sign bits in one pass. Each dot product sums only the vector's non-zero
// coordinates, in ascending order: a left-out term is plane·(±0) = ±0, so
// the sum differs from the dense one at most in the sign of a zero, which
// the >= 0 test does not see.
func Hash(v *Sparse, p Params) (*Bits, error) {
	n := v.Len()
	if err := p.Check(n); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		prev := int32(-1)
		for _, c := range v.Index[v.Start[i]:v.Start[i+1]] {
			if c <= prev || int(c) >= v.Dim {
				return nil, fmt.Errorf("lsh: vector %d: coordinate %d out of order or outside dim %d", i, c, v.Dim)
			}
			prev = c
		}
	}
	width := p.L * p.DPrime
	// planes[c*width+r] is coordinate c of plane r: the stream is drawn
	// row by row, stored column-major so one non-zero coordinate feeds
	// all width partial sums from one contiguous run.
	planes := make([]float64, v.Dim*width)
	rng := rand.New(rand.NewSource(p.Seed))
	for r := 0; r < width; r++ {
		for c := 0; c < v.Dim; c++ {
			planes[c*width+r] = rng.NormFloat64()
		}
	}
	b := &Bits{n: n, width: width, perVec: (width + 63) / 64}
	b.words = make([]uint64, n*b.perVec)
	sums := make([]float64, width)
	for i := 0; i < n; i++ {
		clear(sums)
		lo, hi := v.Start[i], v.Start[i+1]
		for k, c := range v.Index[lo:hi] {
			x := v.Value[lo+k]
			col := planes[int(c)*width : int(c)*width+width]
			for r, pc := range col {
				sums[r] += pc * x
			}
		}
		w := b.words[i*b.perVec : (i+1)*b.perVec]
		for r, s := range sums {
			if s >= 0 {
				w[r>>6] |= 1 << uint(r&63)
			}
		}
	}
	return b, nil
}

// signature returns vector i's bits [lo, lo+w), bit lo first, for w <= 64.
func (b *Bits) signature(i, lo, w int) uint64 {
	words := b.words[i*b.perVec : (i+1)*b.perVec]
	wi, off := lo>>6, uint(lo&63)
	s := words[wi] >> off
	if int(off)+w > 64 {
		s |= words[wi+1] << (64 - off)
	}
	if w < 64 {
		s &= 1<<uint(w) - 1
	}
	return s
}

// Bucket is one hash bucket: the ids of the vectors sharing a signature in
// one table.
type Bucket struct {
	Table     int
	Signature uint64
	IDs       []int
}

// Buckets slices l tables of dprime bits each: table t's signature of a
// vector is its bits [t·dprime, (t+1)·dprime). These are the buckets a
// dense index would build from planes drawn as rows [t·dprime,
// (t+1)·dprime) of the same stream. Every non-empty bucket of every table
// is returned, sorted by (Table, Signature), with IDs ascending. It
// panics when l·dprime exceeds the hashed L·DPrime bits or dprime is
// outside [1, 64].
func (b *Bits) Buckets(l, dprime int) []Bucket {
	if dprime < 1 || dprime > 64 || l*dprime > b.width {
		panic(fmt.Sprintf("lsh: %d tables of %d bits from %d hashed bits", l, dprime, b.width))
	}
	type member struct {
		sig uint64
		id  int
	}
	members, spare := make([]member, b.n), make([]member, b.n)
	ids := make([]int, l*b.n)
	var out []Bucket
	for t := 0; t < l; t++ {
		for i := range members {
			members[i] = member{b.signature(i, t*dprime, dprime), i}
		}
		// LSD radix sort on the signature, eight bits a pass. Each pass is
		// stable and ids enter ascending, so each bucket's ids stay
		// ascending.
		src, dst := members, spare
		for shift := 0; shift < dprime; shift += 8 {
			var start [257]int
			for _, m := range src {
				start[(m.sig>>uint(shift))&0xff+1]++
			}
			for d := 1; d < len(start); d++ {
				start[d] += start[d-1]
			}
			for _, m := range src {
				d := (m.sig >> uint(shift)) & 0xff
				dst[start[d]] = m
				start[d]++
			}
			src, dst = dst, src
		}
		tids := ids[t*b.n : (t+1)*b.n]
		for i, m := range src {
			tids[i] = m.id
		}
		for lo := 0; lo < b.n; {
			hi := lo + 1
			for hi < b.n && src[hi].sig == src[lo].sig {
				hi++
			}
			out = append(out, Bucket{Table: t, Signature: src[lo].sig, IDs: tids[lo:hi:hi]})
			lo = hi
		}
	}
	return out
}

// CollisionProbability returns the theoretical single-hyperplane collision
// probability of two vectors, 1 - theta/pi (Theorem 2), exposed for tests
// and diagnostics.
func CollisionProbability(a, b []float64) float64 {
	return 1 - vec.Angle(a, b)/math.Pi
}
