package mining

import (
	"sync"

	"tagdm/internal/groups"
	"tagdm/internal/vec"
)

// PairMatrix caches a pair function over every unordered pair of an
// enumerated group universe in condensed upper-triangular form
// (n*(n-1)/2 float64 for n groups). Solvers that score millions of
// candidate sets — the Exact baseline above all — pay each pair once at
// build time and read pure float lookups afterwards. A built matrix is
// immutable and safe for concurrent readers.
type PairMatrix struct {
	mat *vec.Matrix

	// Bound vectors for branch-and-bound pruning, derived from the matrix
	// on first use and cached for its lifetime (the matrix is immutable, so
	// they can never go stale; the engine invalidating a matrix drops its
	// vectors with it).
	boundOnce sync.Once
	maxRows   []float64
	maxPair   float64
}

// NewPairMatrix evaluates pair over all unordered pairs of gs, splitting
// rows across workers goroutines (<= 0 means GOMAXPROCS). Groups must carry
// their dense enumeration IDs: entry (i, j) is pair(gs[i], gs[j]).
func NewPairMatrix(gs []*groups.Group, pair PairFunc, workers int) *PairMatrix {
	return &PairMatrix{mat: vec.NewMatrixParallel(len(gs), func(i, j int) float64 {
		return pair(gs[i], gs[j])
	}, workers)}
}

// RebuildRows builds the matrix for the (possibly grown) universe gs while
// reusing this matrix's entries for every pair of clean carried-over
// groups: entry (i, j) is recomputed through pair only when i or j is
// marked dirty or lies beyond the receiver's universe, and copied verbatim
// otherwise. dirty is indexed by the receiver's group IDs (group IDs are
// stable and append-only across snapshot epochs). The result is
// bit-identical to NewPairMatrix(gs, pair, workers) whenever the carried
// entries are still valid — i.e. dirty covers every group whose predicate
// or signature changed — which the epoch carry-over property tests pin.
// The receiver is not modified.
func (m *PairMatrix) RebuildRows(gs []*groups.Group, pair PairFunc, dirty []bool, workers int) *PairMatrix {
	return &PairMatrix{mat: vec.NewMatrixParallelFrom(len(gs), m.mat, dirty, func(i, j int) float64 {
		return pair(gs[i], gs[j])
	}, workers)}
}

// Len returns the number of groups the matrix covers.
func (m *PairMatrix) Len() int { return m.mat.Len() }

// Bytes is the resident size of the condensed score storage, the quantity
// the engine's matrix budget accounts in.
func (m *PairMatrix) Bytes() int64 { return int64(m.mat.Len()) * int64(m.mat.Len()-1) / 2 * 8 }

// At returns the cached pair score of groups i and j (0 on the diagonal).
func (m *PairMatrix) At(i, j int) float64 { return m.mat.At(i, j) }

// Row returns group x's scores against every later group in one
// contiguous read-only slice: Row(x)[j-x-1] == At(x, j) for j > x. Scans
// over many partners j of a fixed x read it instead of calling At per pair.
func (m *PairMatrix) Row(x int) []float64 { return m.mat.Row(x) }

// Col writes group x's scores against every group into dst[:Len()]:
// dst[j] == At(j, x), with dst[x] == 0.
func (m *PairMatrix) Col(x int, dst []float64) { m.mat.Col(x, dst) }

// MeanOver is the mean pair score over ids — the Mean aggregation of
// Definition 3 — computed without materializing the scores. Pairs are
// summed in the same row-major (i < j) order Func.Eval visits them, so the
// result is bit-identical to the naive evaluation. Fewer than two ids
// score 0, matching Func.Eval.
func (m *PairMatrix) MeanOver(ids []int) float64 {
	k := len(ids)
	if k < 2 {
		return 0
	}
	var s float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			s += m.mat.At(ids[i], ids[j])
		}
	}
	return s / float64(k*(k-1)/2)
}

// MaxRows returns the matrix's bound vector: entry i is the largest pair
// score group i attains against any other group (0 when the universe has
// fewer than two groups, where no pair exists to bound). Together with
// MaxPair it gives an admissible upper bound on the pair-sum of any
// superset of a partial candidate — the branch-and-bound cut the Exact
// solver applies. The slice is computed once per matrix, cached, and must
// not be mutated; concurrent callers are safe.
func (m *PairMatrix) MaxRows() []float64 {
	m.buildBounds()
	return m.maxRows
}

// MaxPair returns the largest pair score anywhere in the matrix (0 below
// two groups), bounding pairs whose members are both still unchosen.
func (m *PairMatrix) MaxPair() float64 {
	m.buildBounds()
	return m.maxPair
}

func (m *PairMatrix) buildBounds() {
	m.boundOnce.Do(func() {
		n := m.mat.Len()
		m.maxRows = make([]float64, n)
		if n < 2 {
			return
		}
		for i := 0; i < n; i++ {
			best := 0.0
			first := true
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if v := m.mat.At(i, j); first || v > best {
					best, first = v, false
				}
			}
			m.maxRows[i] = best
		}
		m.maxPair = m.maxRows[0]
		for _, v := range m.maxRows[1:] {
			if v > m.maxPair {
				m.maxPair = v
			}
		}
	})
}
