package mining

import (
	"reflect"
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

// SumOver accumulates the pair scores of all unordered pairs drawn from
// ids, in the same row-major (i < j) order Func.Eval visits them, so the
// floating-point result is bit-identical to summing the naive pair calls.
func (m *PairMatrix) SumOver(ids []int) float64 {
	var s float64
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			s += m.mat.At(ids[i], ids[j])
		}
	}
	return s
}

// MeanOver is the mean pair score over ids — the Mean aggregation of
// Definition 3 — computed without materializing the scores. Fewer than two
// ids score 0, matching Func.Eval.
func (m *PairMatrix) MeanOver(ids []int) float64 {
	k := len(ids)
	if k < 2 {
		return 0
	}
	return m.SumOver(ids) / float64(k*(k-1)/2)
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

// MinOver is the minimum pair score over ids (the Min aggregation); fewer
// than two ids score 0.
func (m *PairMatrix) MinOver(ids []int) float64 {
	if len(ids) < 2 {
		return 0
	}
	best := m.mat.At(ids[0], ids[1])
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if v := m.mat.At(ids[i], ids[j]); v < best {
				best = v
			}
		}
	}
	return best
}

var (
	meanPtr = reflect.ValueOf(Aggregator(Mean)).Pointer()
	minPtr  = reflect.ValueOf(Aggregator(Min)).Pointer()
)

// EvalMatrix computes the same aggregate as Eval but over the cached
// matrix, identified by group IDs instead of group pointers. The package
// aggregators (Mean — also the nil default — and Min) stream over the
// matrix with zero allocations; a custom Aggregator still works but pays
// one scores-slice allocation, exactly as Eval does.
func (f Func) EvalMatrix(m *PairMatrix, ids []int) float64 {
	if len(ids) < 2 {
		return 0
	}
	switch {
	case f.Agg == nil:
		return m.MeanOver(ids)
	default:
		switch reflect.ValueOf(f.Agg).Pointer() {
		case meanPtr:
			return m.MeanOver(ids)
		case minPtr:
			return m.MinOver(ids)
		}
	}
	scores := make([]float64, 0, len(ids)*(len(ids)-1)/2)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			scores = append(scores, m.mat.At(ids[i], ids[j]))
		}
	}
	return f.Agg(scores)
}

// IncrementalEval maintains the running pair-sum of a candidate set that
// grows and shrinks one group at a time — the access pattern of a
// depth-first enumeration. Push extends the set by one group at O(k) matrix
// lookups (instead of the O(k^2) recompute of evaluating the set afresh);
// Pop backtracks in O(1).
//
// Internally it keeps a stack of cumulative sums rather than one running
// accumulator adjusted by +delta/-delta: floating-point addition does not
// cancel exactly under subtraction, so a push/pop/push sequence would
// otherwise drift away from the forward-computed sum and break the exact
// determinism the brute-force baseline promises.
type IncrementalEval struct {
	m    *PairMatrix
	ids  []int
	sums []float64
}

// NewIncrementalEval returns an empty evaluator over m with capacity for
// sets of up to capHint groups (grown as needed).
func NewIncrementalEval(m *PairMatrix, capHint int) *IncrementalEval {
	if capHint < 0 {
		capHint = 0
	}
	return &IncrementalEval{
		m:    m,
		ids:  make([]int, 0, capHint),
		sums: make([]float64, 0, capHint),
	}
}

// Reset empties the set without releasing capacity.
func (e *IncrementalEval) Reset() {
	e.ids = e.ids[:0]
	e.sums = e.sums[:0]
}

// Push adds group id to the set, accumulating its pair scores against every
// member one pair at a time. Pairs arrive in incremental order — all pairs
// of the first d groups before any pair involving group d+1 — which
// coincides with Eval's row-major order for sets of up to three groups (the
// paper's k), making Mean bit-identical to Eval there; for larger sets the
// same pairs are summed in a different association order, so results agree
// only up to floating-point rounding.
func (e *IncrementalEval) Push(id int) {
	var sum float64
	if n := len(e.sums); n > 0 {
		sum = e.sums[n-1]
	}
	for _, x := range e.ids {
		sum += e.m.At(x, id)
	}
	e.ids = append(e.ids, id)
	e.sums = append(e.sums, sum)
}

// Pop removes the most recently pushed group.
func (e *IncrementalEval) Pop() {
	e.ids = e.ids[:len(e.ids)-1]
	e.sums = e.sums[:len(e.sums)-1]
}

// Len returns the current set size.
func (e *IncrementalEval) Len() int { return len(e.ids) }

// IDs returns the current set contents; the slice is owned by the
// evaluator and only valid until the next Push/Pop/Reset.
func (e *IncrementalEval) IDs() []int { return e.ids }

// Sum returns the pair-sum of the current set (0 below two groups).
func (e *IncrementalEval) Sum() float64 {
	if len(e.sums) == 0 {
		return 0
	}
	return e.sums[len(e.sums)-1]
}

// Mean returns the mean pair score of the current set, 0 below two groups.
func (e *IncrementalEval) Mean() float64 {
	k := len(e.ids)
	if k < 2 {
		return 0
	}
	return e.Sum() / float64(k*(k-1)/2)
}
