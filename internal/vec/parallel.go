package vec

import (
	"runtime"
	"sync"
)

// NewMatrixParallel computes the same condensed pairwise matrix as
// NewMatrix but splits the row range across workers goroutines (default:
// GOMAXPROCS when workers <= 0). dist must be safe for concurrent calls —
// pure functions over immutable data, which every distance in this
// codebase is. Row i owns the contiguous condensed segment of pairs
// (i, i+1..n-1), so workers write disjoint slices and need no locking.
func NewMatrixParallel(n int, dist DistFunc, workers int) *Matrix {
	return NewMatrixParallelFrom(n, nil, nil, dist, workers)
}

// NewMatrixParallelFrom computes the matrix NewMatrixParallel(n, dist,
// workers) would, but copies entry (i, j) from prev — bit-identically, no
// recomputation — whenever both endpoints lie inside prev's point range and
// neither is marked dirty. dirty is indexed by prev's points and marks the
// rows/columns whose underlying data changed since prev was built; points
// at or beyond prev.Len() are always recomputed, and prev's points at or
// beyond n are dropped. prev must have been built over the same dist
// semantics (clean entries are trusted verbatim); a nil prev carries
// nothing.
func NewMatrixParallelFrom(n int, prev *Matrix, dirty []bool, dist DistFunc, workers int) *Matrix {
	m := &Matrix{n: n, data: make([]float64, n*(n-1)/2)}
	if n < 2 {
		return m
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	pn := 0
	if prev != nil {
		pn = min(prev.n, len(dirty), n)
	}
	fill := func(i int) {
		base := i*(2*n-i-1)/2 - i // offset of pair (i, i+1)
		if i < pn && !dirty[i] {
			pbase := i*(2*prev.n-i-1)/2 - i
			for j := i + 1; j < pn; j++ {
				if dirty[j] {
					m.data[base+j-1] = dist(i, j)
				} else {
					m.data[base+j-1] = prev.data[pbase+j-1]
				}
			}
			for j := pn; j < n; j++ {
				m.data[base+j-1] = dist(i, j)
			}
			return
		}
		for j := i + 1; j < n; j++ {
			m.data[base+j-1] = dist(i, j)
		}
	}
	// Rows shrink as i grows (row i has n-1-i pairs), so static striding
	// (worker w takes rows w, w+workers, ...) balances load well enough.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fill(i)
			}
		}(w)
	}
	wg.Wait()
	return m
}
