package mining

import "tagdm/internal/groups"

// LazyPairs serves pair scores by calling the pair function directly —
// the pre-matrix scoring path, for solvers whose expected pair volume is
// far below n²/2 (a cold one-shot SM-LSH solve) or whose matrix would not
// fit the engine's budget, so they skip the O(n²) build entirely. It
// visits the pairs of an id set in the same row-major (i < j) order as
// PairMatrix and Func.Eval, so its aggregates are bit-identical to both.
// Stateless and safe for concurrent readers as long as the pair function
// is (every function in this codebase is a pure read over immutable
// groups).
type LazyPairs struct {
	gs   []*groups.Group
	pair PairFunc
}

// NewLazyPairs wraps a pair function over the enumerated group universe.
func NewLazyPairs(gs []*groups.Group, pair PairFunc) *LazyPairs {
	return &LazyPairs{gs: gs, pair: pair}
}

// At evaluates the pair function for groups i and j, normalizing the
// argument order to (low, high) exactly as the matrix build does, so the
// value is bit-identical to the matrix entry.
func (l *LazyPairs) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return l.pair(l.gs[i], l.gs[j])
}

// MeanOver is the Mean aggregation over ids (0 below two ids), summing
// pair scores in Func.Eval's row-major order.
func (l *LazyPairs) MeanOver(ids []int) float64 {
	k := len(ids)
	if k < 2 {
		return 0
	}
	var s float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			s += l.At(ids[i], ids[j])
		}
	}
	return s / float64(k*(k-1)/2)
}
