// Package fdp implements the facility dispersion heuristics the paper's
// DV-FDP algorithm family is built on (Section 5): the greedy MAX-AVG
// dispersion heuristic of Ravi, Rosenkrantz and Tayi (WADS 1991), which
// carries a factor-4 performance guarantee when distances satisfy the
// triangle inequality, plus a MAX-MIN variant and an exact combinatorial
// solver for cross-checking on small instances.
//
// Points are abstract: the algorithms consume a distance oracle DistFunc
// (or a precomputed vec.Matrix) and work over indices, so callers can
// disperse tag-signature vectors, groups, or anything else.
package fdp

import (
	"fmt"
	"math"

	"tagdm/internal/vec"
)

// Accept is an optional admission predicate consulted before a candidate
// point joins the selection. The DV-FDP-Fo algorithm folds user/item hard
// constraints into the greedy add step through this hook; a nil Accept
// admits everything. It must not retain or modify selected: the
// algorithms reuse the slice for later probes and extend it after the
// call.
type Accept func(selected []int, candidate int) bool

// Result is the outcome of a dispersion run.
type Result struct {
	// Selected holds the chosen point indices in selection order.
	Selected []int
	// AvgDistance is the mean pairwise distance of the selection.
	AvgDistance float64
	// MinDistance is the minimum pairwise distance of the selection.
	MinDistance float64
}

// MaxAvg runs the greedy MAX-AVG dispersion heuristic: seed with the pair
// joined by the maximum-weight edge, then repeatedly add the point whose
// total distance to the current selection is maximal, until k points are
// chosen or no admissible candidate remains. With a nil accept and metric
// distances, the selection's average pairwise distance is within a factor
// 4 of optimal (paper Theorem 4).
func MaxAvg(n, k int, dist vec.DistFunc, accept Accept) (Result, error) {
	if err := validate(n, k); err != nil {
		return Result{}, err
	}
	a, b, ok := seedPair(n, dist, accept)
	if !ok {
		return Result{}, fmt.Errorf("fdp: no admissible seed pair among %d points", n)
	}
	return MaxAvgFrom(n, k, a, b, dist, accept)
}

// MaxAvgFrom runs MaxAvg's greedy add loop from the given seed pair (a, b)
// instead of scanning for the maximum edge. The seed is taken as given:
// callers that found it with their own scan, or that fix it for an
// ablation, are responsible for its admissibility.
func MaxAvgFrom(n, k, a, b int, dist vec.DistFunc, accept Accept) (Result, error) {
	selected, inSel, err := seeded(n, k, a, b)
	if err != nil {
		return Result{}, err
	}
	// sumDist[c] caches the total distance from candidate c to the current
	// selection, updated incrementally after each add: O(n) per iteration.
	sumDist := make([]float64, n)
	for c := 0; c < n; c++ {
		if inSel[c] {
			continue
		}
		for _, s := range selected {
			sumDist[c] += dist(c, s)
		}
	}
	for len(selected) < k {
		best, bestSum := -1, math.Inf(-1)
		for c := 0; c < n; c++ {
			if inSel[c] {
				continue
			}
			if sumDist[c] > bestSum {
				if accept != nil && !accept(selected, c) {
					continue
				}
				best, bestSum = c, sumDist[c]
			}
		}
		if best == -1 {
			break // no admissible candidate left
		}
		selected = append(selected, best)
		inSel[best] = true
		for c := 0; c < n; c++ {
			if !inSel[c] {
				sumDist[c] += dist(c, best)
			}
		}
	}
	return summarize(selected, dist), nil
}

// MaxMin runs the greedy MAX-MIN dispersion heuristic: same seeding, but
// each step adds the point maximizing the minimum distance to the current
// selection. This 2-approximates the MAX-MIN objective on metric inputs.
func MaxMin(n, k int, dist vec.DistFunc, accept Accept) (Result, error) {
	if err := validate(n, k); err != nil {
		return Result{}, err
	}
	a, b, ok := seedPair(n, dist, accept)
	if !ok {
		return Result{}, fmt.Errorf("fdp: no admissible seed pair among %d points", n)
	}
	return MaxMinFrom(n, k, a, b, dist, accept)
}

// MaxMinFrom runs MaxMin's greedy add loop from the given seed pair (a, b),
// taken as given like MaxAvgFrom's.
func MaxMinFrom(n, k, a, b int, dist vec.DistFunc, accept Accept) (Result, error) {
	selected, inSel, err := seeded(n, k, a, b)
	if err != nil {
		return Result{}, err
	}
	minDist := make([]float64, n)
	for c := 0; c < n; c++ {
		if inSel[c] {
			continue
		}
		minDist[c] = math.Inf(1)
		for _, s := range selected {
			if d := dist(c, s); d < minDist[c] {
				minDist[c] = d
			}
		}
	}
	for len(selected) < k {
		best, bestMin := -1, math.Inf(-1)
		for c := 0; c < n; c++ {
			if inSel[c] {
				continue
			}
			if minDist[c] > bestMin {
				if accept != nil && !accept(selected, c) {
					continue
				}
				best, bestMin = c, minDist[c]
			}
		}
		if best == -1 {
			break
		}
		selected = append(selected, best)
		inSel[best] = true
		for c := 0; c < n; c++ {
			if !inSel[c] {
				if d := dist(c, best); d < minDist[c] {
					minDist[c] = d
				}
			}
		}
	}
	return summarize(selected, dist), nil
}

// seeded validates a seeded run and returns its initial selection and
// membership table.
func seeded(n, k, a, b int) ([]int, []bool, error) {
	if err := validate(n, k); err != nil {
		return nil, nil, err
	}
	if a < 0 || a >= n || b < 0 || b >= n || a == b {
		return nil, nil, fmt.Errorf("fdp: seed pair (%d, %d) is not two distinct points among %d", a, b, n)
	}
	selected := make([]int, 2, k)
	selected[0], selected[1] = a, b
	inSel := make([]bool, n)
	inSel[a], inSel[b] = true, true
	return selected, inSel, nil
}

// Exact enumerates all k-subsets and returns the one maximizing average
// pairwise distance. It is exponential and intended for tests and tiny
// instances; n choose k is capped at ~50M combinations.
func Exact(n, k int, dist vec.DistFunc) (Result, error) {
	if err := validate(n, k); err != nil {
		return Result{}, err
	}
	if c := binomial(n, k); c <= 0 || c > 50_000_000 {
		return Result{}, fmt.Errorf("fdp: exact enumeration of C(%d,%d) too large", n, k)
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	best := make([]int, k)
	bestAvg := math.Inf(-1)
	for {
		if avg := vec.AvgPairwise(idx, dist); avg > bestAvg {
			bestAvg = avg
			copy(best, idx)
		}
		// Next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return summarize(best, dist), nil
}

func validate(n, k int) error {
	if k < 2 {
		return fmt.Errorf("fdp: k must be >= 2, got %d", k)
	}
	if n < k {
		return fmt.Errorf("fdp: need at least k=%d points, have %d", k, n)
	}
	return nil
}

// seedPair finds the admissible pair with maximum distance: the first pair
// (i < j) in row-major order among those with the largest distance that
// accept admits in both directions. One probe buffer serves every accept
// call.
func seedPair(n int, dist vec.DistFunc, accept Accept) (int, int, bool) {
	bi, bj := -1, -1
	best := math.Inf(-1)
	probe := make([]int, 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := dist(i, j); d > best {
				if accept != nil {
					probe[0] = i
					if !accept(probe, j) {
						continue
					}
					probe[0] = j
					if !accept(probe, i) {
						continue
					}
				}
				best, bi, bj = d, i, j
			}
		}
	}
	return bi, bj, bi != -1
}

func summarize(selected []int, dist vec.DistFunc) Result {
	return Result{
		Selected:    selected,
		AvgDistance: vec.AvgPairwise(selected, dist),
		MinDistance: vec.MinPairwise(selected, dist),
	}
}

func binomial(n, k int) int64 {
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		c = c * int64(n-i) / int64(i+1)
		if c < 0 || c > 1<<60 {
			return -1
		}
	}
	return c
}
