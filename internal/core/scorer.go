package core

import (
	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/store"
)

// matrixScorer evaluates candidate sets — identified by dense group IDs —
// against one spec through per-binding pair sources: precomputed pair
// matrices when materialized (pure float lookups in the hot loop), lazy or
// blocked-row sources on gated one-shot solves. Decisions and scores are
// bit-identical across source kinds and to ObjectiveScore/
// ConstraintsSatisfied, whose pair visit order every source replicates.
//
// The objMats/conMats/objSrc/conSrc fields are immutable and safe to read
// from many goroutines, but idsOf and support mutate the scorer's scratch
// buffers: those methods belong to one goroutine. Matrices come from the engine's shared cache,
// so building a second scorer for the same spec costs nothing new.
type matrixScorer struct {
	spec   ProblemSpec
	groups []*groups.Group
	// objMats/conMats hold the concrete matrices — non-nil for every
	// binding on a fully-materializing scorer (Exact's devirtualized
	// workers and its branch-and-bound bounds need them), nil per binding
	// served lazily on a gated scorer. objSrc/conSrc are the uniform
	// scoring surface objective/pairObjective/feasible read.
	objMats []*mining.PairMatrix
	conMats []*mining.PairMatrix
	objSrc  []mining.PairSource
	conSrc  []mining.PairSource

	ids      []int         // reusable id buffer for set-based callers
	scratch  *store.Bitmap // reusable support union for k >= 3, lazily built
	universe int           // scratch universe (the store's tuple count)

	// Cache-outcome tally per binding this scorer resolved; solvers copy
	// it onto Result. Exactly one field fires per binding.
	builds   int
	rebuilds int
	hits     int
	lazy     int
}

// scorer builds a fully-materializing matrix scorer for spec: every
// binding gets a concrete matrix, built through the engine cache when
// missing. Exact (which needs matrix bounds) and the repeated-solve
// families use this path.
func (e *Engine) scorer(spec ProblemSpec) *matrixScorer {
	s := newScorer(e, spec)
	for i, o := range spec.Objectives {
		m, outcome := e.pairMatrixTracked(o.Dim, o.Meas)
		s.objMats[i], s.objSrc[i] = m, m
		s.note(outcome)
	}
	for i, c := range spec.Constraints {
		m, outcome := e.pairMatrixTracked(c.Dim, c.Meas)
		s.conMats[i], s.conSrc[i] = m, m
		s.note(outcome)
	}
	return s
}

// gatedScorer builds a scorer that avoids O(n²) materialization where it
// can: a binding already cached scores through its matrix (a hit), and an
// uncached binding scores through the lazy pair function when preferLazy
// holds (the adaptive gate decided expected pair volume is far below
// n²/2), through a budget-bounded blocked-row source when a full matrix
// cannot fit the cache budget, and through a freshly built matrix
// otherwise. Only SM-LSH uses this: its bucket scans touch a small,
// skewed subset of pairs, so a cold one-shot solve shouldn't pay the full
// build the repeated-solve families amortize.
func (e *Engine) gatedScorer(spec ProblemSpec, preferLazy bool) *matrixScorer {
	s := newScorer(e, spec)
	n := len(e.Groups)
	resolve := func(dim mining.Dimension, meas mining.Measure) (*mining.PairMatrix, mining.PairSource) {
		k := pairKey{dim, meas}
		if m := e.cache.lookup(k); m != nil {
			s.hits++
			return m, m
		}
		matrixBytes := int64(n) * int64(n-1) / 2 * 8
		switch {
		case preferLazy:
			s.lazy++
			return nil, mining.NewLazyPairs(e.Groups, e.PairFunc(dim, meas))
		case e.cache.overBudget(matrixBytes):
			// A full matrix cannot fit even an empty cache: degrade to
			// blocked rows capped at a quarter of the budget.
			s.lazy++
			maxRows := int(e.cache.Budget() / 4 / (8 * int64(n)))
			return nil, mining.NewBlockedPairs(e.Groups, e.PairFunc(dim, meas), maxRows)
		default:
			m, outcome := e.pairMatrixTracked(dim, meas)
			s.note(outcome)
			return m, m
		}
	}
	for i, o := range spec.Objectives {
		s.objMats[i], s.objSrc[i] = resolve(o.Dim, o.Meas)
	}
	for i, c := range spec.Constraints {
		s.conMats[i], s.conSrc[i] = resolve(c.Dim, c.Meas)
	}
	return s
}

func newScorer(e *Engine, spec ProblemSpec) *matrixScorer {
	return &matrixScorer{
		spec:     spec,
		groups:   e.Groups,
		objMats:  make([]*mining.PairMatrix, len(spec.Objectives)),
		conMats:  make([]*mining.PairMatrix, len(spec.Constraints)),
		objSrc:   make([]mining.PairSource, len(spec.Objectives)),
		conSrc:   make([]mining.PairSource, len(spec.Constraints)),
		universe: e.Store.Len(),
	}
}

func (s *matrixScorer) note(outcome matrixOutcome) {
	switch outcome {
	case matrixBuilt:
		s.builds++
	case matrixRebuilt:
		s.rebuilds++
	default:
		s.hits++
	}
}

// objectiveBounds returns, per objective binding, the matrix's max-row
// vector and its global maximum pair score — the ingredients of the Exact
// branch-and-bound upper bound. The vectors are cached inside the shared
// immutable matrices (see mining.PairMatrix.MaxRows), so they follow the
// engine's matrix cache: built at most once per binding, dropped with the
// matrix when SetPairFunc invalidates it, and safe to read from every
// shard partial scoring through the same matrices. Only fully-materializing scorers may call
// this (Exact never runs gated).
func (s *matrixScorer) objectiveBounds() (maxRows [][]float64, maxPair []float64) {
	maxRows = make([][]float64, len(s.objMats))
	maxPair = make([]float64, len(s.objMats))
	for i, m := range s.objMats {
		maxRows[i] = m.MaxRows()
		maxPair[i] = m.MaxPair()
	}
	return maxRows, maxPair
}

// idsOf maps a group set to its id slice, reusing the scorer's buffer. The
// result is valid until the next idsOf call.
func (s *matrixScorer) idsOf(set []*groups.Group) []int {
	s.ids = s.ids[:0]
	for _, g := range set {
		s.ids = append(s.ids, g.ID)
	}
	return s.ids
}

// objective is the weighted objective sum of a candidate set, equal to
// Engine.ObjectiveScore on the corresponding groups.
func (s *matrixScorer) objective(ids []int) float64 {
	var total float64
	for oi, o := range s.spec.Objectives {
		total += o.Weight * s.objSrc[oi].MeanOver(ids)
	}
	return total
}

// pairObjective is the weighted objective pair score of two groups — the
// greedy "distance" DV-FDP disperses over.
func (s *matrixScorer) pairObjective(i, j int) float64 {
	var total float64
	for oi, o := range s.spec.Objectives {
		total += o.Weight * s.objSrc[oi].At(i, j)
	}
	return total
}

// feasible makes the same accept/reject decision as
// Engine.ConstraintsSatisfied, in the same order: group-count bounds, hard
// constraints (trivially met below two groups), then the support floor with
// the cheap size-sum reject first.
func (s *matrixScorer) feasible(ids []int) bool {
	k := len(ids)
	if k < s.spec.KLo || k > s.spec.KHi {
		return false
	}
	if k >= 2 {
		for ci, c := range s.spec.Constraints {
			if s.conSrc[ci].MeanOver(ids) < c.Threshold {
				return false
			}
		}
	}
	if s.spec.MinSupport > 0 {
		sum := 0
		for _, id := range ids {
			sum += s.groups[id].Size()
		}
		if sum < s.spec.MinSupport {
			return false
		}
		if s.support(ids) < s.spec.MinSupport {
			return false
		}
	}
	return true
}

// support is the group support (Definition 1) of the set, computed without
// allocating: small unions count directly, larger ones accumulate into the
// scorer's scratch bitmap.
func (s *matrixScorer) support(ids []int) int {
	switch len(ids) {
	case 0:
		return 0
	case 1:
		return s.groups[ids[0]].Size()
	case 2:
		return s.groups[ids[0]].Tuples.OrCount(s.groups[ids[1]].Tuples)
	}
	if s.scratch == nil {
		// Lazy: Exact workers keep their own per-depth unions and never
		// reach here, so they skip the buffer entirely.
		s.scratch = store.NewBitmap(s.universe)
	}
	count := s.groups[ids[0]].Tuples.UnionCountInto(s.groups[ids[1]].Tuples, s.scratch)
	for _, id := range ids[2:] {
		count = s.scratch.UnionCountInto(s.groups[id].Tuples, s.scratch)
	}
	return count
}
