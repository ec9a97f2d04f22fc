package core

import (
	"fmt"
	"time"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Engine binds a store, its enumerated groups and their tag signatures, and
// evaluates TagDM problem specs with any of the algorithm families.
type Engine struct {
	Store  *store.Store
	Groups []*groups.Group
	// Sigs holds each group's tag signature, validated once by NewEngine:
	// the tag measure's cosine and SM-LSH's hash vectors both read it.
	Sigs []signature.Signature

	// cache is the matrix lifecycle this engine scores through: pair
	// matrices build lazily (single-flight) on first use, pair-function
	// overrides live beside them, and a budget bounds residency. A fresh
	// engine gets a private cache, which every concurrent solve and shard
	// partial on the engine shares; Maintainer.Snapshot links every
	// epoch's cache to one shared Carry so clean rows carry over instead
	// of rebuilding from scratch.
	cache *MatrixCache
}

type pairKey struct {
	dim  mining.Dimension
	meas mining.Measure
}

// NewEngine prepares an engine. Groups must carry their enumeration IDs
// (0..len-1) and sigs must be indexed by group ID, all of one length and
// with finite weights; a signature set that breaks either is rejected with
// a *signature.InvalidError. The engine aliases sigs, which must not change
// afterwards; validating them costs O(groups) (signature.Validate).
func NewEngine(s *store.Store, gs []*groups.Group, sigs []signature.Signature) (*Engine, error) {
	if err := signature.Validate(sigs); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(gs) != len(sigs) {
		return nil, fmt.Errorf("core: %d groups but %d signatures", len(gs), len(sigs))
	}
	for i, g := range gs {
		if g.ID != i {
			return nil, fmt.Errorf("core: group at position %d has ID %d; re-enumerate before building the engine", i, g.ID)
		}
	}
	return &Engine{
		Store:  s,
		Groups: gs,
		Sigs:   sigs,
		cache:  newMatrixCache(),
	}, nil
}

// Cache exposes the engine's matrix cache for lifecycle wiring: budget
// configuration, epoch carry-over (MatrixCache.UseCarry) and stats
// export. Solvers never touch it directly.
func (e *Engine) Cache() *MatrixCache { return e.cache }

// AdoptCache points this engine at from's matrix cache, discarding its
// own. Snapshot.Replicate uses it so a replica engine shares the epoch's
// matrices and SetPairFunc overrides instead of rebuilding (and
// re-installing) them; this is only sound when both engines hold
// bit-identical groups and signatures, which replication guarantees. Call
// before the engine serves queries.
func (e *Engine) AdoptCache(from *Engine) { e.cache = from.cache }

// SetMatrixBudget caps the resident bytes of this engine's pair-matrix
// cache (0 = unlimited). Above the budget the coldest bindings are
// evicted, and SM-LSH scores a binding whose full matrix cannot fit
// through the lazy pair function; results are unchanged, only the
// time/memory trade moves.
func (e *Engine) SetMatrixBudget(bytes int64) { e.cache.SetBudget(bytes) }

// MatrixStats reports the engine's matrix-cache residency and eviction
// counters, exported by the server as tagdm_matrix_bytes and
// tagdm_matrix_evictions_total.
func (e *Engine) MatrixStats() MatrixCacheStats { return e.cache.Stats() }

// PairFunc returns the concrete pair function for a binding: the
// SetPairFunc override when one is installed, the paper's standard
// measure otherwise.
func (e *Engine) PairFunc(dim mining.Dimension, meas mining.Measure) mining.PairFunc {
	if f, ok := e.cache.override(pairKey{dim, meas}); ok {
		return f
	}
	return mining.For(e.Store, e.Sigs, dim, meas).Pair
}

// SetPairFunc overrides the concrete measure for one (dimension, measure)
// binding — e.g. swapping structural item similarity for the rating-aware
// Jaccard of Section 2.1.1, or a domain-aware value comparison. The paper
// deliberately leaves the measures pluggable; this is the plug. Pass the
// similarity form and the engine derives nothing: each binding is set
// independently, so set both (dim, Similarity) and (dim, Diversity) when
// both appear in specs.
func (e *Engine) SetPairFunc(dim mining.Dimension, meas mining.Measure, f mining.PairFunc) {
	// The cache drops any matrix embodying the old measure and bumps the
	// binding version so an in-flight build of it cannot repopulate the
	// cache. Replicas sharing this engine's cache see the override too.
	e.cache.setOverride(pairKey{dim, meas}, f)
}

// PairMatrix returns the precomputed pair matrix for a binding, building it
// over all engine groups on first use (n*(n-1)/2 float64 per binding, rows
// parallelized across GOMAXPROCS). Concurrent first calls single-flight
// behind the cache: one builds, the rest share the result. A build that
// raced a SetPairFunc override is discarded and retried against the new
// function.
func (e *Engine) PairMatrix(dim mining.Dimension, meas mining.Measure) *mining.PairMatrix {
	m, _ := e.pairMatrixTracked(dim, meas)
	return m
}

// pairMatrixTracked is PairMatrix plus the cache-outcome report solvers
// aggregate into Result.MatrixBuilds/MatrixRebuilds/MatrixHits: exactly
// one caller per physical materialization observes matrixBuilt (scratch)
// or matrixRebuilt (dirty-row carry from another epoch); everyone
// else — including callers that waited on that build — observes
// matrixHit.
func (e *Engine) pairMatrixTracked(dim mining.Dimension, meas mining.Measure) (*mining.PairMatrix, matrixOutcome) {
	return e.cache.matrix(pairKey{dim, meas}, func(prev *mining.PairMatrix, dirty []bool) *mining.PairMatrix {
		pair := e.PairFunc(dim, meas)
		if prev != nil {
			return prev.RebuildRows(e.Groups, pair, dirty, 0)
		}
		return mining.NewPairMatrix(e.Groups, pair, 0)
	})
}

// PrewarmMatrices builds every pair matrix a spec's constraints and
// objectives will read, so later solver runs (and concurrent requests
// sharing the engine) start on warm lookups.
func (e *Engine) PrewarmMatrices(spec ProblemSpec) {
	for _, c := range spec.Constraints {
		e.PairMatrix(c.Dim, c.Meas)
	}
	for _, o := range spec.Objectives {
		e.PairMatrix(o.Dim, o.Meas)
	}
}

// miningFunc builds the full aggregate function for a binding.
func (e *Engine) miningFunc(dim mining.Dimension, meas mining.Measure) mining.Func {
	return mining.Func{Dim: dim, Meas: meas, Pair: e.PairFunc(dim, meas), Agg: mining.Mean}
}

// ObjectiveScore computes the weighted objective sum of a candidate set.
func (e *Engine) ObjectiveScore(set []*groups.Group, spec ProblemSpec) float64 {
	var total float64
	for _, o := range spec.Objectives {
		total += o.Weight * e.miningFunc(o.Dim, o.Meas).Eval(set)
	}
	return total
}

// ConstraintsSatisfied reports whether a candidate set meets every hard
// constraint plus the support floor. Sets smaller than 2 trivially satisfy
// pair-based constraints (no pair evidence against them) but still face the
// support check.
func (e *Engine) ConstraintsSatisfied(set []*groups.Group, spec ProblemSpec) bool {
	if len(set) < spec.KLo || len(set) > spec.KHi {
		return false
	}
	for _, c := range spec.Constraints {
		if len(set) < 2 {
			continue
		}
		if e.miningFunc(c.Dim, c.Meas).Eval(set) < c.Threshold {
			return false
		}
	}
	if spec.MinSupport > 0 {
		// Fast reject: the union can never exceed the size sum, so a
		// cheap sum below the floor avoids the bitmap union entirely.
		// This matters for Exact, which checks millions of candidates.
		sum := 0
		for _, g := range set {
			sum += g.Size()
		}
		if sum < spec.MinSupport {
			return false
		}
		if groups.Support(set) < spec.MinSupport {
			return false
		}
	}
	return true
}

// Result is the outcome of one algorithm run.
type Result struct {
	// Found reports whether any feasible set was produced; a null result
	// (paper's terminology) has Found=false.
	Found bool
	// Groups is the returned set Gopt (or Gapp for approximate algorithms).
	Groups []*groups.Group
	// Objective is the weighted objective score of Groups.
	Objective float64
	// Support is the group support of Groups.
	Support int
	// Algorithm names the producing algorithm.
	Algorithm string
	// Elapsed is the wall-clock runtime of the run.
	Elapsed time.Duration
	// CandidatesExamined counts candidate sets (Exact) or buckets (LSH) or
	// greedy adds (FDP) evaluated, for reporting. For Exact it counts leaves
	// the enumeration actually visited: with branch-and-bound pruning on,
	// CandidatesExamined + CandidatesPruned equals the full enumeration size
	// (the count a pruning-disabled run examines).
	CandidatesExamined int64
	// CandidatesPruned counts candidate sets skipped by branch-and-bound
	// subtree cuts (Exact only; always 0 for the approximate algorithms and
	// for pruning-disabled runs). Pruned candidates are reported separately
	// from examined ones — they were proven unable to reach the support
	// floor or to beat the incumbent, never evaluated.
	CandidatesPruned int64
	// Stages is the per-phase wall-time breakdown of the run, keyed by the
	// Stage* constants. Repeated phases (SM-LSH relaxation rounds) merge
	// into one entry per name; entries appear in first-occurrence order.
	Stages []Stage
	// MatrixBuilds counts pair matrices this run physically materialized
	// from scratch; MatrixRebuilds counts physical materializations that
	// reused clean rows carried from another snapshot epoch (a
	// subset of the same cost class, far cheaper). MatrixHits counts
	// bindings served from the engine cache, including callers that
	// waited on another solve's in-flight build; MatrixLazy counts
	// bindings SM-LSH served without any matrix at all, through the lazy
	// pair function (a cold one-shot solve, or a matrix over the budget).
	// Per binding exactly one of the four fires, so builds + rebuilds +
	// hits + lazy equals bindings touched — and a build shared by a
	// solve's shard partials is counted once.
	MatrixBuilds   int
	MatrixRebuilds int
	MatrixHits     int
	MatrixLazy     int
}

// Stage is one named phase of a solver run with its accumulated wall time.
type Stage struct {
	Name string        `json:"stage"`
	Wall time.Duration `json:"wall"`
}

// addStageTo accumulates wall time under a stage name in a Result's or a
// shard Partial's stage list: repeats merge into the first occurrence, so
// order reflects first entry.
func addStageTo(stages *[]Stage, name string, d time.Duration) {
	for i := range *stages {
		if (*stages)[i].Name == name {
			(*stages)[i].Wall += d
			return
		}
	}
	*stages = append(*stages, Stage{Name: name, Wall: d})
}

// StageWall returns the accumulated wall time of a named stage (0 when
// the run never entered it).
func (r *Result) StageWall(name string) time.Duration {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Wall
		}
	}
	return 0
}

// Describe renders the result's groups through the store dictionaries.
func (r Result) Describe(s *store.Store) []string {
	out := make([]string, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = g.Describe(s)
	}
	return out
}

// finish stamps common result fields. The objective is recomputed through
// cached pair matrices when present (pure lookups) and through the lazy
// pair source otherwise — never the naive O(k²) Func.Eval re-derivation,
// and never a forced matrix build for one k-set. All three paths are
// bit-identical (pinned by TestFinishObjectiveMatchesNaive): engine
// objectives are Mean-aggregated and every source visits pairs in Eval's
// row-major order.
func (e *Engine) finish(r *Result, spec ProblemSpec, start time.Time) {
	r.Elapsed = time.Since(start)
	if r.Found {
		ids := make([]int, len(r.Groups))
		for i, g := range r.Groups {
			ids[i] = g.ID
		}
		var total float64
		for _, o := range spec.Objectives {
			var src pairSource
			if m := e.cache.peek(pairKey{o.Dim, o.Meas}); m != nil {
				src = m
			} else {
				src = mining.NewLazyPairs(e.Groups, e.PairFunc(o.Dim, o.Meas))
			}
			total += o.Weight * src.MeanOver(ids)
		}
		r.Objective = total
		r.Support = groups.Support(r.Groups)
	}
}
