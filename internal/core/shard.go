// Shard-aware solving: every solver family can explore one shard of its
// search space and have the shard-local incumbents merged into the exact
// answer the single-partial run returns.
//
// Shards are NOT data partitions — a best set can span any groups, so
// splitting the group universe would change answers. Every partial runs
// against the same frozen engine (read-safe under concurrent solves, so
// the partials share its pair matrices and LSH caches) and the
// deterministic *search space* is partitioned:
//
//   - Exact: the outermost enumeration level by stride/offset.
//   - DV-FDP: the deterministic start-task list (floor-sweep passes, the
//     largest-k start, anchored starts) round-robin by task index.
//   - SM-LSH: each relaxation round's sorted bucket list round-robin by
//     bucket index; every shard reads the same seeded index, so the
//     buckets agree across shards.
//
// Each merge reproduces the serial run's first-maximum tie-breaking from
// shard-local evidence (score, then the serial visit order: candidate
// order for Exact, task index for DV-FDP, round then bucket index for
// SM-LSH), so merged answers are byte-identical to the unsharded solve —
// the property tests in internal/experiments pin this on randomized
// corpora. Candidate accounting partitions exactly: every task/bucket/leaf
// is counted on exactly one shard, and the SM-LSH merge truncates each
// shard's per-round counts at the first globally-successful round so the
// sum equals what the serial scan would have examined.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tagdm/internal/groups"
)

// partialKind tags which solver family produced a Partial.
type partialKind uint8

const (
	kindExact partialKind = iota + 1
	kindDVFDP
	kindSMLSH
)

// Partial is one shard's contribution to a solve: the shard-local incumbent
// plus the bookkeeping the merge needs to reproduce the serial run's
// decisions. Produce one with SolvePartial or ExactPartial (shard i of n),
// combine a full set with MergePartials. A Partial is opaque outside this
// package; it is only meaningful together with the other shards of the
// same (spec, options) run against the same engine.
type Partial struct {
	kind      partialKind
	algorithm string
	shard, of int

	stages []Stage
	// Per-binding matrix-cache outcomes (see Result.MatrixBuilds): the
	// shards share the engine's cache, so at most one shard of a scatter
	// reports the physical build/rebuild and the rest report hits, and
	// merged sums count each materialization once.
	builds, rebuilds, hits, lazy int

	// Exact and DV-FDP incumbent (DV-FDP additionally records the start
	// task index for the serial tie-break; Exact ties break on the
	// candidate itself via lessCandidate).
	found     bool
	best      []*groups.Group
	bestScore float64
	bestTask  int
	examined  int64
	pruned    int64

	// SM-LSH evidence: the first round (by this shard's scan) producing a
	// feasible multi-group set and the best such set of that round, the
	// first round producing a feasible singleton and that round's best
	// singleton, and per-round examined bucket counts for partition-exact
	// accounting. Rounds are -1 when the shard never produced one; bucket
	// indices are positions in the round's deterministically sorted bucket
	// list, shared across shards.
	multiRound   int
	multiScore   float64
	multiBucket  int
	multi        []*groups.Group
	singleRound  int
	singleSize   int
	singleBucket int
	single       []*groups.Group
	roundExam    []int64
}

// Shard reports which shard of how many this partial covered.
func (p Partial) Shard() (shard, of int) { return p.shard, p.of }

// Algorithm names the producing algorithm family variant.
func (p Partial) Algorithm() string { return p.algorithm }

func checkShard(shard, of int) error {
	if of < 1 || shard < 0 || shard >= of {
		return fmt.Errorf("core: shard %d of %d is out of range", shard, of)
	}
	return nil
}

// SolvePartial dispatches like Solve — similarity-only objectives to the
// SM-LSH family, anything else to DV-FDP — but explores only shard `shard`
// of `of` and returns the shard's Partial instead of a Result. Run one call
// per shard (same spec and options, shard = 0..of-1, all against this
// engine) and combine with MergePartials.
func (e *Engine) SolvePartial(ctx context.Context, spec ProblemSpec, opts SolveOptions, shard, of int) (Partial, error) {
	if err := spec.Validate(); err != nil {
		return Partial{}, err
	}
	if err := checkShard(shard, of); err != nil {
		return Partial{}, err
	}
	if spec.OptimizesSimilarityOnly() {
		return e.smlshPartial(ctx, spec, opts.LSH, shard, of)
	}
	return e.dvfdpPartial(ctx, spec, opts.FDP, shard, of)
}

// ExactPartial is the Exact baseline's shard entry point: it enumerates
// only first elements congruent to shard mod of and returns the
// shard-local incumbent with its examined/pruned counts. Summed across a
// full shard set, examined + pruned still equals the full enumeration
// size.
func (e *Engine) ExactPartial(ctx context.Context, spec ProblemSpec, opts ExactOptions, shard, of int) (Partial, error) {
	if err := spec.Validate(); err != nil {
		return Partial{}, err
	}
	if err := checkShard(shard, of); err != nil {
		return Partial{}, err
	}
	if err := ctx.Err(); err != nil {
		return Partial{}, err
	}
	n := len(e.Groups)
	limit := opts.MaxCandidates
	if limit <= 0 {
		limit = DefaultMaxExactCandidates
	}
	var total int64
	for k := spec.KLo; k <= spec.KHi && k <= n; k++ {
		c := binomial(n, k)
		if c < 0 || total+c < 0 {
			total = -1
			break
		}
		total += c
	}
	if total < 0 || total > limit {
		return Partial{}, fmt.Errorf(
			"core: exact enumeration over %d groups (k in [%d,%d]) exceeds candidate cap %d",
			n, spec.KLo, spec.KHi, limit)
	}

	p := Partial{kind: kindExact, algorithm: "Exact", shard: shard, of: of, bestTask: -1}
	mt := startStage(ctx, &p.stages, StageMatrix)
	sc := e.scorer(spec)
	mt.end()
	p.builds, p.rebuilds, p.hits, p.lazy = sc.builds, sc.rebuilds, sc.hits, sc.lazy

	et := startStage(ctx, &p.stages, StageEnumerate)
	w := newExactWorker(ctx, e, spec, sc, shard, !opts.DisablePruning)
	for k := spec.KLo; k <= spec.KHi && k <= n; k++ {
		w.enumerate(0, k, of)
	}
	et.end()
	if w.cancelled {
		return Partial{}, ctx.Err()
	}
	p.found, p.best, p.bestScore = w.found, w.best, w.bestScore
	p.examined, p.pruned = w.examined, w.pruned
	return p, nil
}

// MergePartials combines one Partial per shard — all from the same
// (spec, options) run over this engine — into the Result the unsharded
// solve would return, byte-identical in Found, the group set, Objective and
// Support. CandidatesExamined/CandidatesPruned partition exactly: sums for
// Exact and DV-FDP (every leaf and task runs on exactly one shard), and
// round-truncated sums for SM-LSH (rounds past the first globally
// successful one are discarded, matching the serial run's early break).
// start anchors Result.Elapsed, normally taken before the scatter.
func (e *Engine) MergePartials(spec ProblemSpec, parts []Partial, start time.Time) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("core: MergePartials needs at least one partial")
	}
	covered := make([]bool, len(parts))
	for _, p := range parts {
		if p.kind != parts[0].kind || p.algorithm != parts[0].algorithm {
			return Result{}, fmt.Errorf("core: merging partials from different runs (%q vs %q)",
				p.algorithm, parts[0].algorithm)
		}
		if p.of != len(parts) || p.shard < 0 || p.shard >= len(parts) || covered[p.shard] {
			return Result{}, fmt.Errorf("core: partial set does not cover shards 0..%d exactly once", len(parts)-1)
		}
		covered[p.shard] = true
	}
	res := Result{Algorithm: parts[0].algorithm}
	for _, p := range parts {
		res.MatrixBuilds += p.builds
		res.MatrixRebuilds += p.rebuilds
		res.MatrixHits += p.hits
		res.MatrixLazy += p.lazy
		for _, st := range p.stages {
			addStageTo(&res.Stages, st.Name, st.Wall)
		}
	}
	switch parts[0].kind {
	case kindExact:
		var best *Partial
		for i := range parts {
			p := &parts[i]
			res.CandidatesExamined += p.examined
			res.CandidatesPruned += p.pruned
			if !p.found {
				continue
			}
			if best == nil || p.bestScore > best.bestScore ||
				(p.bestScore == best.bestScore && lessCandidate(p.best, best.best)) {
				best = p
			}
		}
		if best != nil {
			res.Found = true
			res.Groups = append([]*groups.Group(nil), best.best...)
		}
	case kindDVFDP:
		var best *Partial
		for i := range parts {
			p := &parts[i]
			res.CandidatesExamined += p.examined
			if !p.found {
				continue
			}
			// Serial winner selection is a strict-> scan over starts in task
			// order: the highest score wins and ties keep the earliest task.
			if best == nil || p.bestScore > best.bestScore ||
				(p.bestScore == best.bestScore && p.bestTask < best.bestTask) {
				best = p
			}
		}
		if best != nil {
			res.Found = true
			res.Groups = best.best
		}
	case kindSMLSH:
		mergeSMLSH(&res, parts)
	default:
		return Result{}, fmt.Errorf("core: partial has no solver family")
	}
	e.finish(&res, spec, start)
	return res, nil
}

// mergeSMLSH reconstructs the serial relaxation outcome: the serial loop
// breaks at the first round with a feasible multi-group bucket, so the
// merged winner is the best multi of round P = min over shards, ties to the
// earlier bucket; with no multi anywhere the fallback is the earliest
// round's best singleton (larger wins, ties to the earlier bucket).
// Examined counts sum only rounds the serial run would have executed.
func mergeSMLSH(res *Result, parts []Partial) {
	round := -1
	for _, p := range parts {
		if p.multiRound >= 0 && (round < 0 || p.multiRound < round) {
			round = p.multiRound
		}
	}
	if round >= 0 {
		var best *Partial
		for i := range parts {
			p := &parts[i]
			if p.multiRound != round {
				continue
			}
			if best == nil || p.multiScore > best.multiScore ||
				(p.multiScore == best.multiScore && p.multiBucket < best.multiBucket) {
				best = p
			}
		}
		res.Found = true
		res.Groups = best.multi
	}
	for _, p := range parts {
		lim := len(p.roundExam)
		if round >= 0 && round+1 < lim {
			// This shard kept relaxing past the globally successful round;
			// the serial scan never ran those rounds, so their buckets don't
			// count.
			lim = round + 1
		}
		for r := 0; r < lim; r++ {
			res.CandidatesExamined += p.roundExam[r]
		}
	}
	if res.Found {
		return
	}
	var fb *Partial
	for i := range parts {
		p := &parts[i]
		if p.singleRound < 0 {
			continue
		}
		if fb == nil || p.singleRound < fb.singleRound ||
			(p.singleRound == fb.singleRound && (p.singleSize > fb.singleSize ||
				(p.singleSize == fb.singleSize && p.singleBucket < fb.singleBucket))) {
			fb = p
		}
	}
	if fb != nil {
		res.Found = true
		res.Groups = fb.single
	}
}

// SolveSharded runs one Solve as of partials against this engine, one
// goroutine each, and merges them into the Result Solve would return. A
// frozen engine is read-safe under concurrent solves, so the partials
// share its matrices and LSH caches. The first partial error cancels the
// rest.
func (e *Engine) SolveSharded(ctx context.Context, spec ProblemSpec, opts SolveOptions, of int) (Result, error) {
	return e.scatter(ctx, spec, of, func(fctx context.Context, shard int) (Partial, error) {
		return e.SolvePartial(fctx, spec, opts, shard, of)
	})
}

// ExactSharded is SolveSharded for the Exact baseline. With of =
// GOMAXPROCS it is the in-process parallel Exact.
func (e *Engine) ExactSharded(ctx context.Context, spec ProblemSpec, opts ExactOptions, of int) (Result, error) {
	return e.scatter(ctx, spec, of, func(fctx context.Context, shard int) (Partial, error) {
		return e.ExactPartial(fctx, spec, opts, shard, of)
	})
}

func (e *Engine) scatter(ctx context.Context, spec ProblemSpec, of int,
	run func(context.Context, int) (Partial, error)) (Result, error) {
	start := time.Now()
	if err := checkShard(0, of); err != nil {
		return Result{}, err
	}
	parts := make([]Partial, of)
	errs := make([]error, of)
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for si := range parts {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			p, err := run(fctx, si)
			parts[si], errs[si] = p, err
			if err != nil {
				// Fan the failure out: the other partials' cancellable loops
				// stop at their next checkpoint instead of running dead work.
				cancel()
			}
		}(si)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if err != context.Canceled && err != context.DeadlineExceeded {
			// A real solver error beats the cancellations it induced.
			return Result{}, err
		}
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	return e.MergePartials(spec, parts, start)
}
