package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/incremental"
	"tagdm/internal/obs"
	"tagdm/internal/query"
)

// This file is the scatter-gather serving tier: an analyze fans one
// partial solve per shard onto the worker pool, every partial reading the
// one published snapshot, and the gathered partials merge into the answer
// a single serial solve would have produced — byte-identical, because the
// shards partition the solver's search space (see core.SolvePartial)
// rather than the data, and the merge reproduces the serial tie-breaks.
// With one shard the scatter degenerates to the single-solve path through
// the very same code.

// captureLocked takes a fresh snapshot of the maintainer and resets the
// unpublished counter. Callers hold s.mu (or are inside New, before the
// server is shared); installation happens outside the lock via
// installSnapshot.
func (s *Server) captureLocked() (*incremental.Snapshot, error) {
	snap, err := s.maint.Snapshot()
	if err != nil {
		return nil, err
	}
	s.unpublished = 0
	return snap, nil
}

// installSnapshot publishes snap. It runs outside s.mu; concurrent
// publishes are ordered by epoch — the compare-and-swap loop declines to
// install only when a strictly newer snapshot already won, so a slow
// publish of an old epoch can never clobber a newer published view.
func (s *Server) installSnapshot(snap *incremental.Snapshot) {
	if s.cfg.MatrixBudgetBytes > 0 {
		snap.Engine.SetMatrixBudget(s.cfg.MatrixBudgetBytes)
	}
	for {
		cur := s.snap.Load()
		if cur != nil && cur.Version > snap.Version {
			break
		}
		if s.snap.CompareAndSwap(cur, snap) {
			break
		}
	}
	s.metrics.snapshots.Inc()
}

// publish is capture + install: the snapshot copy happens under the write
// lock, the atomic swap outside it.
func (s *Server) publish() error {
	s.mu.Lock()
	snap, err := s.captureLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.installSnapshot(snap)
	return nil
}

// solveView is what every partial of one analyze solves against: the
// snapshot's engine, or for a WHERE query the scoped engine built once for
// the request, plus the spec resolved against that engine's universe.
type solveView struct {
	eng  *core.Engine
	spec core.ProblemSpec
}

// buildView scopes and resolves one analyze. It runs once per request, on
// whichever partial job reaches it first; ctx carries that job's span, so
// the scope span lands under the shard that paid for it.
func (s *Server) buildView(ctx context.Context, snap *incremental.Snapshot, req *query.Request) (solveView, error) {
	eng, n := snap.Engine, snap.Store.Len()
	if len(req.Where) > 0 {
		scopeSpan := obs.StartSpan(ctx, "scope")
		scoped, scopedN, err := s.scopedEngine(snap, req.Where)
		scopeSpan.End()
		if err != nil {
			return solveView{}, err
		}
		eng, n = scoped, scopedN
	}
	spec, err := req.Resolve(n)
	if err != nil {
		return solveView{}, err
	}
	return solveView{eng: eng, spec: spec}, nil
}

// shardOutcome is one shard's contribution to a scattered analyze.
type shardOutcome struct {
	shard   int
	partial core.Partial
	elapsed time.Duration
}

// scatterAnalyze fans a parsed query out as one partial solve per shard,
// gathers the shard outcomes, and merges them into the response a serial
// solve over the snapshot would have produced. A full queue fails the
// whole request fast (errBusy -> 429); any shard error cancels the
// surviving shards.
func (s *Server) scatterAnalyze(ctx context.Context, solveSpan *obs.Span, snap *incremental.Snapshot, req *query.Request, raw string) (*analyzeResponse, error) {
	start := time.Now()
	of := s.cfg.Shards
	var (
		viewOnce sync.Once
		view     solveView
		viewErr  error
	)
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One shared result channel with room for every shard: workers never
	// block sending, so an abandoned gather cannot strand a worker.
	done := make(chan poolResult[*shardOutcome], of)
	submitted := 0
	for shard := 0; shard < of; shard++ {
		span := solveSpan.StartChild("shard")
		span.SetAttr("shard", shard)
		err := s.pool.submit(gctx, done, func(jctx context.Context) (*shardOutcome, error) {
			defer span.End()
			jstart := time.Now()
			jctx = obs.WithSpan(jctx, span)
			viewOnce.Do(func() { view, viewErr = s.buildView(jctx, snap, req) })
			if viewErr != nil {
				return nil, viewErr
			}
			out := &shardOutcome{shard: shard}
			// An empty universe has no feasible set; skip the solver rather
			// than exercising its edge cases.
			if len(view.eng.Groups) > 0 {
				p, err := view.eng.SolvePartial(jctx, view.spec, core.SolveOptions{
					LSH: core.LSHOptions{Seed: s.cfg.Seed, Mode: core.Fold},
					FDP: core.FDPOptions{Mode: core.Fold},
				}, shard, of)
				if err != nil {
					return nil, err
				}
				out.partial = p
			}
			out.elapsed = time.Since(jstart)
			return out, nil
		})
		if err != nil {
			// errBusy/errClosed. The deferred cancel makes already-queued
			// sibling jobs no-op at pick-up; nobody reads their results, the
			// buffered channel absorbs them.
			span.End()
			return nil, err
		}
		submitted++
	}

	outs := make([]*shardOutcome, 0, of)
	var firstErr error
	//tagdm:cancellable gather loop; request cancellation abandons the scatter
	for pending := submitted; pending > 0; pending-- {
		select {
		case res := <-done:
			if res.err != nil {
				// Prefer a real solver error over the context cancellations
				// it induces in sibling shards.
				if firstErr == nil || (isCtxErr(firstErr) && !isCtxErr(res.err)) {
					firstErr = res.err
				}
				cancel()
				continue
			}
			outs = append(outs, res.val)
		case <-ctx.Done():
			// Timeout or client gone: abandon the gather. Workers hold gctx
			// (a child of ctx) and stop at their next cancellation check.
			return nil, ctx.Err()
		}
	}
	if firstErr != nil {
		if isCtxErr(firstErr) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, firstErr
	}

	// Every job ran viewOnce before sending its outcome, so the channel
	// receives above order view's writes before these reads.
	resp := &analyzeResponse{Query: strings.TrimSpace(raw), Epoch: snap.Version, spec: &view.spec}
	if len(view.eng.Groups) == 0 {
		resp.Groups = []GroupResult{}
		resp.SolveMillis = float64(time.Since(start)) / 1e6
		return resp, nil
	}
	parts := make([]core.Partial, len(outs))
	var maxElapsed time.Duration
	for i, out := range outs {
		parts[i] = out.partial
		s.metrics.shardSolves.With(shardLabels[out.shard]).Inc()
		s.metrics.shardSolveSeconds.With(shardLabels[out.shard]).Observe(out.elapsed.Seconds())
		if out.elapsed > maxElapsed {
			maxElapsed = out.elapsed
		}
	}
	res, err := view.eng.MergePartials(view.spec, parts, start)
	if err != nil {
		return nil, err
	}
	s.metrics.recordSolve(res, maxElapsed, time.Since(start))
	resp.Found = res.Found
	resp.Algorithm = res.Algorithm
	resp.Objective = res.Objective
	resp.Support = res.Support
	resp.Groups = make([]GroupResult, len(res.Groups))
	for i, g := range res.Groups {
		resp.Groups[i] = GroupResult{Description: g.Describe(snap.Store), Size: g.Size()}
	}
	resp.SolveMillis = float64(time.Since(start)) / 1e6
	return resp, nil
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
