package core

import (
	"context"
	"time"

	"tagdm/internal/obs"
)

// Canonical solver stage names. Every solver attributes its wall time to
// these stages on Result.Stages and, when the context carries an obs
// trace, mirrors them as child spans; the server keys its per-stage
// latency histograms on the same strings.
const (
	// StageMatrix is pair-matrix materialization (engine cache hits cost
	// near zero; misses pay the O(n^2) parallel build).
	StageMatrix = "matrix"
	// StageEnumerate is the Exact DFS over candidate sets, including
	// branch-and-bound pruning work.
	StageEnumerate = "enumerate"
	// StageLSHBuild is SM-LSH's hashing: fetching the epoch's sign-bit
	// table (on a cold epoch, the sparse hash vectors, the plane draw and
	// one dot-product pass, or the wait for the shard computing them) plus
	// each relaxation round's slicing of that table into its sorted
	// bucket list.
	StageLSHBuild = "lsh_build"
	// StageBucketScan is per-round bucket scanning/ranking (SM-LSH).
	StageBucketScan = "bucket_scan"
	// StageGreedy is the dispersion greedy including floor sweep and
	// anchored starts (DV-FDP).
	StageGreedy = "greedy"
	// StageLocalSearch is the post-greedy swap improvement (DV-FDP).
	StageLocalSearch = "local_search"
)

// stageTimer attributes one stage's wall time to a stage list (a
// Partial's, folded into Result.Stages by MergePartials) and, when the
// context carries a trace, to a child span. The zero-cost contract of
// obs.StartSpan holds here too: untraced runs pay two time.Now calls and
// a slice append per stage, nothing else.
type stageTimer struct {
	stages *[]Stage
	name   string
	span   *obs.Span
	start  time.Time
}

func startStage(ctx context.Context, stages *[]Stage, name string) stageTimer {
	return stageTimer{stages: stages, name: name, span: obs.StartSpan(ctx, name), start: time.Now()}
}

func (t stageTimer) end() {
	t.span.End()
	addStageTo(t.stages, t.name, time.Since(t.start))
}
