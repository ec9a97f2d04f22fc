package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tagdm/internal/core"
)

// This file extends the randomized property harness to the scatter-gather
// sharding layer: on every seeded random corpus and spec, solving as N
// independent shard partials merged with MergePartials must be
// byte-identical to one serial solve, for all three solver families. The
// shards partition the search space, so candidate accounting must stay a
// partition: Exact's examined + pruned must sum to the full enumeration
// (the serial total), and the approximate families must examine exactly the
// serial candidate count across shards — nothing skipped, nothing counted
// twice.

var shardCounts = []int{2, 3, 5}

// exactMode runs Exact serially, or as three concurrent partials — a fixed
// count, so multi-partial coverage does not depend on the CPU count.
func exactMode(e *core.Engine, spec core.ProblemSpec, opts core.ExactOptions, sharded bool) (core.Result, error) {
	if sharded {
		return e.ExactSharded(context.Background(), spec, opts, 3)
	}
	return e.Exact(context.Background(), spec, opts)
}

func TestShardedSolveMatchesSerialRandomCorpora(t *testing.T) {
	ctx := context.Background()
	opts := core.SolveOptions{
		LSH: core.LSHOptions{DPrime: 6, L: 2, Seed: 9, Mode: core.Fold},
		FDP: core.FDPOptions{Mode: core.Fold},
	}
	for _, c := range propCorpora(t) {
		rng := rand.New(rand.NewSource(c.seed + 7))
		specs := c.propSpecs(rng)
		serial := c.engine(t, "dense")
		for _, of := range shardCounts {
			// The partials share one engine, as the server's shards share
			// one published snapshot.
			sharded := c.engine(t, "dense")
			for _, spec := range specs {
				label := fmt.Sprintf("u=%d d=%g of=%d %s", c.universe, c.density, of, spec.Name)

				want, err := serial.Solve(ctx, spec, opts)
				if err != nil {
					t.Fatalf("%s: serial solve: %v", label, err)
				}
				got, err := sharded.SolveSharded(ctx, spec, opts, of)
				if err != nil {
					t.Fatalf("%s: sharded solve: %v", label, err)
				}
				if want.Algorithm != got.Algorithm {
					t.Fatalf("%s: dispatched to %s vs %s", label, got.Algorithm, want.Algorithm)
				}
				assertByteIdentical(t, label+"/"+want.Algorithm, want, got)
				if want.CandidatesExamined != got.CandidatesExamined {
					t.Fatalf("%s/%s: sharded examined %d, serial %d — shards did not partition the candidate space",
						label, want.Algorithm, got.CandidatesExamined, want.CandidatesExamined)
				}
				if got.CandidatesPruned != 0 {
					t.Fatalf("%s/%s: approximate family reported %d pruned", label, want.Algorithm, got.CandidatesPruned)
				}

				wantX, err := serial.Exact(ctx, spec, core.ExactOptions{})
				if err != nil {
					t.Fatalf("%s: serial exact: %v", label, err)
				}
				gotX, err := sharded.ExactSharded(ctx, spec, core.ExactOptions{}, of)
				if err != nil {
					t.Fatalf("%s: sharded exact: %v", label, err)
				}
				assertByteIdentical(t, label+"/Exact", wantX, gotX)
				// Pruning decisions legitimately differ per shard (each
				// carries its own incumbent), but examined + pruned must
				// still sum to the full enumeration either way.
				wantTotal := wantX.CandidatesExamined + wantX.CandidatesPruned
				gotTotal := gotX.CandidatesExamined + gotX.CandidatesPruned
				if wantTotal != gotTotal {
					t.Fatalf("%s/Exact: sharded examined %d + pruned %d = %d, serial enumeration %d",
						label, gotX.CandidatesExamined, gotX.CandidatesPruned, gotTotal, wantTotal)
				}
			}
		}
	}
}
