package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// shardOpts are the solve options the shard tests run: fixed SM-LSH
// parameters so every partial reads the same seeded index.
var shardOpts = SolveOptions{
	LSH: LSHOptions{DPrime: 6, L: 2, Seed: 9, Mode: Fold},
	FDP: FDPOptions{Mode: Fold},
}

// TestSolveShardedMatchesSolve pins the scatter-gather contract for both
// approximate families: merging 1, 2 or 3 shard partials answers exactly
// what one Solve does — same family, group set, Objective bits and
// Support — and the shards partition the candidates Solve examines.
func TestSolveShardedMatchesSolve(t *testing.T) {
	ctx := context.Background()
	for _, problem := range []int{1, 3, 5} {
		spec, err := PaperProblem(problem, 3, 5, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildEngine(t).Solve(ctx, spec, shardOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Found {
			t.Fatalf("problem %d: %s found nothing; the comparison is vacuous", problem, want.Algorithm)
		}
		for of := 1; of <= 3; of++ {
			got, err := buildEngine(t).SolveSharded(ctx, spec, shardOpts, of)
			if err != nil {
				t.Fatalf("problem %d of=%d: %v", problem, of, err)
			}
			if got.Algorithm != want.Algorithm || got.Found != want.Found ||
				!sameGroupIDs(got.Groups, want.Groups) || got.Support != want.Support ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatalf("problem %d of=%d: sharded %s %v (obj %v, support %d), serial %s %v (obj %v, support %d)",
					problem, of, got.Algorithm, groupIDs(got.Groups), got.Objective, got.Support,
					want.Algorithm, groupIDs(want.Groups), want.Objective, want.Support)
			}
			if got.CandidatesExamined != want.CandidatesExamined {
				t.Fatalf("problem %d of=%d %s: shards examined %d, serial %d",
					problem, of, want.Algorithm, got.CandidatesExamined, want.CandidatesExamined)
			}
		}
	}
}

// TestShardEntryPointsRejectOutOfRange pins the shard/of input checks of
// every shard entry point: no partial runs for a shard outside 0..of-1 or
// a shard count below one.
func TestShardEntryPointsRejectOutOfRange(t *testing.T) {
	ctx := context.Background()
	e := buildEngine(t)
	sim, err := PaperProblem(1, 3, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	div, err := PaperProblem(5, 3, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ shard, of int }{{0, 0}, {0, -1}, {-1, 2}, {2, 2}, {5, 3}} {
		for _, spec := range []ProblemSpec{sim, div} {
			if _, err := e.SolvePartial(ctx, spec, shardOpts, c.shard, c.of); err == nil {
				t.Errorf("SolvePartial(%s, shard %d of %d) accepted", spec.Name, c.shard, c.of)
			}
		}
		if _, err := e.ExactPartial(ctx, sim, ExactOptions{}, c.shard, c.of); err == nil {
			t.Errorf("ExactPartial(shard %d of %d) accepted", c.shard, c.of)
		}
	}
	for _, of := range []int{0, -1} {
		if _, err := e.SolveSharded(ctx, sim, shardOpts, of); err == nil {
			t.Errorf("SolveSharded(of %d) accepted", of)
		}
		if _, err := e.ExactSharded(ctx, sim, ExactOptions{}, of); err == nil {
			t.Errorf("ExactSharded(of %d) accepted", of)
		}
	}
}

// TestMergePartialsRejectsBadSets pins MergePartials' input checks: a
// merge needs a non-empty set of partials from one run that covers shards
// 0..n-1 exactly once.
func TestMergePartialsRejectsBadSets(t *testing.T) {
	ctx := context.Background()
	e := buildEngine(t)
	sim, err := PaperProblem(1, 3, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	div, err := PaperProblem(5, 3, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	partial := func(spec ProblemSpec, shard, of int) Partial {
		t.Helper()
		p, err := e.SolvePartial(ctx, spec, shardOpts, shard, of)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sim0, sim1 := partial(sim, 0, 2), partial(sim, 1, 2)
	div1 := partial(div, 1, 2)
	if _, err := e.MergePartials(sim, []Partial{sim0, sim1}, time.Now()); err != nil {
		t.Fatalf("a complete shard set was rejected: %v", err)
	}
	for _, c := range []struct {
		name  string
		parts []Partial
		want  string
	}{
		{"empty", nil, "at least one partial"},
		{"different runs", []Partial{sim0, div1}, "different runs"},
		{"duplicate shard", []Partial{sim0, sim0}, "exactly once"},
		{"missing shard", []Partial{sim1}, "exactly once"},
		{"no solver family", []Partial{{of: 1}}, "no solver family"},
	} {
		_, err := e.MergePartials(sim, c.parts, time.Now())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: MergePartials error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
