package tagdm

// Tracing must be effectively free: BenchmarkExactSerialTraced mirrors
// BenchmarkExactSerial with a live span collector attached, and
// TestTracedExactOverhead pins the gap below 5% using min-of-runs so the
// guard survives scheduler noise. Span recording with NO collector in the
// context is separately pinned allocation-free in internal/obs.

import (
	"context"
	"testing"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/obs"
)

// BenchmarkExactSerialTraced solves the same problem as BenchmarkExactSerial
// but under a fresh root span each iteration, so the solver records its
// matrix/enumerate child spans with wall timings (and the root its CPU). The delta against
// BenchmarkExactSerial is the full instrumentation cost.
func BenchmarkExactSerialTraced(b *testing.B) {
	_, ex := benchWorld(b)
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := obs.NewTrace("bench")
		if _, err := ex.Exact(obs.WithSpan(context.Background(), root), spec, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}

// exactRun times iters back-to-back Exact solves under contexts produced by
// ctxFor and returns the total wall time.
func exactRun(t testing.TB, ex *core.Engine, spec core.ProblemSpec, ctxFor func() (context.Context, *obs.Span), iters int) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		ctx, root := ctxFor()
		if _, err := ex.Exact(ctx, spec, core.ExactOptions{}); err != nil {
			t.Fatal(err)
		}
		root.End()
	}
	return time.Since(start)
}

// TestTracedExactOverhead asserts that solving with a span collector attached
// costs less than 5% over the untraced path. Minimum-of-runs on both sides
// filters scheduler noise, and the comparison retries before failing so a
// single noisy interval cannot produce a spurious regression report.
func TestTracedExactOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing-sensitive; skipped under -race")
	}

	_, ex := benchWorld(t)
	st, _ := benchWorld(t)
	spec := benchSpec(t, st, 1)

	untraced := func() (context.Context, *obs.Span) {
		return context.Background(), nil
	}
	traced := func() (context.Context, *obs.Span) {
		root := obs.NewTrace("bench")
		return obs.WithSpan(context.Background(), root), root
	}

	// Warm the engine's pair-matrix cache so both sides measure steady state,
	// then size a run to ~50ms so one timing quantum cannot dominate.
	exactRun(t, ex, spec, untraced, 2)
	per := exactRun(t, ex, spec, untraced, 1)
	iters := int(50*time.Millisecond/per) + 1
	if iters > 2000 {
		iters = 2000
	}

	const runs = 5
	const budget = 1.05
	var ratio float64
	for attempt := 1; attempt <= 3; attempt++ {
		base, withSpans := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < runs; r++ {
			if d := exactRun(t, ex, spec, untraced, iters); d < base {
				base = d
			}
			if d := exactRun(t, ex, spec, traced, iters); d < withSpans {
				withSpans = d
			}
		}
		ratio = float64(withSpans) / float64(base)
		if ratio <= budget {
			t.Logf("traced/untraced = %.4f over %d iterations (attempt %d)", ratio, iters, attempt)
			return
		}
		t.Logf("attempt %d: traced/untraced = %.4f > %.2f, retrying", attempt, ratio, budget)
	}
	t.Fatalf("traced Exact solve is %.1f%% slower than untraced, budget is 5%%", (ratio-1)*100)
}
