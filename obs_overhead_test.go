package tagdm

// Tracing must be effectively free: BenchmarkExactSerialTraced mirrors
// BenchmarkExactSerial with a live span collector attached, and
// TestTracedExactOverhead pins the gap below 5%, timing traced and untraced
// solves interleaved and taking medians and min-of-runs so the guard
// survives scheduler noise. Span recording with NO collector in the
// context is separately pinned allocation-free in internal/obs.

import (
	"context"
	"slices"
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

// timeSolve times one Exact solve, under a fresh root span when traced;
// starting and ending the trace count toward the time.
func timeSolve(t testing.TB, ex *core.Engine, spec core.ProblemSpec, traced bool) time.Duration {
	start := time.Now()
	ctx := context.Background()
	var root *obs.Span
	if traced {
		root = obs.NewTrace("bench")
		ctx = obs.WithSpan(ctx, root)
	}
	if _, err := ex.Exact(ctx, spec, core.ExactOptions{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	return time.Since(start)
}

// interleavedRun times iters untraced and iters traced solves, alternating
// the two and which goes first, and returns each side's median solve
// time: drift in the host's speed during the run then lands on both sides
// alike, and a solve the scheduler preempts moves neither median.
func interleavedRun(t testing.TB, ex *core.Engine, spec core.ProblemSpec, iters int) (untraced, traced time.Duration) {
	us := make([]time.Duration, 0, iters)
	ts := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		if i%2 == 0 {
			us = append(us, timeSolve(t, ex, spec, false))
			ts = append(ts, timeSolve(t, ex, spec, true))
		} else {
			ts = append(ts, timeSolve(t, ex, spec, true))
			us = append(us, timeSolve(t, ex, spec, false))
		}
	}
	slices.Sort(us)
	slices.Sort(ts)
	return us[iters/2], ts[iters/2]
}

// TestTracedExactOverhead asserts that solving with a span collector attached
// costs less than 5% over the untraced path. Each timed run interleaves
// traced and untraced solves and takes each side's median solve time,
// minimum-of-runs on both sides filters scheduler noise further, and the
// comparison retries before failing so a single noisy interval cannot
// produce a spurious regression report.
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

	// Warm the engine's pair-matrix cache so both sides measure steady state,
	// then size a run to ~50ms per side so one timing quantum cannot dominate.
	timeSolve(t, ex, spec, false)
	timeSolve(t, ex, spec, true)
	per := timeSolve(t, ex, spec, false)
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
			u, tr := interleavedRun(t, ex, spec, iters)
			base, withSpans = min(base, u), min(withSpans, tr)
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
