package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"syscall"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/experiments"
	"tagdm/internal/mining"
	"tagdm/internal/obs"
	"tagdm/internal/store"
)

// batchInstance is one analysis of paper-batch: a paper problem answered
// by Exact and by the approximate family on the same engine.
type batchInstance struct {
	spec core.ProblemSpec
	id   int
	ex   *core.Engine
	seed int64
}

// batchCorpora is how many corpora one paper-batch run sets up and passes
// over: a corpus's Exact costs swing with its data. With three, the same
// seed's runs agreed (correlation 0.8 across two sets) while seeds
// differed by up to 25%; six shrink the seeds' share of the spread.
const batchCorpora = 6

// runBatch is the paper-batch workload: experiments.DefaultConfig (LDA
// signatures, Exact over the 250 largest groups) over six corpora on one
// goroutine, passing repeatedly over problems 1-6 × k in {2,3} × support
// in {1%, 2%} on each. Each analysis runs Exact, then SM-LSH-Fo (problems
// 1-3) or DV-FDP-Fo (4-6) on the Exact engine, so the approximate
// objective can be compared with the optimum. Latency percentiles are over
// passes (see passMs); throughput and CPU are per analysis. Every time is
// reported at reference host speed (see calib.go), by probes before and
// after each set-up and ticks through the passes.
func runBatch(e *env) (*report, error) {
	rep := newReport(e.trace)
	sp := newSpeed()
	var setups []float64
	var insts []batchInstance
	var sts []*experiments.Setup
	var exs []*core.Engine
	for i := int64(0); i < batchCorpora; i++ {
		cfg := experiments.DefaultConfig()
		cfg.Data.Seed = e.seed*batchCorpora + i
		cfg.Seed = cfg.Data.Seed
		sp.probe()
		t := time.Now()
		st, err := experiments.Build(cfg)
		if err != nil {
			return nil, err
		}
		ex, err := st.ExactEngine()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		sp.probe()
		sts, exs = append(sts, st), append(exs, ex)
		rep.flags = append(rep.flags, fmt.Sprintf("experiments.DefaultConfig{Data.Seed=%d, ExactGroupCap=%d}", cfg.Data.Seed, cfg.ExactGroupCap))
		for id := 1; id <= 6; id++ {
			for _, k := range []int{2, 3} {
				for _, pct := range []float64{0.01, 0.02} {
					spec, err := core.PaperProblem(id, k, int(pct*float64(st.Store.Len())), 0.5, 0.5)
					if err != nil {
						return nil, err
					}
					insts = append(insts, batchInstance{spec: spec, id: id, ex: ex, seed: cfg.Seed})
				}
			}
		}
	}
	// Each corpus's analyses run together, in an order drawn from the
	// seed, as a study analyses one dataset at a time. Shuffled across
	// corpora, every analysis started on another corpus's cold data: the
	// runs then moved with the host's memory system, which the speed probe
	// does not follow, and analyze_p50_ms spread 0.22 over ten seeds; in
	// this order it spread 0.06-0.08 in two sets of ten.
	rng := rand.New(rand.NewSource(e.seed))
	per := len(insts) / batchCorpora
	for c := 0; c < batchCorpora; c++ {
		block := insts[c*per : (c+1)*per]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}

	quality := make([]float64, len(insts))
	checked := make([]bool, len(insts))
	// passMs holds, per complete pass over the instances, the mean
	// analysis latency in that pass: every pass does the same work, so
	// its percentiles are steady where per-analysis ones would jump
	// between cheap and expensive problems.
	var passMs, tracedMs, plainMs []float64
	stages := map[string]float64{}
	var examined, pruned int64
	var builds, rebuilds, hits, lazy int
	analyses := 0
	ctx := context.Background()
	cpu0, spent0 := selfCPU(), sp.spent
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds) * time.Second)
	for pass := 0; time.Now().Before(deadline); pass++ {
		// A traced run records spans on every other pass, so traced and
		// untraced passes cover the same specs.
		traced := e.trace && pass%2 == 1
		passStart, passSpent := time.Now(), sp.spent
		done := 0
		for i, in := range insts {
			if !time.Now().Before(deadline) {
				break
			}
			actx := ctx
			var root *obs.Span
			if traced {
				root = obs.NewTrace("analyze")
				actx = obs.WithSpan(ctx, root)
			}
			exact, err := in.ex.Exact(actx, in.spec, core.ExactOptions{})
			if err != nil {
				return nil, fmt.Errorf("exact %s: %w", in.spec.Name, err)
			}
			var approx core.Result
			if in.id <= 3 {
				approx, err = in.ex.SMLSH(actx, in.spec, core.LSHOptions{Seed: in.seed, Mode: core.Fold})
			} else {
				approx, err = in.ex.DVFDP(actx, in.spec, core.FDPOptions{Mode: core.Fold})
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.spec.Name, err)
			}
			root.End()
			analyses++
			done++
			for _, r := range []*core.Result{&exact, &approx} {
				for _, s := range r.Stages {
					stages[s.Name] += ms(s.Wall)
				}
				builds += r.MatrixBuilds
				rebuilds += r.MatrixRebuilds
				hits += r.MatrixHits
				lazy += r.MatrixLazy
			}
			examined += exact.CandidatesExamined
			pruned += exact.CandidatesPruned
			if !checked[i] {
				checked[i] = true
				quality[i] = checkApprox(rep, in.spec, exact, approx)
			}
			// Every fourth analysis, time the host: the ticks sample its
			// speed evenly over the loop, which a probe at each pass end
			// (every few seconds) did not.
			if i%4 == 3 {
				sp.tick()
			}
		}
		if done < len(insts) {
			break
		}
		m := ms(time.Since(passStart)-(sp.spent-passSpent)) / float64(len(insts))
		passMs = append(passMs, m)
		if traced {
			tracedMs = append(tracedMs, m)
		} else {
			plainMs = append(plainMs, m)
		}
	}
	// The probes ran on this goroutine: their time is neither the loop's
	// throughput nor its CPU.
	probed := sp.spent - spent0
	elapsed := (time.Since(start) - probed).Seconds()
	cpu := selfCPU() - cpu0 - probed
	slow := sp.slowdown()
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.attempted = analyses

	var qs []float64
	for i := range insts {
		if checked[i] && !math.IsNaN(quality[i]) {
			qs = append(qs, quality[i])
		}
	}
	rep.info("host_slowdown", slow, "ratio")
	rep.legs = map[string][]float64{"setup_s": slices.Clone(setups), "pass_ms": slices.Clone(passMs)}
	rep.timing(slow, "setup_s", median(setups), "s")
	rep.timing(slow, "analyze_p50_ms", percentile(slices.Clone(passMs), 0.50), "ms")
	rep.timing(slow, "analyze_p95_ms", percentile(slices.Clone(passMs), 0.95), "ms")
	rep.timing(slow, "saturated_rps", float64(analyses)/elapsed, "1/s")
	rep.timing(slow, "cpu_ms_per_op", ratio(ms(cpu), float64(analyses)), "ms")
	rep.metric("rss_peak_mb", hwm, "MiB")
	rep.info("analyze_samples", float64(len(passMs)), "count")
	rep.info("batch_solves_per_s", float64(2*analyses)/elapsed, "1/s")
	rep.info("approx_quality", mean(qs), "ratio")
	rep.info("approx_quality_instances", float64(len(qs)), "count")
	rep.info("failed_frac", 0, "ratio")
	for _, n := range []string{"ingest_p50_ms", "ingest_p95_ms"} {
		rep.na(n, "no ingest in paper-batch")
	}

	if e.trace {
		per := math.Max(float64(analyses), 1)
		meanMs := ms(time.Duration(elapsed*float64(time.Second))) / per
		var acc float64
		for name, v := range stages {
			acc += v / per
			if _, listed := layerUnits["core.stage_ms."+name]; listed {
				rep.layer("core.stage_ms."+name, v/per)
			}
		}
		rep.layer("bench.analyze_accounted_frac", ratio(acc, meanMs))
		rep.layer("bench.analyze_remainder_ms", meanMs-acc)
		rep.layer("core.prune_ratio", ratio(float64(pruned), float64(examined+pruned)))
		rep.layer("core.candidates_per_solve", ratio(float64(examined), per))
		rep.layer("core.matrix_builds", float64(builds))
		rep.layer("core.matrix_rebuilds", float64(rebuilds))
		rep.layer("core.matrix_hits", float64(hits))
		rep.layer("core.matrix_lazy", float64(lazy))
		var matrixBytes int64
		for _, ex := range exs {
			matrixBytes += ex.MatrixStats().Bytes
		}
		rep.layer("core.matrix_mb", float64(matrixBytes)/batchCorpora/(1<<20))
		if len(tracedMs) > 0 && len(plainMs) > 0 {
			rep.layer("obs.trace_overhead_frac", median(tracedMs)/median(plainMs)-1)
		} else {
			rep.na("obs.trace_overhead_frac", "run too short for a traced pass")
		}
		rep.layer("store.union_count_us", unionCountMicros(exs[0], rng))
		fresh, err := sts[0].ExactEngine()
		if err != nil {
			return nil, err
		}
		for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
			t := time.Now()
			fresh.PairMatrix(dim, mining.Similarity)
			fresh.PairMatrix(dim, mining.Diversity)
			rep.layer("mining.build_ms."+dimNames[dim], ms(time.Since(t)))
		}
		for _, l := range perLayer {
			if _, measured := rep.metrics[l.name]; measured {
				continue
			}
			switch l.name[:4] {
			case "serv", "wal.", "incr", "benc":
				rep.na(l.name, "no server, ingest or client queue in paper-batch")
			}
		}
		rep.na("mining.rebuild_ms.tags", "no ingest in paper-batch")
		for _, n := range []string{"query.parse_ms", "store.eval_ms", "groups.enumerate_ms", "signature.summarize_ms"} {
			rep.na(n, "paper-batch solves specs directly: no statements, no WHERE scopes")
		}
	}
	return rep, nil
}

// checkApprox fails the run when the approximate answer beats Exact on the
// same engine, and returns approx/exact objective (0 when the approximate
// family found nothing, NaN when Exact found nothing either).
func checkApprox(rep *report, spec core.ProblemSpec, exact, approx core.Result) float64 {
	switch {
	case !exact.Found && approx.Found:
		rep.fail("%s: %s found a feasible set (objective %v) where Exact found none", spec.Name, approx.Algorithm, approx.Objective)
		return math.NaN()
	case !exact.Found:
		return math.NaN()
	case !approx.Found:
		return 0
	case approx.Objective > exact.Objective+1e-9*math.Abs(exact.Objective):
		rep.fail("%s: %s objective %v beats Exact's %v", spec.Name, approx.Algorithm, approx.Objective, exact.Objective)
	}
	return approx.Objective / exact.Objective
}

// unionCountMicros times the store's support-union kernel over random
// 3-group sets of the engine's groups, the union Exact computes per
// candidate, and returns the mean in microseconds.
func unionCountMicros(ex *core.Engine, rng *rand.Rand) float64 {
	const sets = 2000
	gs := ex.Groups
	bms := make([]*store.Bitmap, 3)
	t := time.Now()
	for i := 0; i < sets; i++ {
		for j := range bms {
			bms[j] = gs[rng.Intn(len(gs))].Tuples
		}
		store.UnionCount(bms)
	}
	return float64(time.Since(t)) / 1e3 / sets
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
