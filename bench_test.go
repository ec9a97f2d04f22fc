package tagdm

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), plus ablations of the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Figure pairs share runs: Figure 3/4 are the time/quality of the same
// Problem 1-3 executions, 5/6 of Problems 4-6, 7/8 of the tuple sweep.
// Absolute times are hardware-specific; the reproduction target is the
// ordering (Exact >> DV-FDP >= SM-LSH) and the quality parity recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bytes"
	"tagdm/internal/core"
	"tagdm/internal/datagen"
	"tagdm/internal/experiments"
	"tagdm/internal/fdp"

	"tagdm/internal/groups"
	"tagdm/internal/incremental"
	"tagdm/internal/lda"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/query"
	"tagdm/internal/signature"
	"tagdm/internal/store"
	"tagdm/internal/userstudy"
	"tagdm/internal/vec"
)

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
	benchExact *core.Engine
)

// benchWorld builds one shared pipeline for all benchmarks: the FastConfig
// corpus (1.5K actions, ~100 groups) keeps `go test -bench=.` minutes-scale;
// cmd/tagdm-bench -scale paper covers the full-size runs.
func benchWorld(b testing.TB) (*experiments.Setup, *core.Engine) {
	b.Helper()
	benchOnce.Do(func() {
		st, err := experiments.Build(experiments.FastConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchSetup = st
		benchExact, err = st.ExactEngine()
		if err != nil {
			b.Fatal(err)
		}
	})
	if benchSetup == nil {
		b.Fatal("bench setup failed earlier")
	}
	return benchSetup, benchExact
}

func benchSpec(b testing.TB, st *experiments.Setup, id int) core.ProblemSpec {
	b.Helper()
	p := experiments.PaperParams()
	spec, err := core.PaperProblem(id, p.K, int(p.SupportPct*float64(st.Store.Len())), p.Q, p.R)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// --- Figures 3 and 4: Problems 1-3, Exact vs SM-LSH-Fi vs SM-LSH-Fo ---

func benchExactRun(b *testing.B, id int) {
	st, ex := benchWorld(b)
	spec := benchSpec(b, st, id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Exact(context.Background(), spec, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSMLSH(b *testing.B, id int, mode core.ConstraintMode) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, id)
	p := experiments.PaperParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: int64(i), Mode: mode}
		if _, err := st.Engine.SMLSH(context.Background(), spec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Problem1Exact(b *testing.B)   { benchExactRun(b, 1) }
func BenchmarkFig3Problem1SMLSHFi(b *testing.B) { benchSMLSH(b, 1, core.Filter) }
func BenchmarkFig3Problem1SMLSHFo(b *testing.B) { benchSMLSH(b, 1, core.Fold) }
func BenchmarkFig3Problem2Exact(b *testing.B)   { benchExactRun(b, 2) }
func BenchmarkFig3Problem2SMLSHFi(b *testing.B) { benchSMLSH(b, 2, core.Filter) }
func BenchmarkFig3Problem2SMLSHFo(b *testing.B) { benchSMLSH(b, 2, core.Fold) }
func BenchmarkFig3Problem3Exact(b *testing.B)   { benchExactRun(b, 3) }
func BenchmarkFig3Problem3SMLSHFi(b *testing.B) { benchSMLSH(b, 3, core.Filter) }
func BenchmarkFig3Problem3SMLSHFo(b *testing.B) { benchSMLSH(b, 3, core.Fold) }

// BenchmarkFig4Quality records the quality metric of Figures 4 alongside
// timing: the objective (avg pairwise tag cosine) per algorithm, reported
// via b.ReportMetric so `-bench` output carries the quality series.
func BenchmarkFig4Quality(b *testing.B) {
	st, ex := benchWorld(b)
	for i := 0; i < b.N; i++ {
		for id := 1; id <= 3; id++ {
			spec := benchSpec(b, st, id)
			exRes, err := ex.Exact(context.Background(), spec, core.ExactOptions{})
			if err != nil {
				b.Fatal(err)
			}
			app, err := st.Engine.SMLSH(context.Background(), spec, core.LSHOptions{Seed: 1, Mode: core.Fold})
			if err != nil {
				b.Fatal(err)
			}
			if id == 1 {
				b.ReportMetric(exRes.Objective, "exact-quality")
				b.ReportMetric(app.Objective, "lsh-quality")
			}
		}
	}
}

// --- Figures 5 and 6: Problems 4-6, Exact vs DV-FDP-Fi vs DV-FDP-Fo ---

func benchDVFDP(b *testing.B, id int, mode core.ConstraintMode) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: mode}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Problem4Exact(b *testing.B)   { benchExactRun(b, 4) }
func BenchmarkFig5Problem4DVFDPFi(b *testing.B) { benchDVFDP(b, 4, core.Filter) }
func BenchmarkFig5Problem4DVFDPFo(b *testing.B) { benchDVFDP(b, 4, core.Fold) }
func BenchmarkFig5Problem5Exact(b *testing.B)   { benchExactRun(b, 5) }
func BenchmarkFig5Problem5DVFDPFi(b *testing.B) { benchDVFDP(b, 5, core.Filter) }
func BenchmarkFig5Problem5DVFDPFo(b *testing.B) { benchDVFDP(b, 5, core.Fold) }
func BenchmarkFig5Problem6Exact(b *testing.B)   { benchExactRun(b, 6) }
func BenchmarkFig5Problem6DVFDPFi(b *testing.B) { benchDVFDP(b, 6, core.Filter) }
func BenchmarkFig5Problem6DVFDPFo(b *testing.B) { benchDVFDP(b, 6, core.Fold) }

// BenchmarkFig6Quality reports the diversity quality series of Figure 6.
func BenchmarkFig6Quality(b *testing.B) {
	st, ex := benchWorld(b)
	for i := 0; i < b.N; i++ {
		spec := benchSpec(b, st, 6)
		exRes, err := ex.Exact(context.Background(), spec, core.ExactOptions{})
		if err != nil {
			b.Fatal(err)
		}
		app, err := st.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(exRes.Objective, "exact-quality")
		b.ReportMetric(app.Objective, "fdp-quality")
	}
}

// --- Figures 7 and 8: execution time and quality vs number of tuples ---

func benchBin(b *testing.B, frac float64, problem int) {
	st, _ := benchWorld(b)
	bin, err := st.BinSetup(int(frac * float64(st.Store.Len())))
	if err != nil {
		b.Fatal(err)
	}
	spec := benchSpec(b, bin, problem)
	p := experiments.PaperParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if problem == 1 {
			_, err = bin.Engine.SMLSH(context.Background(), spec, core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: 1, Mode: core.Fold})
		} else {
			_, err = bin.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Bin15pctProblem1(b *testing.B) { benchBin(b, 0.15, 1) }
func BenchmarkFig7Bin30pctProblem1(b *testing.B) { benchBin(b, 0.30, 1) }
func BenchmarkFig7Bin60pctProblem1(b *testing.B) { benchBin(b, 0.60, 1) }
func BenchmarkFig7Bin90pctProblem1(b *testing.B) { benchBin(b, 0.90, 1) }
func BenchmarkFig7Bin15pctProblem6(b *testing.B) { benchBin(b, 0.15, 6) }
func BenchmarkFig7Bin30pctProblem6(b *testing.B) { benchBin(b, 0.30, 6) }
func BenchmarkFig7Bin60pctProblem6(b *testing.B) { benchBin(b, 0.60, 6) }
func BenchmarkFig7Bin90pctProblem6(b *testing.B) { benchBin(b, 0.90, 6) }

// --- Figure 9: the simulated user study ---

func BenchmarkFig9UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := userstudy.Run(userstudy.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 1-2: tag cloud generation ---

func BenchmarkFig1TagClouds(b *testing.B) {
	st, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := experiments.TagClouds(st, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationLSHTables varies the number of hash tables l.
func BenchmarkAblationLSHTables1(b *testing.B) { benchLSHTables(b, 1) }
func BenchmarkAblationLSHTables2(b *testing.B) { benchLSHTables(b, 2) }
func BenchmarkAblationLSHTables4(b *testing.B) { benchLSHTables(b, 4) }

func benchLSHTables(b *testing.B, l int) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.LSHOptions{DPrime: 10, L: l, Seed: 1, Mode: core.Fold}
		if _, err := st.Engine.SMLSH(context.Background(), spec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLSHDPrime varies the initial hyperplane count d'.
func BenchmarkAblationLSHDPrime5(b *testing.B)  { benchLSHDPrime(b, 5) }
func BenchmarkAblationLSHDPrime10(b *testing.B) { benchLSHDPrime(b, 10) }
func BenchmarkAblationLSHDPrime20(b *testing.B) { benchLSHDPrime(b, 20) }

func benchLSHDPrime(b *testing.B, dprime int) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.LSHOptions{DPrime: dprime, L: 1, Seed: 1, Mode: core.Fold}
		if _, err := st.Engine.SMLSH(context.Background(), spec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRelaxation compares Algorithm 1's binary-search
// relaxation against a single fixed-d' pass.
func BenchmarkAblationRelaxationOn(b *testing.B)  { benchRelaxation(b, false) }
func BenchmarkAblationRelaxationOff(b *testing.B) { benchRelaxation(b, true) }

func benchRelaxation(b *testing.B, disable bool) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.LSHOptions{DPrime: 30, L: 1, Seed: 1, Mode: core.Fold, DisableRelaxation: disable}
		if _, err := st.Engine.SMLSH(context.Background(), spec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFoldVsFilter contrasts the two constraint modes on the
// same diversity problem.
func BenchmarkAblationFDPFold(b *testing.B)   { benchDVFDP(b, 6, core.Fold) }
func BenchmarkAblationFDPFilter(b *testing.B) { benchDVFDP(b, 6, core.Filter) }

// BenchmarkAblationFDPSeed compares the max-edge seed of Algorithm 2
// against an arbitrary fixed seed pair.
func BenchmarkAblationFDPSeedMaxEdge(b *testing.B) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFDPSeedFixed(b *testing.B) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold, FixedSeed: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMatrix compares the paper's precomputed n x n distance
// matrix against lazy distance evaluation.
func BenchmarkAblationMatrixPrecomputed(b *testing.B) {
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold, Precompute: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMatrixLazy(b *testing.B) { benchDVFDP(b, 4, core.Fold) }

// BenchmarkAblationSignature compares the three summarizers' costs.
func BenchmarkAblationSignatureFrequency(b *testing.B) {
	st, _ := benchWorld(b)
	sum := signature.NewFrequency(st.Store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.SummarizeAll(sum, st.Store, st.Groups)
	}
}

func BenchmarkAblationSignatureTFIDF(b *testing.B) {
	st, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := signature.FitTFIDF(st.Store, st.Groups)
		signature.SummarizeAll(sum, st.Store, st.Groups)
	}
}

func BenchmarkAblationSignatureLDAInfer(b *testing.B) {
	st, _ := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.SummarizeAll(st.LDA, st.Store, st.Groups)
	}
}

var (
	paperLDAOnce  sync.Once
	paperLDASetup *experiments.Setup
)

// paperLDAWorld builds the DefaultConfig pipeline (25 topics over the
// ~12K-tag paper vocabulary) once, for the benchmarks that need paper
// sizes: LDA count arrays fit in L1 on the FastConfig corpus, and its
// 60-group Exact engine is a quarter of the paper's 250.
func paperLDAWorld(b *testing.B) *experiments.Setup {
	b.Helper()
	paperLDAOnce.Do(func() {
		st, err := experiments.Build(experiments.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		paperLDASetup = st
	})
	if paperLDASetup == nil {
		b.Fatal("paper LDA pipeline failed to build")
	}
	return paperLDASetup
}

// BenchmarkAblationSignatureLDAInferPaper folds every paper-corpus group
// into the paper's 25-topic model, as experiments.Build does once per
// corpus.
func BenchmarkAblationSignatureLDAInferPaper(b *testing.B) {
	st := paperLDAWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.SummarizeAll(st.LDA, st.Store, st.Groups)
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkSubstrateLDATrain(b *testing.B) {
	st, _ := benchWorld(b)
	for i := 0; i < b.N; i++ {
		if _, err := signature.TrainLDA(st.Store, st.Groups, 8, 40, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrateLDATrainPaper runs 10 Gibbs sweeps of the paper's
// 25-topic model over the DefaultConfig corpus.
func BenchmarkSubstrateLDATrainPaper(b *testing.B) {
	st := paperLDAWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signature.TrainLDA(st.Store, st.Groups, 25, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrateLSHColdEpoch is SM-LSH's cost on a fresh epoch, as the
// server pays it after every ingest batch: a new engine over the
// datagen.Small corpus's frequency signatures (cold cache), then two shard
// partials of an SM-LSH-Fo Problem 1 solve (users and items folded) run
// concurrently, as a two-shard server runs them. The hashing work (sparse
// vectors, plane draw, sign bits) is paid once per epoch and shared by
// both shards; B/op is the garbage one cold solve leaves.
func BenchmarkSubstrateLSHColdEpoch(b *testing.B) {
	world, err := datagen.Generate(datagen.Small())
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.New(world.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 5}).FullyDescribed()
	sigs := signature.SummarizeAll(signature.NewFrequency(s), s, gs)
	spec, err := core.PaperProblem(1, 3, s.Len()/100, 0.5, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.SolveOptions{LSH: core.LSHOptions{DPrime: 10, L: 1, Seed: 1, Mode: core.Fold}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.NewEngine(s, gs, sigs)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for shard := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[shard] = e.SolvePartial(ctx, spec, opts, shard, 2)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTagMatrixFrequency is a scratch build of the tag-diversity pair
// matrix over the datagen.Small corpus's frequency signatures (400
// dimensions, about 13 non-zeros per group): the build the server pays
// for the unscoped engine whenever an epoch has no carry to rebuild from.
func BenchmarkTagMatrixFrequency(b *testing.B) {
	world, err := datagen.Generate(datagen.Small())
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.New(world.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 5}).FullyDescribed()
	e, err := core.NewEngine(s, gs, signature.SummarizeAll(signature.NewFrequency(s), s, gs))
	if err != nil {
		b.Fatal(err)
	}
	pair := e.PairFunc(mining.Tags, mining.Diversity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.NewPairMatrix(gs, pair, 0)
	}
}

func BenchmarkSubstrateFDPGreedy(b *testing.B) {
	st, _ := benchWorld(b)
	n := len(st.Sigs)
	dist := func(i, j int) float64 {
		return vec.CosineDistance(st.Sigs[i].Weights, st.Sigs[j].Weights)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fdp.MaxAvg(n, 3, dist, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateGibbsSweep(b *testing.B) {
	// One LDA training sweep over a fixed corpus, isolating sampler cost.
	docs := make([]lda.Document, 50)
	for d := range docs {
		doc := make(lda.Document, 40)
		for i := range doc {
			doc[i] = (d*7 + i) % 200
		}
		docs[d] = doc
	}
	corpus := lda.Corpus{Docs: docs, VocabSize: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lda.Train(corpus, lda.Config{Topics: 8, Iterations: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks: parallel exact, incremental inserts, queries,
// persistence ---

func BenchmarkExactSerial(b *testing.B) {
	_, ex := benchWorld(b)
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Exact(context.Background(), spec, core.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSerialNoPruning measures the retained full-enumeration
// oracle, so the trajectory records the branch-and-bound speedup as the
// Serial/SerialNoPruning ratio rather than losing the baseline.
func BenchmarkExactSerialNoPruning(b *testing.B) {
	_, ex := benchWorld(b)
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Exact(context.Background(), spec, core.ExactOptions{DisablePruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactParallel(b *testing.B) {
	_, ex := benchWorld(b)
	st, _ := benchWorld(b)
	spec := benchSpec(b, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExactSharded(context.Background(), spec, core.ExactOptions{}, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactLeafScanPaper runs Exact over the 250-group paper engine
// with pruning off, so nearly all its time is the last DFS level's leaf
// scan, and reports the cost per examined candidate. Problems 4 and 6 at
// the paper's 1% support are paper-batch's most expensive Exact specs.
func BenchmarkExactLeafScanPaper(b *testing.B) {
	st := paperLDAWorld(b)
	ex, err := st.ExactEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range []int{4, 6} {
		spec := benchSpec(b, st, id)
		ex.PrewarmMatrices(spec)
		b.Run(fmt.Sprintf("Problem%d", id), func(b *testing.B) {
			var examined int64
			for i := 0; i < b.N; i++ {
				res, err := ex.Exact(context.Background(), spec, core.ExactOptions{DisablePruning: true})
				if err != nil {
					b.Fatal(err)
				}
				examined += res.CandidatesExamined
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(examined), "ns/candidate")
		})
	}
}

// BenchmarkDVFDPPaper runs DV-FDP-Fo over the 250-group paper engine on
// Problems 4 and 6 at the paper's parameters, the diversity specs
// paper-batch answers with DV-FDP, and reports the cost per solve and per
// examined candidate (greedy adds plus local-search swap trials).
func BenchmarkDVFDPPaper(b *testing.B) {
	st := paperLDAWorld(b)
	ex, err := st.ExactEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range []int{4, 6} {
		spec := benchSpec(b, st, id)
		ex.PrewarmMatrices(spec)
		b.Run(fmt.Sprintf("Problem%d", id), func(b *testing.B) {
			var examined int64
			for i := 0; i < b.N; i++ {
				res, err := ex.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold})
				if err != nil {
					b.Fatal(err)
				}
				examined += res.CandidatesExamined
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(examined), "ns/examined")
			b.ReportMetric(ns/float64(b.N), "ns/solve")
		})
	}
}

// BenchmarkIncrementalInsert measures per-insert maintenance cost
// (store append + group routing) without signature refresh.
func BenchmarkIncrementalInsert(b *testing.B) {
	cfg := datagen.Small()
	world, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.New(world.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	m, err := incremental.New(world.Dataset, 5, signature.NewFrequency(s))
	if err != nil {
		b.Fatal(err)
	}
	tag := world.Dataset.Vocab.ID("tag-00-0000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := model.TaggingAction{
			User: int32(i % cfg.Users),
			Item: int32(i % cfg.Items),
			Tags: []model.TagID{tag},
		}
		if err := m.Insert(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalSnapshot measures the cost of a snapshot (changed
// groups re-summarized and rescanned, store and groups shared, engine
// built) after a batch of 100 inserts, amortized.
func BenchmarkIncrementalSnapshot(b *testing.B) {
	cfg := datagen.Small()
	world, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := store.New(world.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	m, err := incremental.New(world.Dataset, 5, signature.NewFrequency(s))
	if err != nil {
		b.Fatal(err)
	}
	tag := world.Dataset.Vocab.ID("tag-00-0000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			a := model.TaggingAction{
				User: int32((i*100 + j) % cfg.Users),
				Item: int32((i*100 + j) % cfg.Items),
				Tags: []model.TagID{tag},
			}
			if err := m.Insert(a); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainerSolveAfterInserts measures the library's streaming
// path end to end: 100 inserts spread over datagen.Small's users and
// items, then one tagdm.Maintainer.Solve of Problem 6 (DV-FDP-Fo, k=3,
// support 15), which snapshots the changed epoch and rebuilds the changed
// groups' pair-matrix rows.
func BenchmarkMaintainerSolveAfterInserts(b *testing.B) {
	cfg := SmallGenerateConfig()
	ds, err := GenerateDataset(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMaintainer(ds, Options{Signatures: SignatureFrequency, MinGroupTuples: 5})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := Problem(6, 3, 15, 0.5, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Solve(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			k := i*100 + j
			if err := m.Insert(int32(k%cfg.Users), int32(k%cfg.Items), 0, "tag-00-0000"); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Solve(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pair-matrix scoring layer: naive vs matrix vs incremental ---

// benchObjectiveSpec is a fixed problem-1 spec and a fixed candidate set
// over the Exact engine, shared by the objective-evaluation benchmarks.
func benchObjectiveWorld(b *testing.B) (*core.Engine, core.ProblemSpec, []*groups.Group, []int) {
	b.Helper()
	st, ex := benchWorld(b)
	spec := benchSpec(b, st, 1)
	ids := []int{1, 5, 9}
	set := make([]*groups.Group, len(ids))
	for i, id := range ids {
		set[i] = ex.Groups[id]
	}
	ex.PrewarmMatrices(spec)
	return ex, spec, set, ids
}

// BenchmarkObjectiveEvalNaive is the pre-matrix path: every call re-runs
// the pair functions over all pairs and allocates a scores slice.
func BenchmarkObjectiveEvalNaive(b *testing.B) {
	ex, spec, set, _ := benchObjectiveWorld(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex.ObjectiveScore(set, spec)
	}
}

// BenchmarkObjectiveEvalMatrix reads precomputed pair values: no pair
// function calls, no allocation.
func BenchmarkObjectiveEvalMatrix(b *testing.B) {
	ex, _, _, ids := benchObjectiveWorld(b)
	m := ex.PairMatrix(mining.Tags, mining.Similarity)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MeanOver(ids)
	}
}

// --- Support kernels: Clone+Or vs allocation-free union ---

func benchSupportSets(b *testing.B) [][]*store.Bitmap {
	b.Helper()
	_, ex := benchWorld(b)
	sets := make([][]*store.Bitmap, 0, 32)
	for i := 0; i+3 <= len(ex.Groups); i += 3 {
		sets = append(sets, []*store.Bitmap{
			ex.Groups[i].Tuples, ex.Groups[i+1].Tuples, ex.Groups[i+2].Tuples,
		})
		if len(sets) == 32 {
			break
		}
	}
	return sets
}

// BenchmarkSupportClone is the pre-kernel path: Clone the first bitmap,
// Or the rest in, Count.
func BenchmarkSupportClone(b *testing.B) {
	sets := benchSupportSets(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		maps := sets[i%len(sets)]
		u := maps[0].Clone()
		for _, m := range maps[1:] {
			u.Or(m)
		}
		_ = u.Count()
	}
}

// BenchmarkSupportUnionInto accumulates into one reusable buffer with
// counts folded into the union pass.
func BenchmarkSupportUnionInto(b *testing.B) {
	st, _ := benchWorld(b)
	sets := benchSupportSets(b)
	scratch := store.NewBitmap(st.Store.Len())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		maps := sets[i%len(sets)]
		count := maps[0].UnionCountInto(maps[1], scratch)
		for _, m := range maps[2:] {
			count = scratch.UnionCountInto(m, scratch)
		}
		_ = count
	}
}

// --- Sparse-corpus union kernels ---
//
// Container kernels pay per occupied container, not per universe word:
// at <= 1% density over a 1M-id universe most chunks hold arrays, and a
// chunk present on one side of a union costs its cached cardinality. These
// benchmarks track that regime; the acceptance criterion is that no row
// gets slower than the last recorded trajectory (tagdm-bench -sparse).

const sparseUniverse = 1 << 20

// benchSparseBitmaps builds triples of random bitmaps over a 1M-id
// universe at the given cardinality. Keep the fixture in lockstep with
// runSparse in cmd/tagdm-bench, which records the same matrix as a
// JSON-lines performance trajectory.
func benchSparseBitmaps(card int) [][3]*store.Bitmap {
	rng := rand.New(rand.NewSource(11))
	sets := make([][3]*store.Bitmap, 8)
	for i := range sets {
		for j := 0; j < 3; j++ {
			bm := store.NewBitmap(sparseUniverse)
			for k := 0; k < card; k++ {
				bm.Set(rng.Intn(sparseUniverse))
			}
			sets[i][j] = bm
		}
	}
	return sets
}

func sparseDensityCases() []struct {
	name string
	card int
} {
	return []struct {
		name string
		card int
	}{
		// 0.01% is the shape of real group tuple sets (tens to hundreds of
		// tuples over a paper-scale corpus); at 1% every chunk holds ~655
		// ids, past the 256-id array ceiling, so bitsets take over.
		{"density=0.01pct", sparseUniverse / 10000},
		{"density=0.1pct", sparseUniverse / 1000},
		{"density=1pct", sparseUniverse / 100},
	}
}

func BenchmarkSparseOrCount(b *testing.B) {
	for _, d := range sparseDensityCases() {
		sets := benchSparseBitmaps(d.card)
		b.Run(d.name+"/containers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maps := sets[i%len(sets)]
				_ = maps[0].OrCount(maps[1])
			}
		})
	}
}

func BenchmarkSparseUnionCountInto(b *testing.B) {
	for _, d := range sparseDensityCases() {
		sets := benchSparseBitmaps(d.card)
		// Two per-depth buffers, as in the Exact DFS: each union level
		// derives from its parent into a distinct reusable buffer.
		u1, u2 := store.NewBitmap(sparseUniverse), store.NewBitmap(sparseUniverse)
		b.Run(d.name+"/containers", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maps := sets[i%len(sets)]
				_ = maps[0].UnionCountInto(maps[1], u1)
				_ = u1.UnionCountInto(maps[2], u2)
			}
		})
	}
}

func BenchmarkQueryParse(b *testing.B) {
	const q = "ANALYZE MAXIMIZE diversity(tags), diversity(users) * 0.5 SUBJECT TO similarity(items) >= 0.4 WHERE gender=male AND state=CA WITH k=4, support=1%"
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisSaveLoad(b *testing.B) {
	ds, err := GenerateDataset(SmallGenerateConfig())
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAnalysis(ds, Options{Signatures: SignatureFrequency})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadAnalysis(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKSweepK4(b *testing.B) {
	st, _ := benchWorld(b)
	p := experiments.PaperParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KSweep(st, p, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}
