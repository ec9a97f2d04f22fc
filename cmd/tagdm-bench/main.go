// Command tagdm-bench regenerates the paper's evaluation artifacts: the
// tag clouds of Figures 1-2, the execution-time and quality comparisons of
// Figures 3-6, the tuple-count sweep of Figures 7-8, the simulated user
// study of Figure 9, and the Table 1 / Table 2 summaries.
//
// Usage:
//
//	tagdm-bench [-scale fast|paper] [-fig 1|3|5|7|9] [-table 1|2] [-all]
//	            [-bnb] [-sparse] [-trace] [-setup] [-snapshot] [-json]
//	            [-commit sha] [-timestamp ts]
//
// With -all (the default when no selector is given) every artifact is
// produced in order. -fig 3 covers Figures 3 and 4 (same runs measure time
// and quality); likewise 5 covers 6, and 7 covers 8.
//
// With -json, the timed artifacts (figures 3/5/7, ablations, the k sweep)
// are emitted as one JSON object per line on stdout instead of rendered
// tables, for appending to a BENCH_*.json performance trajectory:
//
//	{"bench":"fig3","scale":"fast","problem":"Problem 1","algorithm":"Exact",
//	 "millis":2.1,"quality":0.83,"found":true}
//
// The first -json line is a self-describing meta record carrying the git
// commit (-commit, defaulting to `git rev-parse --short HEAD` when
// available), a timestamp (-timestamp overrides the wall clock, for
// reproducible records), and the run configuration, so a trajectory file
// pins each measurement to the code that produced it.
//
// Untimed artifacts (tag clouds, the user study, tables) keep their text
// form and are skipped under -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/datagen"
	"tagdm/internal/experiments"
	"tagdm/internal/groups"
	"tagdm/internal/incremental"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
	"tagdm/internal/userstudy"
)

// benchRecord is one JSON-lines measurement; zero-valued selector fields
// are omitted so each bench kind carries only its own axes.
type benchRecord struct {
	Bench     string `json:"bench"`
	Scale     string `json:"scale"`
	Problem   string `json:"problem,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Sweep     string `json:"sweep,omitempty"`
	Variant   string `json:"variant,omitempty"`
	Tuples    int    `json:"tuples,omitempty"`
	NumGroups int    `json:"groups,omitempty"`
	K         int    `json:"k,omitempty"`
	// Stage names one solver phase (trace records): matrix, enumerate,
	// lsh_build, bucket_scan, greedy, local_search, or total; or one set-up
	// phase (setup records): datagen, store, groups, lda_train, summarize,
	// engine, exact_engine, or total.
	Stage  string  `json:"stage,omitempty"`
	Millis float64 `json:"millis"`
	// Quality is present where the underlying run has a quality axis —
	// pointers, not omitempty, so a measured 0.0 still appears.
	Quality *float64 `json:"quality,omitempty"`
	// Candidates is the Exact enumeration size (k-sweep records only) or
	// the examined-candidate count (bnb records).
	Candidates int64 `json:"candidates,omitempty"`
	// Pruned is the branch-and-bound pruned-candidate count (bnb records).
	Pruned int64 `json:"pruned,omitempty"`
	// Support is the support floor as a fraction of the corpus's tuples
	// (bnb records).
	Support float64 `json:"support,omitempty"`
	// NsPerCandidate is wall time per examined candidate (bnb records).
	NsPerCandidate float64 `json:"ns_per_candidate,omitempty"`
	// Found is present where the underlying run tracks feasibility
	// (figures and ablations); k-sweep rows measure time only.
	Found *bool `json:"found,omitempty"`
	// RetainedBytes is the heap one retained snapshot adds (snapshot
	// records).
	RetainedBytes int64 `json:"retained_bytes,omitempty"`
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// benchMeta is the first -json line: it pins the trajectory records that
// follow to the code revision, time, and environment that produced them.
type benchMeta struct {
	Bench     string `json:"bench"` // always "meta"
	Scale     string `json:"scale"`
	Commit    string `json:"commit,omitempty"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Args      string `json:"args"`
}

// resolveCommit returns the explicit flag value, or asks git for the
// current short commit; empty (not fatal) when neither is available, so
// exported binaries outside a checkout still emit records.
func resolveCommit(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

type jsonEmitter struct {
	enc   *json.Encoder
	scale string
}

func newJSONEmitter(scale, commit, timestamp string) *jsonEmitter {
	e := &jsonEmitter{enc: json.NewEncoder(os.Stdout), scale: scale}
	if timestamp == "" {
		timestamp = time.Now().UTC().Format(time.RFC3339)
	}
	meta := benchMeta{
		Bench:     "meta",
		Scale:     scale,
		Commit:    resolveCommit(commit),
		Timestamp: timestamp,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Args:      strings.Join(os.Args[1:], " "),
	}
	if err := e.enc.Encode(meta); err != nil {
		log.Fatal(err)
	}
	return e
}

func (e *jsonEmitter) record(r benchRecord) {
	r.Scale = e.scale
	if err := e.enc.Encode(r); err != nil {
		log.Fatal(err)
	}
}

func (e *jsonEmitter) table(bench string, t experiments.Table) {
	for _, r := range t.Rows {
		found, quality := r.Found, r.Quality
		e.record(benchRecord{Bench: bench, Problem: r.Problem, Algorithm: r.Algorithm,
			Millis: millis(r.Elapsed), Quality: &quality, Found: &found})
	}
}

func (e *jsonEmitter) binTable(bench string, t experiments.BinTable) {
	for _, r := range t.Rows {
		found, quality := r.Found, r.Quality
		e.record(benchRecord{Bench: bench, Problem: r.Problem, Algorithm: r.Algorithm,
			Tuples: r.Tuples, NumGroups: r.NumGroups,
			Millis: millis(r.Elapsed), Quality: &quality, Found: &found})
	}
}

func (e *jsonEmitter) ablationTable(t experiments.AblationTable) {
	for _, r := range t.Rows {
		found, quality := r.Found, r.Quality
		e.record(benchRecord{Bench: "ablation", Sweep: r.Sweep, Variant: r.Variant,
			Millis: millis(r.Elapsed), Quality: &quality, Found: &found})
	}
}

func (e *jsonEmitter) bnbTable(t experiments.BnBTable) {
	for _, r := range t.Rows {
		algo := "Exact"
		if r.Parallel {
			algo = "Exact-parallel"
		}
		found := r.Found
		e.record(benchRecord{Bench: "bnb", Problem: r.Problem, Algorithm: algo,
			Variant: r.Variant, Support: r.Support, Millis: millis(r.Elapsed),
			Candidates: r.Examined, Pruned: r.Pruned, NsPerCandidate: r.NsPerCandidate(), Found: &found})
	}
}

func (e *jsonEmitter) stageTable(t experiments.StageTraceTable) {
	for _, r := range t.Rows {
		e.record(benchRecord{Bench: "trace", Problem: r.Problem,
			Algorithm: r.Algorithm, Stage: r.Stage, Millis: millis(r.Wall)})
	}
}

func (e *jsonEmitter) ksweepTable(t experiments.KSweepTable) {
	for _, r := range t.Rows {
		e.record(benchRecord{Bench: "ksweep", Algorithm: "Exact", K: r.K,
			Candidates: r.Candidates, Millis: millis(r.Exact)})
		e.record(benchRecord{Bench: "ksweep", Algorithm: "Exact-parallel", K: r.K,
			Candidates: r.Candidates, Millis: millis(r.ExactPar)})
		e.record(benchRecord{Bench: "ksweep", Algorithm: r.ApproxAlgo, K: r.K,
			Millis: millis(r.Approx)})
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tagdm-bench: ")
	scale := flag.String("scale", "fast", "corpus scale: fast or paper")
	fig := flag.Int("fig", 0, "regenerate one figure pair (1, 3, 5, 7 or 9)")
	table := flag.Int("table", 0, "print one table (1 or 2)")
	ablation := flag.Bool("ablation", false, "run the design-choice ablation sweeps")
	transfer := flag.Bool("transfer", false, "run the attribute-transfer experiment")
	ksweep := flag.Bool("ksweep", false, "run the k-scalability sweep (Exact blow-up)")
	bnb := flag.Bool("bnb", false, "run the Exact branch-and-bound pruning sweep (pruning on vs off)")
	sparse := flag.Bool("sparse", false, "run the sparse-corpus union-kernel sweep over container bitmaps")
	matrixReuse := flag.Bool("matrix-reuse", false, "run the pair-matrix lifecycle sweep (scratch build vs dirty-row rebuild vs shared-cache hit)")
	trace := flag.Bool("trace", false, "emit per-stage solver timing breakdowns (matrix, enumerate, lsh_build, ...)")
	setupTimes := flag.Bool("setup", false, "time each set-up phase (datagen, store, groups, lda_train, summarize, engine, exact_engine) per corpus")
	snapshot := flag.Bool("snapshot", false, "time one maintainer Snapshot after one insert, and the heap it retains, on datagen.Small and datagen.Default")
	all := flag.Bool("all", false, "regenerate everything")
	asJSON := flag.Bool("json", false, "emit timed results as JSON lines instead of tables")
	commit := flag.String("commit", "", "git commit recorded in the -json meta line (default: git rev-parse --short HEAD)")
	timestamp := flag.String("timestamp", "", "timestamp recorded in the -json meta line (default: wall clock, RFC 3339)")
	flag.Parse()

	if *fig == 0 && *table == 0 && !*ablation && !*transfer && !*ksweep && !*bnb && !*sparse && !*trace && !*matrixReuse && !*setupTimes && !*snapshot {
		*all = true
	}

	var cfg experiments.Config
	switch *scale {
	case "fast":
		cfg = experiments.FastConfig()
	case "paper":
		cfg = experiments.DefaultConfig()
	default:
		log.Fatalf("unknown scale %q (want fast or paper)", *scale)
	}

	var emit *jsonEmitter
	if *asJSON {
		emit = newJSONEmitter(*scale, *commit, *timestamp)
	}

	if emit == nil {
		if *table == 1 || *all {
			printTable1()
		}
		if *table == 2 || *all {
			printTable2()
		}
	} else if *table != 0 || *fig == 1 || *fig == 9 || *transfer {
		// Untimed artifacts have no JSON form; say so instead of exiting
		// zero with empty output.
		fmt.Fprintln(os.Stderr, "tagdm-bench: tables, figures 1/9 and -transfer are text-only and skipped under -json")
	}
	if *table != 0 && !*all && *fig == 0 {
		return
	}

	needSetup := *all || *ablation || *ksweep || *bnb || *trace || *matrixReuse || *fig == 1 || *fig == 3 || *fig == 5 || *fig == 7
	var st *experiments.Setup
	if needSetup {
		fmt.Fprintf(os.Stderr, "building %s pipeline (datagen + LDA)...\n", *scale)
		var err error
		st, err = experiments.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pipeline ready: %d actions, %d groups\n\n",
			st.Store.Len(), len(st.Groups))
	}
	p := experiments.PaperParams()

	if (*all || *fig == 1) && emit == nil {
		allCloud, stateCloud, director, state, err := experiments.TagClouds(st, 12)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== Figure 1: tag signature, director=%s, all users ==\n%s\n\n", director, allCloud)
		fmt.Printf("== Figure 2: tag signature, director=%s, state=%s users ==\n%s\n\n", director, state, stateCloud)
	}
	if *all || *fig == 3 {
		tab, err := experiments.SimilarityProblems(st, p)
		if err != nil {
			log.Fatal(err)
		}
		if emit != nil {
			emit.table("fig3", tab)
		} else {
			fmt.Println(tab.Render())
		}
	}
	if *all || *fig == 5 {
		tab, err := experiments.DiversityProblems(st, p)
		if err != nil {
			log.Fatal(err)
		}
		if emit != nil {
			emit.table("fig5", tab)
		} else {
			fmt.Println(tab.Render())
		}
	}
	if *all || *fig == 7 {
		tab, err := experiments.TupleSweep(st, p, nil)
		if err != nil {
			log.Fatal(err)
		}
		if emit != nil {
			emit.binTable("fig7", tab)
		} else {
			fmt.Println(tab.Render())
		}
	}
	if (*all || *fig == 9) && emit == nil {
		res, err := userstudy.Run(userstudy.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Render())
	}
	if *all || *ablation {
		tab, err := experiments.Ablations(st, p)
		if err != nil {
			log.Fatal(err)
		}
		if emit != nil {
			emit.ablationTable(tab)
		} else {
			fmt.Println(tab.Render())
		}
	}
	if *all || *bnb {
		tab, err := experiments.BnBSweep(st, p)
		if err != nil {
			log.Fatal(err)
		}
		if emit != nil {
			emit.bnbTable(tab)
		} else {
			fmt.Println(tab.Render())
		}
	}
	if *all || *trace {
		tab, err := experiments.StageTraces(st, p)
		if err != nil {
			log.Fatal(err)
		}
		if emit != nil {
			emit.stageTable(tab)
		} else {
			fmt.Println(tab.Render())
		}
	}
	if *all || *ksweep {
		tab, err := experiments.KSweep(st, p, nil)
		if err != nil {
			log.Fatal(err)
		}
		if emit != nil {
			emit.ksweepTable(tab)
		} else {
			fmt.Println(tab.Render())
		}
	}
	if (*all || *transfer) && emit == nil {
		rep, err := experiments.Transfer(datagen.DefaultTransfer())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rep.Render())
	}
	if *all || *sparse {
		runSparse(emit)
	}
	if *all || *setupTimes {
		runSetup(cfg, emit)
	}
	if *all || *matrixReuse {
		runMatrixReuse(st, emit)
	}
	if *all || *snapshot {
		runSnapshot(emit)
	}
}

// --- snapshot cost ---

// snapshotReps is how many one-insert epochs -snapshot takes per corpus.
const snapshotReps = 20

// runSnapshot measures what publishing an epoch costs the server's
// maintainer (frequency signatures, groups of at least 5 tuples) after
// one insert, on datagen.Small and datagen.Default: the median time of
// Maintainer.Snapshot, and the heap each retained snapshot adds. A
// snapshot that copies the store grows with the corpus; one that shares
// it grows with what changed. It does not follow -scale.
func runSnapshot(emit *jsonEmitter) {
	if emit == nil {
		fmt.Println("== Maintainer snapshot after one insert ==")
		fmt.Printf("%-8s %8s %7s %10s %15s\n", "corpus", "tuples", "groups", "millis", "retained_bytes")
	}
	var costs [2]benchRecord
	for i, c := range []struct {
		name string
		cfg  datagen.Config
	}{{"small", datagen.Small()}, {"default", datagen.Default()}} {
		r, err := snapshotCost(c.cfg)
		if err != nil {
			log.Fatalf("snapshot %s: %v", c.name, err)
		}
		r.Bench, r.Sweep = "snapshot", c.name
		costs[i] = r
		if emit != nil {
			emit.record(r)
		} else {
			fmt.Printf("%-8s %8d %7d %10.4f %15d\n", c.name, r.Tuples, r.NumGroups, r.Millis, r.RetainedBytes)
		}
	}
	if emit == nil {
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "snapshot: default/small %.1fx time, %.1fx retained bytes\n",
		costs[1].Millis/costs[0].Millis, float64(costs[1].RetainedBytes)/float64(costs[0].RetainedBytes))
}

// snapshotCost builds a maintainer over cfg's corpus, takes the first
// snapshot (which scans every group), and then takes snapshotReps
// snapshots, each after re-inserting one existing action. Every snapshot
// stays referenced, so the heap growth over the run, divided by the
// snapshots, is what one retained epoch costs.
func snapshotCost(cfg datagen.Config) (benchRecord, error) {
	w, err := datagen.Generate(cfg)
	if err != nil {
		return benchRecord{}, err
	}
	ds := w.Dataset
	m, err := incremental.New(ds, 5, signature.FrequencyOfSize(ds.Vocab.Size()))
	if err != nil {
		return benchRecord{}, err
	}
	if _, err := m.Snapshot(); err != nil {
		return benchRecord{}, err
	}
	kept := make([]*incremental.Snapshot, 0, snapshotReps)
	times := make([]time.Duration, 0, snapshotReps)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for r := 0; r < snapshotReps; r++ {
		a := ds.Actions[r*7919%len(ds.Actions)]
		if err := m.Insert(model.TaggingAction{User: a.User, Item: a.Item, Tags: a.Tags, Rating: a.Rating}); err != nil {
			return benchRecord{}, err
		}
		start := time.Now()
		snap, err := m.Snapshot()
		if err != nil {
			return benchRecord{}, err
		}
		times = append(times, time.Since(start))
		kept = append(kept, snap)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(kept)
	slices.Sort(times)
	last := kept[len(kept)-1]
	return benchRecord{
		Tuples:        last.Store.Len(),
		NumGroups:     len(last.Groups),
		Millis:        millis(times[len(times)/2]),
		RetainedBytes: (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / snapshotReps,
	}, nil
}

// --- set-up phases ---

// setupCorpora is how many corpora -setup builds, with data and LDA seeds
// 1, 2, ...: one corpus's phases swing with its data.
const setupCorpora = 3

// runSetup times each phase of experiments.Build and then ExactEngine per
// corpus: together the set-up a paper-scale batch pays before it solves
// anything, broken down so a change to it can name the phase that moved.
func runSetup(cfg experiments.Config, emit *jsonEmitter) {
	if emit == nil {
		fmt.Println("== Set-up phases per corpus (millis) ==")
	}
	for i := 1; i <= setupCorpora; i++ {
		c := cfg
		c.Data.Seed, c.Seed = int64(i), int64(i)
		start := time.Now()
		st, err := experiments.Build(c)
		if err != nil {
			log.Fatal(err)
		}
		t := time.Now()
		if _, err := st.ExactEngine(); err != nil {
			log.Fatal(err)
		}
		phases := append(st.Phases,
			experiments.SetupPhase{Name: "exact_engine", Wall: time.Since(t)},
			experiments.SetupPhase{Name: "total", Wall: time.Since(start)})
		variant := fmt.Sprintf("seed=%d", i)
		if emit != nil {
			for _, ph := range phases {
				emit.record(benchRecord{Bench: "setup", Variant: variant, Stage: ph.Name, Millis: millis(ph.Wall)})
			}
			continue
		}
		fmt.Printf("%-8s", variant)
		for _, ph := range phases {
			fmt.Printf(" %s=%.1f", ph.Name, millis(ph.Wall))
		}
		fmt.Println()
	}
	if emit == nil {
		fmt.Println()
	}
}

// --- pair-matrix lifecycle ---

// runMatrixReuse measures the three ways a solve can obtain a pair matrix:
// a from-scratch build (what an epoch pays without a carry), a dirty-row
// rebuild carrying the previous epoch's matrix with one group changed
// (what a 1-group insert pays), and a shared-cache hit (what every replica
// and every later solve of the same epoch pays). It sweeps the tag
// measure over two signature forms: the setup's LDA topic mixtures (dense,
// Topics dimensions) and the server corpus's tag-frequency signatures (one
// dimension per tag, mostly zero). Each
// variant is verified bit-identical to the scratch build before its time
// is reported; any mismatch aborts the run — the carry-over contract is
// that reuse never changes a single bit.
func runMatrixReuse(st *experiments.Setup, emit *jsonEmitter) {
	if len(st.Groups) < 2 {
		log.Fatal("matrix-reuse: corpus has fewer than 2 groups")
	}
	freq, err := serverFrequencyEngine()
	if err != nil {
		log.Fatalf("matrix-reuse: %v", err)
	}
	if emit == nil {
		fmt.Println("== Pair-matrix lifecycle: scratch vs dirty-row rebuild vs cache hit ==")
		fmt.Printf("%-10s %-18s %12s\n", "signature", "variant", "millis")
	}
	for _, sweep := range []struct {
		name string
		e    *core.Engine
	}{{"lda", st.Engine}, {"frequency", freq}} {
		matrixReuseSweep(sweep.name, sweep.e, emit)
	}
	if emit == nil {
		fmt.Println()
	}
}

// serverFrequencyEngine builds the engine the analysis server builds over
// its generated corpus: datagen.Small's fully-described groups of at least
// 5 tuples with tag-frequency signatures (400 tags, about 13 non-zeros per
// group). It does not follow -scale: frequency signatures of the paper
// corpus would span its 12,000-tag vocabulary, over 400 MB of weights.
func serverFrequencyEngine() (*core.Engine, error) {
	w, err := datagen.Generate(datagen.Small())
	if err != nil {
		return nil, err
	}
	s, err := store.New(w.Dataset)
	if err != nil {
		return nil, err
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 5}).FullyDescribed()
	return core.NewEngine(s, gs, signature.SummarizeAll(signature.NewFrequency(s), s, gs))
}

// matrixReuseSweep times the lifecycle of one engine's tag-diversity
// matrix and reports it under the signature form's name.
func matrixReuseSweep(name string, e *core.Engine, emit *jsonEmitter) {
	gs := e.Groups
	n := len(gs)
	pair := e.PairFunc(mining.Tags, mining.Diversity)

	timeIt := func(reps int, f func()) time.Duration {
		start := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		return time.Since(start) / time.Duration(reps)
	}

	var scratch *mining.PairMatrix
	coldPer := timeIt(3, func() { scratch = mining.NewPairMatrix(gs, pair, 0) })

	// A 1-group insert dirties exactly one row: the appended group (group
	// IDs are append-only, so inserts only ever dirty the tail).
	dirty := make([]bool, n)
	dirty[n-1] = true
	var rebuilt *mining.PairMatrix
	rebuildPer := timeIt(20, func() { rebuilt = scratch.RebuildRows(gs, pair, dirty, 0) })
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rebuilt.At(i, j) != scratch.At(i, j) {
				log.Fatalf("matrix-reuse %s: rebuild diverged from scratch at (%d,%d): %v != %v",
					name, i, j, rebuilt.At(i, j), scratch.At(i, j))
			}
		}
	}

	// Shared-cache hit: the first PairMatrix call materializes, every
	// later one (same engine, any replica adopting its cache) is a lookup.
	cached := e.PairMatrix(mining.Tags, mining.Diversity)
	hitPer := timeIt(1000, func() { cached = e.PairMatrix(mining.Tags, mining.Diversity) })
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cached.At(i, j) != scratch.At(i, j) {
				log.Fatalf("matrix-reuse %s: cached matrix diverged from scratch at (%d,%d)", name, i, j)
			}
		}
	}

	speedup := float64(coldPer) / float64(rebuildPer)
	rows := []struct {
		variant string
		d       time.Duration
	}{{"scratch", coldPer}, {"rebuild-1-dirty", rebuildPer}, {"cache-hit", hitPer}}
	for _, r := range rows {
		if emit != nil {
			emit.record(benchRecord{Bench: "matrix-reuse", Sweep: name, NumGroups: n, Variant: r.variant, Millis: millis(r.d)})
		} else {
			fmt.Printf("%-10s %-18s %12.4f\n", name, r.variant, millis(r.d))
		}
	}
	fmt.Fprintf(os.Stderr, "matrix-reuse %s: %d groups, rebuild %.1fx cheaper than scratch\n", name, n, speedup)
}

// --- sparse-corpus union kernels ---

// runSparse times OrCount and the DFS-shaped UnionCountInto chain on
// synthetic sparse tuple sets over a 1M-id universe and records
// density-sensitive numbers for the performance trajectory (JSON rows
// carry sweep=density, variant=containers). Each timed loop follows one
// untimed pass over all the sets, so the rows read warm caches as go
// test's do rather than first-touch misses.
// The fixture (universe, density table, seed, triple construction) must
// stay in lockstep with BenchmarkSparseOrCount/UnionCountInto in the root
// bench_test.go so this trajectory and `go test -bench BenchmarkSparse`
// measure the same matrix.
func runSparse(emit *jsonEmitter) {
	const universe = 1 << 20
	const reps = 64
	densities := []struct {
		name string
		card int
	}{
		{"density=0.01pct", universe / 10000},
		{"density=0.1pct", universe / 1000},
		{"density=1pct", universe / 100},
	}
	if emit == nil {
		fmt.Println("== Sparse-corpus union kernels ==")
		fmt.Printf("%-18s %-16s %10s\n", "density", "kernel", "micros/op")
	}
	for _, d := range densities {
		rng := rand.New(rand.NewSource(11))
		sets := make([][3]*store.Bitmap, 8)
		for i := range sets {
			for j := 0; j < 3; j++ {
				bm := store.NewBitmap(universe)
				for k := 0; k < d.card; k++ {
					bm.Set(rng.Intn(universe))
				}
				sets[i][j] = bm
			}
		}
		u1, u2 := store.NewBitmap(universe), store.NewBitmap(universe)
		orCount := func(m [3]*store.Bitmap) { _ = m[0].OrCount(m[1]) }
		unionChain := func(m [3]*store.Bitmap) {
			_ = m[0].UnionCountInto(m[1], u1)
			_ = u1.UnionCountInto(m[2], u2)
		}
		timed := func(kernel func([3]*store.Bitmap)) time.Duration {
			for _, m := range sets {
				kernel(m)
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				kernel(sets[r%len(sets)])
			}
			return time.Since(start) / reps
		}
		orPer := timed(orCount)
		unionPer := timed(unionChain)

		for _, row := range []struct {
			kernel string
			per    time.Duration
		}{{"OrCount", orPer}, {"UnionCountInto", unionPer}} {
			if emit != nil {
				emit.record(benchRecord{Bench: "sparse-union", Sweep: d.name,
					Variant: "containers", Algorithm: row.kernel, Millis: millis(row.per)})
				continue
			}
			fmt.Printf("%-18s %-16s %10.2f\n", d.name, row.kernel, float64(row.per)/1e3)
		}
	}
	if emit == nil {
		fmt.Println()
	}
}

func printTable1() {
	fmt.Println("== Table 1: concrete TagDM problem instantiations ==")
	fmt.Printf("%-4s %-12s %-12s %-12s %-6s %-4s\n", "ID", "User", "Item", "Tag", "C", "O")
	for id := 1; id <= 6; id++ {
		spec, err := core.PaperProblem(id, 3, 0, 0.5, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %-12s %-12s %-12s %-6s %-4s\n",
			id,
			spec.Constraints[0].Meas, spec.Constraints[1].Meas,
			spec.Objectives[0].Meas, "U,I", "T")
	}
	fmt.Println()
}

func printTable2() {
	fmt.Println("== Table 2: TagDM problem solutions ==")
	rows := [][3]string{
		{"similarity", "LSH based", "fold similarity constraints, filter diversity constraints"},
		{"diversity", "FDP based", "fold constraints (both kinds) into the greedy add"},
	}
	fmt.Printf("%-12s %-10s %s\n", "optimize", "algorithm", "constraint handling")
	for _, r := range rows {
		fmt.Printf("%-12s %-10s %s\n", r[0], r[1], r[2])
	}
	fmt.Println()
}
