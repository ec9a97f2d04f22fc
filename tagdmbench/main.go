// Command tagdmbench is the repository's benchmark: one command that runs a
// named workload against the TagDM server or solvers, checks the outputs,
// and prints every metric by name and unit.
//
// Usage (from the repository root, through run.sh, which builds the
// binaries first):
//
//	bash tagdmbench/run.sh --workload small-htap --seed 1 --seconds 30 --trace 0
//
// Workloads (every input is generated from --seed; each run covers several
// corpora, see serverLegs and batchCorpora):
//
//	small-htap   small corpus, 2 shards, -prewarm, durable (fsync always),
//	             20% ingest, Zipf unscoped statements plus 5% WHERE scopes
//	             over every attribute value
//	paper-batch  in-process passes of Exact vs SM-LSH-Fo / DV-FDP-Fo over
//	             experiments.DefaultConfig
//
// Server workloads run an open-loop Poisson phase at a fixed rate for 70%
// of --seconds, then a closed-loop saturation phase; both share the same
// two connections and the same mix. With --trace 0 the last stdout line
// carries the end-to-end metrics; with --trace 1 a separate traced run
// reports per-layer metrics from the server's span trees, /metrics deltas
// and an in-process replay of the same inputs. The line before it is a
// self-describing record of the run. The exit code is non-zero when an
// output check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// env is one invocation's settings.
type env struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// serve is the tagdm-serve binary; work a scratch directory private to
	// this run.
	serve string
	work  string
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and check outcomes.
type report struct {
	// metrics are the contract metrics of the final line: end-to-end ones
	// untraced, per-layer ones traced.
	metrics map[string]metric
	// infos are further end-to-end figures printed in the record only.
	infos map[string]metric
	naWhy map[string]string
	// legs holds the raw figures of each server leg or batch pass, for
	// the record.
	legs      map[string][]float64
	failures  []string
	attempted int
	failed    int
	flags     []string
	trace     bool
}

func newReport(trace bool) *report {
	return &report{metrics: map[string]metric{}, infos: map[string]metric{}, naWhy: map[string]string{}, trace: trace}
}

// metric records an end-to-end figure: on the result line of an untraced
// run when it is one of endToEnd, in the record otherwise.
func (r *report) metric(name string, v float64, unit string) {
	if r.trace || !slices.Contains(endToEnd, name) {
		r.info(name, v, unit)
		return
	}
	r.metrics[name] = metric{v, unit}
}

// timing records a time-based end-to-end figure at reference host speed,
// slow being the run's slowdown (see calib.go), and the raw figure in the
// record as raw.<name>. A rate (unit 1/s) is multiplied by slow, a time
// divided by it.
func (r *report) timing(slow float64, name string, raw float64, unit string) {
	r.info("raw."+name, raw, unit)
	if unit == "1/s" {
		r.metric(name, raw*slow, unit)
	} else {
		r.metric(name, raw/slow, unit)
	}
}

// layer records a per-layer metric of a traced run.
func (r *report) layer(name string, v float64) { r.metrics[name] = metric{v, layerUnit(name)} }

func (r *report) info(name string, v float64, unit string) { r.infos[name] = metric{v, unit} }
func (r *report) na(name, why string)                      { r.naWhy[name] = why }

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// endToEnd names the metrics every untraced run reports on its result
// line, whatever the workload. analyze_p95_ms is in the record only: on
// the shared 2-CPU host its spread over seeds reached 1.2 times its median
// on small-htap, far past any bound the driver allows.
var endToEnd = []string{"setup_s", "analyze_p50_ms", "saturated_rps", "cpu_ms_per_op", "rss_peak_mb"}

type runner func(*env) (*report, error)

var workloads = map[string]runner{
	// The 20% single-action ingest share is the workload's specification;
	// the 5% scoped share, the Zipf exponent and the 120 rps rate (about a
	// seventh of the closed-loop rate on a 2-CPU host) are guesses, not
	// taken from a recorded trace.
	"small-htap": func(e *env) (*report, error) {
		return runServer(e, &serverWorkload{
			corpus: smallCorpus,
			shards: 2,
			stream: streamConfig{ingestShare: 0.20, scopedShare: 0.05, zipfS: 1.1},
			rate:   120,
		})
	},
	"paper-batch": runBatch,
}

func main() {
	var (
		e     env
		trace int
	)
	flag.StringVar(&e.workload, "workload", "", "workload name")
	flag.Int64Var(&e.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&e.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&e.serve, "serve", ".bench_build/bin/tagdm-serve", "tagdm-serve binary")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()
	e.trace = trace == 1
	run, ok := workloads[e.workload]
	if !ok || e.seconds < 1 {
		fmt.Fprintf(os.Stderr, "tagdmbench: unknown workload %q or bad --seconds (workloads: small-htap, paper-batch)\n", e.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, e.workload+"-")
	if err != nil {
		fatal(err)
	}
	e.work = dir
	rep, err := run(&e)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	if e.trace {
		rep.completeLayers()
	} else {
		for _, name := range endToEnd {
			if _, ok := rep.metrics[name]; !ok {
				fatal(fmt.Errorf("workload %s did not measure %s", e.workload, name))
			}
		}
	}
	emit(&e, rep)
	if len(rep.failures) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tagdmbench: %v\n", err)
	os.Exit(1)
}

// emit prints the run record, then the result line. JSON has no infinity:
// a percentile that falls on a failed request (+Inf) prints as 1e9 ms.
func emit(e *env, rep *report) {
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "tagdmbench: CHECK FAILED: %s\n", f)
	}
	record := map[string]any{
		"workload":  e.workload,
		"seed":      e.seed,
		"seconds":   e.seconds,
		"trace":     e.trace,
		"commit":    commit(),
		"go":        runtime.Version(),
		"num_cpu":   runtime.NumCPU(),
		"flags":     rep.flags,
		"time":      time.Now().UTC().Format(time.RFC3339),
		"metrics":   finite(rep.metrics),
		"more":      finite(rep.infos),
		"n/a":       rep.naWhy,
		"legs":      rep.legs,
		"failures":  rep.failures,
		"attempted": rep.attempted,
		"failed":    rep.failed,
	}
	line, _ := json.Marshal(map[string]any{"record": record})
	fmt.Println(string(line))
	out, _ := json.Marshal(map[string]any{
		"correct":   len(rep.failures) == 0,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   finite(rep.metrics),
	})
	fmt.Println(string(out))
}

func finite(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			v.Value = 1e9
		}
		out[k] = v
	}
	return out
}

// commit names the code under test: the git commit when the current
// directory is a git checkout, otherwise a SHA-256 over the module's Go
// sources and go.mod.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		io.Copy(h, fh)
		fh.Close()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
