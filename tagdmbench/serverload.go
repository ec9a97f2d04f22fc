package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"tagdm/internal/datagen"
	"tagdm/internal/obs"
)

// serverWorkload is a traffic mix against a tagdm-serve process.
type serverWorkload struct {
	corpus func(seed int64) datagen.Config
	shards int
	stream streamConfig
	// rate is the open-loop arrival rate of the fixed-rate phase, in
	// requests per second.
	rate float64
}

const (
	// conns is the number of client connections, the CPU count of the
	// 2-CPU host the workloads were sized on, so the server's admission
	// queue stays empty.
	conns = 2
	// requestTimeout bounds one request; a request past it fails.
	requestTimeout = 30 * time.Second
	// fixedShare of --seconds runs the open-loop phase; the rest runs the
	// closed-loop saturation phase.
	fixedShare = 0.7
	// openGrace is how long past its last arrival the open-loop phase may
	// still send queued arrivals.
	openGrace = 2 * time.Second
	// satBudget is how many ops per second the closed-loop phase has to
	// draw from: about five times the rate two connections reach on a
	// 2-CPU host.
	satBudget = 5000
)

// analyzeResp is the part of a /v1/analyze answer the benchmark checks.
type analyzeResp struct {
	Epoch     int64   `json:"epoch"`
	Found     bool    `json:"found"`
	Algorithm string  `json:"algorithm"`
	Objective float64 `json:"objective"`
	Support   int     `json:"support"`
	Groups    []struct {
		Description string `json:"description"`
		Size        int    `json:"size"`
	} `json:"groups"`
	Trace *obs.SpanTree `json:"trace"`
}

// fingerprint identifies an answer exactly: objective bits included.
func (a *analyzeResp) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "found=%v algo=%s obj=%x support=%d groups=", a.Found, a.Algorithm, math.Float64bits(a.Objective), a.Support)
	for _, g := range a.Groups {
		fmt.Fprintf(&b, "%s/%d;", g.Description, g.Size)
	}
	return b.String()
}

// serverLegs is how many corpora an untraced server run covers: each leg
// boots the server on its own corpus and runs a ninth of both phases
// against it. The run reports, for each end-to-end metric, the median over
// its legs: solve costs and the closed-loop rate differ by 10-20% from one
// generated corpus to the next, and the shared host slows down for seconds
// at a time, so a median over nine legs keeps runs of different seeds
// comparable where one pooled figure would follow the corpora drawn and
// whichever leg was slowed. A traced run makes one leg over the whole
// fixed-rate phase.
const serverLegs = 9

// legTotals accumulates one run's measurements across its legs: one value
// per leg for each end-to-end metric, and the pooled samples the record
// reports.
type legTotals struct {
	setups, p50s, p95s, satRps, cpuPerOp, hwms []float64
	analyzeLat, ingestLat, lateMs              []float64
}

func runServer(env *env, w *serverWorkload) (*report, error) {
	rep := newReport(env.trace)
	legs := serverLegs
	fixedDur := time.Duration(float64(env.seconds) * fixedShare * float64(time.Second))
	satDur := time.Duration(env.seconds)*time.Second - fixedDur
	if env.trace {
		legs, satDur = 1, 0
	}
	var tot legTotals
	sp := newSpeed()
	for leg := 0; leg < legs; leg++ {
		dir := filepath.Join(env.work, fmt.Sprintf("leg-%d", leg))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		seed := env.seed*serverLegs + int64(leg)
		if err := runLeg(env, w, rep, &tot, sp, dir, seed, fixedDur/time.Duration(legs), satDur/time.Duration(legs)); err != nil {
			return nil, fmt.Errorf("leg %d (corpus seed %d): %w", leg, seed, err)
		}
	}
	if rep.infos["reference_checked"].Value == 0 {
		rep.fail("no answer was checked against the reference solve")
	}

	// Every time-based figure is at reference host speed (see calib.go).
	slow := sp.slowdown()
	rep.info("host_slowdown", slow, "ratio")
	rep.legs = map[string][]float64{"setup_s": slices.Clone(tot.setups),
		"analyze_p50_ms": slices.Clone(tot.p50s), "analyze_p95_ms": slices.Clone(tot.p95s),
		"saturated_rps": slices.Clone(tot.satRps), "cpu_ms_per_op": slices.Clone(tot.cpuPerOp)}
	rep.timing(slow, "setup_s", median(tot.setups), "s")
	rep.timing(slow, "analyze_p50_ms", median(tot.p50s), "ms")
	rep.timing(slow, "analyze_p95_ms", median(tot.p95s), "ms")
	rep.info("analyze_samples", float64(len(tot.analyzeLat)), "count")
	rep.info("analyze_samples_per_leg", float64(len(tot.analyzeLat)/legs), "count")
	rep.info("analyze_pooled_p95_ms", percentile(tot.analyzeLat, 0.95), "ms")
	rep.info("ingest_p50_ms", percentile(tot.ingestLat, 0.50), "ms")
	rep.info("ingest_p95_ms", percentile(tot.ingestLat, 0.95), "ms")
	rep.info("ingest_samples", float64(len(tot.ingestLat)), "count")
	if !env.trace {
		rep.timing(slow, "saturated_rps", median(tot.satRps), "1/s")
	}
	rep.timing(slow, "cpu_ms_per_op", median(tot.cpuPerOp), "ms")
	rep.metric("rss_peak_mb", median(tot.hwms), "MiB")
	rep.info("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.info("offered_rps", w.rate, "1/s")
	rep.info("bench.gen_lag_p99_ms", percentile(tot.lateMs, 0.99), "ms")
	rep.na("batch_solves_per_s", "paper-batch only")
	rep.na("approx_quality", "paper-batch only")
	return rep, nil
}

// runLeg generates one corpus and its request streams from seed, boots the
// server on it, runs the fixed-rate phase for fixedDur and the saturation
// phase for satDur, stops the server gracefully and checks the outputs.
// The host's speed is probed just before the boot and just after the stop,
// while no server runs.
func runLeg(env *env, w *serverWorkload, rep *report, tot *legTotals, sp *speed, dir string, seed int64, fixedDur, satDur time.Duration) error {
	corpusPath := filepath.Join(dir, "corpus.json")
	ds, err := writeCorpus(w.corpus(seed), corpusPath)
	if err != nil {
		return fmt.Errorf("generating corpus: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	unscoped, scoped, err := statementSpace(ds)
	if err != nil {
		return err
	}
	if len(scoped) == 0 {
		return fmt.Errorf("corpus has no attribute value to scope by")
	}
	sched := poissonSchedule(rng, w.rate, fixedDur)
	traceShare := 0.0
	if env.trace {
		traceShare = 0.5
	}
	// The saturation phase draws from the same stream after the fixed-rate
	// arrivals, satBudget ops per second of it; running out fails the run
	// rather than capping the rate it measures.
	satOps := int(satBudget * satDur.Seconds())
	ops, stmts := opStream(ds, rng, w.stream, unscoped, scoped, len(sched)+satOps, traceShare)

	// The server is durable: a WAL with fsync always and checkpoints in a
	// fresh data dir, recovered from after a graceful stop. -prewarm builds
	// every binding's matrices before /healthz answers and again at each
	// publish, so set-up and ingest pay them, not the next analysis.
	dataDir := filepath.Join(dir, "data")
	args := []string{"-data", corpusPath, "-shards", strconv.Itoa(w.shards), "-prewarm",
		"-data-dir", dataDir, "-fsync", "always"}
	rep.flags = args
	sp.probe()
	srv, ready, err := startServer(env.serve, args, filepath.Join(dir, "serve.log"))
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	tot.setups = append(tot.setups, ready.Seconds())
	pid := srv.cmd.Process.Pid
	clients := newClients(conns, requestTimeout)
	defer closeClients(clients)
	ld := &load{clients: clients, base: srv.base}

	before, err := scrape(srv.base)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	fixed := runOpen(ld, ops[:len(sched)], sched, openGrace)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	after, err := scrape(srv.base)
	if err != nil {
		return err
	}
	var sat []result
	if satDur > 0 {
		if sat = runClosed(ld, ops[len(sched):], satDur); len(sat) == satOps {
			return fmt.Errorf("the closed-loop phase used all %d ops before its %s were up", satOps, satDur)
		}
	}
	hwm, err := procHWM(pid)
	if err != nil {
		return err
	}
	p := srv
	srv = nil
	if err := p.stop(60 * time.Second); err != nil {
		return fmt.Errorf("graceful stop: %w", err)
	}
	tot.hwms = append(tot.hwms, hwm)
	sp.probe()

	// --- outputs and checks ---
	// completed counts the fixed-rate phase's successful requests, the ops
	// the server's CPU time over that phase is divided over.
	var analyzeLat []float64
	completed, satOK := 0, 0
	for i := range fixed {
		r := &fixed[i]
		rep.attempted++
		lat := ms(r.latency)
		if r.failed {
			rep.failed++
			lat = math.Inf(1)
		} else {
			completed++
			tot.lateMs = append(tot.lateMs, ms(r.late))
		}
		if r.op.ingest {
			tot.ingestLat = append(tot.ingestLat, lat)
		} else {
			analyzeLat = append(analyzeLat, lat)
		}
	}
	for i := range sat {
		if sat[i].overtime {
			continue
		}
		rep.attempted++
		if sat[i].failed {
			rep.failed++
		} else {
			satOK++
		}
	}
	tot.analyzeLat = append(tot.analyzeLat, analyzeLat...)
	tot.p50s = append(tot.p50s, percentile(analyzeLat, 0.50))
	tot.p95s = append(tot.p95s, percentile(analyzeLat, 0.95))
	if satDur > 0 {
		tot.satRps = append(tot.satRps, float64(satOK)/satDur.Seconds())
	}
	tot.cpuPerOp = append(tot.cpuPerOp, ratio(ms(cpu1-cpu0), float64(completed)))
	answers := newAnswerLog()
	acked := 0
	// ingests are the fixed-phase ingests up to the first failed one, in
	// the order their one connection sent them, with the epoch each
	// published: the reference can rebuild the state of any of those
	// epochs. Saturation-phase ingests run on both connections, so their
	// order is unknown.
	var ingests []ackedIngest
	ingestsKnown := true
	for phase, rs := range [][]result{fixed, sat} {
		for i := range rs {
			r := &rs[i]
			if r.op.ingest && phase == 0 && r.failed {
				ingestsKnown = false
			}
			if r.failed || r.status == 0 {
				continue
			}
			if r.op.ingest {
				var ir struct {
					Inserted int   `json:"inserted"`
					Epoch    int64 `json:"epoch"`
				}
				if err := json.Unmarshal(r.body, &ir); err != nil || ir.Inserted != 1 {
					rep.fail("ingest answer %q does not acknowledge one action", r.body)
				}
				acked += ir.Inserted
				if phase == 0 && ingestsKnown {
					if n := len(ingests); n > 0 && ir.Epoch <= ingests[n-1].epoch {
						rep.fail("ingest published epoch %d after epoch %d on a single connection", ir.Epoch, ingests[n-1].epoch)
						ingestsKnown = false
						continue
					}
					ingests = append(ingests, ackedIngest{ir.Epoch, r.op.body})
				}
				continue
			}
			var ar analyzeResp
			if err := json.Unmarshal(r.body, &ar); err != nil {
				rep.fail("undecodable analyze answer: %v", err)
				continue
			}
			answers.add(rep, stmts[r.op.stmt], &ar)
		}
	}

	// Acknowledged actions include those acked in the saturation phase,
	// overtime ones too: the server applied them.
	if err := checkRecovery(env, rep, dir, dataDir, len(ds.Actions)+acked); err != nil {
		return err
	}
	ref, err := newReplay(corpusPath)
	if err != nil {
		return err
	}
	if env.trace {
		// Time the first matrix builds before any replayed solve builds
		// them lazily.
		ref.buildMatrices()
	}
	if err := ref.checkAnswers(rep, answers, ingests, rng, 6, 4); err != nil {
		return err
	}
	if env.trace {
		layers(rep, w, dir, fixed, before, after, ref)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func scrape(base string) (*obs.PromText, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParsePrometheus(data)
}

// answerKey is one statement at one epoch.
type answerKey struct {
	epoch int64
	stmt  string
}

// answerLog remembers the first answer to each statement per epoch; every
// later answer to the same statement at the same epoch must be identical.
type answerLog struct {
	first map[answerKey]*analyzeResp
	order []answerKey
}

func newAnswerLog() *answerLog { return &answerLog{first: map[answerKey]*analyzeResp{}} }

func (l *answerLog) add(rep *report, stmt string, a *analyzeResp) {
	key := answerKey{a.Epoch, stmt}
	prev, ok := l.first[key]
	if !ok {
		l.first[key] = a
		l.order = append(l.order, key)
		return
	}
	if prev.fingerprint() != a.fingerprint() {
		rep.fail("statement %q at epoch %d answered differently on repeat:\n  %s\n  %s", stmt, a.Epoch, prev.fingerprint(), a.fingerprint())
	}
}

// checkRecovery reboots the server from its data dir alone and requires
// the recovered action count to equal the corpus plus every acknowledged
// action.
func checkRecovery(env *env, rep *report, dir, dataDir string, want int) error {
	p, _, err := startServer(env.serve, []string{"-data-dir", dataDir}, filepath.Join(dir, "recover.log"))
	if err != nil {
		return fmt.Errorf("reboot from data dir: %w", err)
	}
	defer p.stop(30 * time.Second)
	resp, err := http.Get(p.base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Actions int `json:"actions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if st.Actions != want {
		rep.fail("recovered %d actions, want %d (corpus + acknowledged)", st.Actions, want)
	}
	return nil
}
