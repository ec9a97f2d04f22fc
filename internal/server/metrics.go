package server

import (
	"time"

	"tagdm/internal/core"
	"tagdm/internal/obs"
)

// Solver family labels. Every per-solver metric is keyed by one of these
// so dashboards can compare the exact baseline against the approximate
// families without regex-matching algorithm variant names.
const (
	famExact = "exact"
	famSMLSH = "smlsh"
	famDVFDP = "dvfdp"
	famOther = "other"
)

// stageTotal is the synthetic stage label covering the whole solver call,
// alongside the per-phase stages core.Result reports.
const stageTotal = "total"

// solverFamilies lists the families whose series are pre-registered, so
// /metrics exposes zero-valued series from boot instead of materializing
// them on first use.
//
//tagdm:label-set
var solverFamilies = []string{famExact, famSMLSH, famDVFDP}

// familyStages maps each family to the stage labels its solvers emit (see
// the core.Stage* constants) plus the synthetic total and the stageOther
// bucket for stage names no release of the solvers is known to produce.
//
//tagdm:label-set
var familyStages = map[string][]string{
	famExact: {core.StageMatrix, core.StageEnumerate, stageTotal, stageOther},
	famSMLSH: {core.StageMatrix, core.StageLSHBuild, core.StageBucketScan, stageTotal, stageOther},
	famDVFDP: {core.StageMatrix, core.StageGreedy, core.StageLocalSearch, stageTotal, stageOther},
}

// stageOther is the overflow bucket stageLabel folds unknown stage names
// into, so a solver emitting a new stage cannot mint unbounded series.
const stageOther = "other"

// stageLabel admits a core.Result stage name into the bounded label space:
// names pre-registered for the family pass through, anything else becomes
// stageOther. core.Result stages are runtime data as far as this package
// is concerned, and runtime data must never reach a label unsanitized.
//
//tagdm:label-sanitizer
func stageLabel(fam, name string) string {
	for _, known := range familyStages[fam] {
		if known == name {
			return name
		}
	}
	return stageOther
}

// familyOf buckets a core.Result algorithm name ("Exact", "SM-LSH-Fo",
// "DV-FDP-Fi", ...) into its metric family label.
//
//tagdm:label-sanitizer
func familyOf(algorithm string) string {
	switch {
	case algorithm == "Exact":
		return famExact
	case len(algorithm) >= 6 && algorithm[:6] == "SM-LSH":
		return famSMLSH
	case len(algorithm) >= 6 && algorithm[:6] == "DV-FDP":
		return famDVFDP
	default:
		return famOther
	}
}

// endpointLabel maps a request path to a bounded endpoint label so the
// per-endpoint series can never grow with attacker-chosen paths.
//
//tagdm:label-sanitizer
func endpointLabel(path string) string {
	switch path {
	case "/v1/analyze":
		return "analyze"
	case "/v1/actions":
		return "actions"
	case "/v1/refresh":
		return "refresh"
	case "/v1/stats":
		return "stats"
	case "/metrics":
		return "metrics"
	case "/healthz":
		return "healthz"
	default:
		return "other"
	}
}

//tagdm:label-set
var endpointLabels = []string{"analyze", "actions", "refresh", "stats", "metrics", "healthz", "other"}

// shardLabels bounds the per-shard label space: Config.Shards is clamped to
// len(shardLabels) at construction, and scatter code labels series by
// indexing this set with the shard number, so shard series can never grow
// past it no matter what configuration arrives.
//
//tagdm:label-set
var shardLabels = []string{
	"0", "1", "2", "3", "4", "5", "6", "7",
	"8", "9", "10", "11", "12", "13", "14", "15",
	"16", "17", "18", "19", "20", "21", "22", "23",
	"24", "25", "26", "27", "28", "29", "30", "31",
}

// metrics is the server's obs.Registry plus handles to every series the
// hot paths touch. /v1/stats reads the exact same atomics that /metrics
// renders (via the Value/Count/Sum accessors), so the two views cannot
// drift.
type metrics struct {
	started time.Time
	reg     *obs.Registry

	requests       *obs.CounterVec   // {endpoint}
	requestLatency *obs.HistogramVec // {endpoint}

	actionsIngested *obs.Counter
	usersCreated    *obs.Counter
	itemsCreated    *obs.Counter
	ingestLatency   *obs.Histogram
	snapshots       *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	solves             *obs.CounterVec // {family}
	solveErrors        *obs.Counter
	solveTimeouts      *obs.Counter
	rejected           *obs.Counter
	slowSolves         *obs.Counter
	candidatesExamined *obs.CounterVec // {family}
	candidatesPruned   *obs.CounterVec // {family}
	matrixBuilds       *obs.CounterVec // {family}
	matrixRebuilds     *obs.CounterVec // {family}
	matrixHits         *obs.CounterVec // {family}
	matrixLazy         *obs.CounterVec // {family}

	solveLatency *obs.HistogramVec // {family}: end-to-end analyze execution
	solveStage   *obs.HistogramVec // {family,stage}: per-phase solver wall time

	shardSolves       *obs.CounterVec   // {shard}: partial solves gathered per shard
	shardSolveSeconds *obs.HistogramVec // {shard}: per-shard partial solve wall time

	// Durability series. Counters stay zero when the server runs without a
	// data dir; the gauges (registered in registerGauges) read the WAL's
	// own counters at render time.
	walAppends       *obs.Counter
	walAppendBytes   *obs.Counter
	walAppendErrors  *obs.Counter
	walAppendWait    *obs.Histogram // ack latency: enqueue to durable
	walFsyncSeconds  *obs.Histogram
	checkpoints      *obs.Counter
	checkpointErrors *obs.Counter
	checkpointTime   *obs.Histogram
	degradations     *obs.Counter
}

// newMetrics builds the registry; shards is the configured serving fan-out
// and pre-materializes that many per-shard series.
func newMetrics(shards int) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		started: time.Now(),
		reg:     reg,

		requests: reg.CounterVec("tagdm_requests_total",
			"HTTP requests received, by endpoint.", "endpoint"),
		requestLatency: reg.HistogramVec("tagdm_request_seconds",
			"HTTP request latency in seconds, by endpoint.",
			obs.DefaultLatencyBuckets(), "endpoint"),

		actionsIngested: reg.Counter("tagdm_actions_ingested_total",
			"Tagging actions inserted."),
		usersCreated: reg.Counter("tagdm_users_created_total",
			"Users created through ingest."),
		itemsCreated: reg.Counter("tagdm_items_created_total",
			"Items created through ingest."),
		ingestLatency: reg.Histogram("tagdm_ingest_batch_seconds",
			"Ingest batch latency in seconds, including snapshot publication when triggered.",
			obs.DefaultLatencyBuckets()),
		snapshots: reg.Counter("tagdm_snapshots_published_total",
			"Engine snapshots published."),

		cacheHits: reg.Counter("tagdm_cache_hits_total",
			"Analyze results served from cache."),
		cacheMisses: reg.Counter("tagdm_cache_misses_total",
			"Analyze cache misses."),

		solves: reg.CounterVec("tagdm_solves_total",
			"Solver executions, by solver family.", "family"),
		solveErrors: reg.Counter("tagdm_solve_errors_total",
			"Solver executions that errored."),
		solveTimeouts: reg.Counter("tagdm_solve_timeouts_total",
			"Analyze requests that timed out."),
		rejected: reg.Counter("tagdm_rejected_total",
			"Analyze requests rejected with a full queue."),
		slowSolves: reg.Counter("tagdm_slow_solves_total",
			"Analyze solves that exceeded the slow-solve threshold."),
		candidatesExamined: reg.CounterVec("tagdm_candidates_examined_total",
			"Candidate sets evaluated by solvers, by family.", "family"),
		candidatesPruned: reg.CounterVec("tagdm_candidates_pruned_total",
			"Candidate sets cut by branch-and-bound without evaluation, by family.", "family"),
		matrixBuilds: reg.CounterVec("tagdm_matrix_builds_total",
			"Pair matrices built from scratch because no cached or carried matrix existed, by family.", "family"),
		matrixRebuilds: reg.CounterVec("tagdm_matrix_rebuilds_total",
			"Pair matrices rebuilt incrementally from the previous epoch (dirty rows only), by family.", "family"),
		matrixHits: reg.CounterVec("tagdm_matrix_cache_hits_total",
			"Pair-matrix bindings served from the snapshot engine cache, by family.", "family"),
		matrixLazy: reg.CounterVec("tagdm_matrix_lazy_total",
			"Pair-matrix bindings served through lazy or blocked pair sources without a full materialization, by family.", "family"),

		solveLatency: reg.HistogramVec("tagdm_solve_latency_seconds",
			"End-to-end analyze execution latency in seconds, by solver family.",
			obs.DefaultLatencyBuckets(), "family"),
		solveStage: reg.HistogramVec("tagdm_solve_stage_seconds",
			"Per-stage solver wall time in seconds, by family and stage.",
			obs.DefaultLatencyBuckets(), "family", "stage"),

		shardSolves: reg.CounterVec("tagdm_shard_solves_total",
			"Partial solves gathered from each shard of a scattered analyze.", "shard"),
		shardSolveSeconds: reg.HistogramVec("tagdm_shard_solve_seconds",
			"Per-shard partial solve wall time in seconds (scoping included).",
			obs.DefaultLatencyBuckets(), "shard"),

		walAppends: reg.Counter("tagdm_wal_appends_total",
			"Ingest batches durably appended to the write-ahead log."),
		walAppendBytes: reg.Counter("tagdm_wal_append_bytes_total",
			"Payload bytes appended to the write-ahead log."),
		walAppendErrors: reg.Counter("tagdm_wal_append_errors_total",
			"Write-ahead log appends that failed (each flips the server read-only)."),
		walAppendWait: reg.Histogram("tagdm_wal_append_wait_seconds",
			"Group-commit ack latency: WAL enqueue to durable, in seconds.",
			obs.DefaultLatencyBuckets()),
		walFsyncSeconds: reg.Histogram("tagdm_wal_fsync_seconds",
			"Write-ahead log fsync latency in seconds.",
			obs.DefaultLatencyBuckets()),
		checkpoints: reg.Counter("tagdm_checkpoints_total",
			"Snapshot checkpoints written."),
		checkpointErrors: reg.Counter("tagdm_checkpoint_errors_total",
			"Snapshot checkpoints that failed."),
		checkpointTime: reg.Histogram("tagdm_checkpoint_seconds",
			"Checkpoint wall time in seconds (capture, WAL sync, write, prune).",
			obs.DefaultLatencyBuckets()),
		degradations: reg.Counter("tagdm_durability_degradations_total",
			"Transitions into read-only degraded mode."),
	}
	// Materialize the label space up front: a scrape right after boot sees
	// every series at zero rather than a sparse, shape-shifting exposition.
	for _, ep := range endpointLabels {
		m.requests.With(ep)
		m.requestLatency.With(ep)
	}
	for _, fam := range solverFamilies {
		m.solves.With(fam)
		m.candidatesExamined.With(fam)
		m.candidatesPruned.With(fam)
		m.matrixBuilds.With(fam)
		m.matrixRebuilds.With(fam)
		m.matrixHits.With(fam)
		m.matrixLazy.With(fam)
		m.solveLatency.With(fam)
		for _, stage := range familyStages[fam] {
			m.solveStage.With(fam, stage)
		}
	}
	for si := 0; si < shards && si < len(shardLabels); si++ {
		m.shardSolves.With(shardLabels[si])
		m.shardSolveSeconds.With(shardLabels[si])
	}
	return m
}

// registerGauges wires the point-in-time gauges that read server state at
// render time (snapshot epoch, store sizes, queue depth). Called once from
// New, after the initial snapshot is published.
func (m *metrics) registerGauges(s *Server) {
	m.reg.GaugeFunc("tagdm_snapshot_epoch",
		"Epoch of the currently published engine snapshot.",
		func() float64 { return float64(s.Epoch()) })
	m.reg.GaugeFunc("tagdm_store_actions",
		"Tagging actions in the published snapshot.",
		func() float64 { return float64(s.snap.Load().Store.Len()) })
	m.reg.GaugeFunc("tagdm_groups",
		"Describable groups in the published snapshot.",
		func() float64 { return float64(len(s.snap.Load().Groups)) })
	m.reg.GaugeFunc("tagdm_vocab_size",
		"Tag vocabulary size of the published snapshot.",
		func() float64 { return float64(s.snap.Load().Store.Vocab.Size()) })
	m.reg.GaugeFunc("tagdm_postings_lists",
		"Posting lists in the published snapshot.",
		func() float64 { lists, _ := s.snap.Load().Store.CompressionStats(); return float64(lists) })
	m.reg.GaugeFunc("tagdm_postings_compressed",
		"Posting lists using the container-compressed layout.",
		func() float64 { _, comp := s.snap.Load().Store.CompressionStats(); return float64(comp) })
	m.reg.GaugeFunc("tagdm_cache_size",
		"Entries in the analyze result cache.",
		func() float64 { size, _ := s.cache.stats(); return float64(size) })
	m.reg.GaugeFunc("tagdm_matrix_bytes",
		"Bytes of fully materialized pair matrices held by the published engine cache (shared by every shard).",
		func() float64 { return float64(s.snap.Load().Engine.MatrixStats().Bytes) })
	m.reg.GaugeFunc("tagdm_matrix_evictions_total",
		"Pair matrices evicted under the memory budget since the first epoch (carried across snapshots).",
		func() float64 { return float64(s.snap.Load().Engine.MatrixStats().Evictions) })
	m.reg.GaugeFunc("tagdm_shards",
		"Serving-tier shard count: partial solves each analyze scatters across.",
		func() float64 { return float64(s.cfg.Shards) })
	m.reg.GaugeFunc("tagdm_queue_depth",
		"Queued (not yet running) partial-solve jobs in the worker pool.",
		func() float64 { return float64(s.pool.depth()) })
	m.reg.GaugeFunc("tagdm_pool_workers",
		"Solver worker goroutines in the pool (workers per shard times shards).",
		func() float64 { return float64(s.pool.workers) })
	m.reg.GaugeFunc("tagdm_uptime_seconds",
		"Seconds since server construction.",
		func() float64 { return time.Since(m.started).Seconds() })
	m.reg.GaugeFunc("tagdm_durability_enabled",
		"1 when the server runs with a write-ahead log and checkpoints.",
		func() float64 {
			if s.dur != nil {
				return 1
			}
			return 0
		})
	m.reg.GaugeFunc("tagdm_durability_degraded",
		"1 when the server is in read-only degraded mode after a disk failure.",
		func() float64 {
			if _, degraded := s.degradedReason(); degraded {
				return 1
			}
			return 0
		})
	if s.dur == nil {
		return
	}
	m.reg.GaugeFunc("tagdm_wal_last_seq",
		"Sequence number of the last durable write-ahead log record.",
		func() float64 { return float64(s.dur.log.Stats().LastSeq) })
	m.reg.GaugeFunc("tagdm_wal_size_bytes",
		"Bytes across live write-ahead log segments.",
		func() float64 { return float64(s.dur.log.Stats().SizeBytes) })
	m.reg.GaugeFunc("tagdm_wal_fsyncs",
		"Fsyncs issued by the write-ahead log this process.",
		func() float64 { return float64(s.dur.log.Stats().Syncs) })
	m.reg.GaugeFunc("tagdm_checkpoint_last_seq",
		"Write-ahead log sequence covered by the newest checkpoint.",
		func() float64 { return float64(s.ckptLastSeq.Load()) })
	m.reg.GaugeFunc("tagdm_checkpoint_last_epoch",
		"Maintainer epoch captured by the newest checkpoint.",
		func() float64 { return float64(s.ckptLastEpoch.Load()) })
}

// recordSolve folds one merged core.Result into the per-family counters
// and the per-stage histograms. solverWall is the solver critical path (the
// slowest shard's partial solve); total is the whole scatter-gather
// execution (scoping and merging included).
func (m *metrics) recordSolve(res core.Result, solverWall, total time.Duration) {
	fam := familyOf(res.Algorithm)
	m.solves.With(fam).Inc()
	m.candidatesExamined.With(fam).Add(res.CandidatesExamined)
	m.candidatesPruned.With(fam).Add(res.CandidatesPruned)
	m.matrixBuilds.With(fam).Add(int64(res.MatrixBuilds))
	m.matrixRebuilds.With(fam).Add(int64(res.MatrixRebuilds))
	m.matrixHits.With(fam).Add(int64(res.MatrixHits))
	m.matrixLazy.With(fam).Add(int64(res.MatrixLazy))
	m.solveLatency.With(fam).Observe(total.Seconds())
	for _, st := range res.Stages {
		m.solveStage.With(fam, stageLabel(fam, st.Name)).Observe(st.Wall.Seconds())
	}
	m.solveStage.With(fam, stageTotal).Observe(solverWall.Seconds())
}

// hitRate returns cache hits / (hits + misses), or 0 before any lookup.
func (m *metrics) hitRate() float64 {
	h, s := m.cacheHits.Value(), m.cacheMisses.Value()
	if h+s == 0 {
		return 0
	}
	return float64(h) / float64(h+s)
}
