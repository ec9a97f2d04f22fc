// Package server exposes a TagDM analysis engine over a concurrent HTTP
// JSON API: an analysis path (POST /v1/analyze) and a streaming ingest path
// (POST /v1/actions) sharing one store without blocking each other — the
// HTAP shape the roadmap's Polynesia line of work motivates.
//
// Concurrency model. The write side is a single-writer
// incremental.Maintainer guarded by a mutex; the read side is an immutable
// engine snapshot published through an atomic pointer. Each ingest batch
// mutates the maintainer and captures a copy-on-write snapshot of exactly
// what it applied (see incremental.Maintainer.Snapshot), and publishes it
// once the batch is acknowledged; analyses always solve against whatever
// snapshot is current, so readers observe a consistent engine and never
// block behind a publish.
//
// Each published snapshot carries an epoch (the maintainer's insert
// version). Analyze results are cached in an LRU keyed by
// (normalized query, epoch): repeated dashboard queries are O(1) map hits,
// and publishing a new epoch implicitly invalidates every older entry.
// Solver work runs on a bounded worker pool with per-request timeouts, so
// a burst of expensive analyses degrades into explicit 429s instead of
// unbounded goroutine pileup.
//
// Precomputed pair matrices follow the same epoch discipline: the snapshot
// engine lazily builds one condensed matrix per (dimension, measure)
// binding on the first solve that needs it, and every concurrent analyze
// against that snapshot reads the same matrices — pair functions are paid
// once per epoch, not once per request. Publishing a new snapshot starts a
// fresh engine (and thus fresh matrices) consistent with the new data;
// Config.PrewarmMatrices moves the build from the first query to publish
// time for predictable tail latencies.
//
// With Config.Shards > 1 each analyze scatters one partial solve per shard
// onto the worker pool, every partial reading the same published snapshot,
// and merges the partials into exactly the answer a single serial solve
// would return (see shard.go and core.SolvePartial). Sharding is purely a
// serving-tier degree of parallelism: the WAL, checkpoints, and ingest
// path are shard-agnostic, so a durable data dir can be rebooted under any
// shard count.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/incremental"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/obs"
	"tagdm/internal/query"
	"tagdm/internal/signature"
	"tagdm/internal/wal"
)

// Config tunes a Server. The zero value of every field gets a sensible
// default from withDefaults.
type Config struct {
	// Dataset is the initial corpus; it may be empty (schemas only) for a
	// server populated exclusively through ingest. The server takes
	// ownership: callers must not mutate it afterwards.
	Dataset *model.Dataset
	// MinGroupTuples drops groups smaller than this (default 5, as in the
	// paper).
	MinGroupTuples int
	// Workers is the solver worker count per shard (default 4): the one
	// worker pool runs Workers×Shards solver executions at a time.
	Workers int
	// Shards is the number of partial solves the serving tier fans each
	// analyze into (default 1: the classic single-solve path). Each partial
	// solves a deterministic slice of the search space against the one
	// published snapshot; answers are byte-identical at every shard count.
	// Clamped to len(shardLabels) so per-shard metric series stay bounded.
	Shards int
	// QueueDepth bounds queued analyze requests beyond the running ones,
	// per shard: the pool queues QueueDepth×Shards partial-solve jobs, and
	// excess requests get 429 (default 64).
	QueueDepth int
	// CacheSize is the analyze LRU capacity in entries (default 256;
	// negative disables caching).
	CacheSize int
	// SolveTimeout caps one analyze request end to end (default 30s).
	SolveTimeout time.Duration
	// Seed drives the LSH hyperplanes for reproducible answers.
	Seed int64
	// PrewarmMatrices builds the pair matrices of every (dimension,
	// measure) binding at snapshot publication instead of on the first
	// query needing them, trading publish latency for flat analyze tails:
	// the publishing ingest request waits for six O(n^2) builds (other
	// ingests proceed; publication itself is never blocked on the build).
	// Every ingest batch publishes, so the builds carry the previous
	// epoch's rows and redo only those of the groups the batch touched.
	// Matrices cost n*(n-1)/2 float64 per binding over n groups.
	PrewarmMatrices bool
	// MatrixBudgetBytes caps the bytes of fully materialized pair matrices
	// the published engine's cache may hold; the coldest matrices are
	// evicted when the cap is exceeded, and SM-LSH scores bindings whose
	// full triangle would not fit through the lazy pair function instead.
	// Every shard's partial scores through that one cache, so the budget
	// covers the whole serving tier regardless of shard count. Zero means
	// unlimited (the default); a negative value is treated as zero.
	MatrixBudgetBytes int64
	// AccessLog, when non-nil, receives one structured line per HTTP
	// request (request id, method, path, status, duration) plus slow-solve
	// reports. Use obs.NewJSONLogger for the standard JSON shape.
	AccessLog *slog.Logger
	// SlowSolve is the analyze latency above which a solve is logged to
	// AccessLog with its full resolved problem spec and span tree. Zero
	// disables slow-solve reporting.
	SlowSolve time.Duration

	// DataDir enables durable ingest: a write-ahead log and snapshot
	// checkpoints under this directory. Empty keeps the server purely
	// in-memory (the pre-durability behavior). When the directory already
	// holds a checkpoint, boot recovers from it and Dataset may be nil;
	// a first boot seeds from Dataset and checkpoints it immediately.
	DataDir string
	// FsyncMode selects when WAL appends are fsynced (default
	// wal.SyncAlways: every acknowledged batch is crash-durable).
	// Concurrent ingests share fsyncs by group commit without a timer.
	FsyncMode wal.SyncMode
	// CheckpointEvery writes a snapshot checkpoint after this many ingested
	// actions (default 4096; negative disables automatic checkpoints —
	// Checkpoint and Shutdown still write them).
	CheckpointEvery int
	// MaxAnalyzeBytes / MaxIngestBytes cap request bodies; oversized
	// requests get 413 (defaults 1 MiB and 32 MiB).
	MaxAnalyzeBytes int64
	MaxIngestBytes  int64
	// WALFS overrides the filesystem the durability layer writes through;
	// nil uses the real one. The fault-injection tests pass a wal.FaultFS.
	WALFS wal.FS
}

func (c Config) withDefaults() Config {
	if c.MinGroupTuples == 0 {
		c.MinGroupTuples = 5
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > len(shardLabels) {
		c.Shards = len(shardLabels)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 30 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4096
	}
	if c.MaxAnalyzeBytes <= 0 {
		c.MaxAnalyzeBytes = 1 << 20
	}
	if c.MaxIngestBytes <= 0 {
		c.MaxIngestBytes = 32 << 20
	}
	if c.MatrixBudgetBytes < 0 {
		c.MatrixBudgetBytes = 0
	}
	return c
}

// Server is the HTTP analysis server. Create with New, serve with any
// http.Server (it implements http.Handler), stop with Close.
type Server struct {
	cfg Config

	// mu serializes the write side: the maintainer, the dataset tables it
	// reads, and snapshot capture. Held across apply+enqueue+capture, never
	// across disk I/O or the WAL ticket wait.
	//
	//tagdm:mutex nonblocking
	mu    sync.Mutex
	ds    *model.Dataset
	maint *incremental.Maintainer

	// snap is the published read view; analyze handlers only ever touch
	// this, never the maintainer. Its Version is the published epoch.
	snap atomic.Pointer[incremental.Snapshot]

	cache *resultCache
	// pool runs every partial solve; a scattered analyze submits one job
	// per shard.
	pool    *pool[*shardOutcome]
	metrics *metrics
	mux     *http.ServeMux

	// Durability state; dur is nil for a purely in-memory server.
	dur           *durability
	sigSize       int // frequency-summarizer fold width, frozen at first boot
	sinceCkpt     int // actions since the last checkpoint (guarded by mu)
	recovery      RecoveryInfo
	degradedP     atomic.Pointer[degraded]
	ckptMu        sync.Mutex // serializes Checkpoint executions
	ckptRunning   atomic.Bool
	ckptLastSeq   atomic.Uint64
	ckptLastEpoch atomic.Int64
}

// New builds a server over the dataset and publishes the initial snapshot.
// With Config.DataDir set, construction is a durable boot: load the newest
// valid checkpoint (or seed from Config.Dataset on first boot), replay the
// WAL tail, and publish the recovered state — the published epoch then
// continues from where the previous process stopped.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheSize),
		metrics: newMetrics(cfg.Shards),
	}
	s.pool = newPool[*shardOutcome](cfg.Workers*cfg.Shards, cfg.QueueDepth*cfg.Shards)
	if cfg.DataDir == "" {
		if cfg.Dataset == nil {
			s.pool.close()
			return nil, fmt.Errorf("server: Config.Dataset is required (may be empty, not nil)")
		}
		sum := signature.FrequencyOfSize(cfg.Dataset.Vocab.Size())
		maint, err := incremental.New(cfg.Dataset, cfg.MinGroupTuples, sum)
		if err != nil {
			s.pool.close()
			return nil, err
		}
		s.ds, s.maint = cfg.Dataset, maint
		s.sigSize = cfg.Dataset.Vocab.Size()
	} else {
		boot := obs.NewTrace("recover")
		err := s.openDurable(boot)
		boot.End()
		if err != nil {
			s.pool.close()
			return nil, err
		}
	}
	snap, err := s.maint.Snapshot()
	if err != nil {
		s.pool.close()
		if s.dur != nil {
			//tagdm:allow-discard boot already failing; the open error is the one worth surfacing
			s.dur.log.Close()
		}
		return nil, err
	}
	s.installSnapshot(snap)
	s.prewarm()
	s.metrics.registerGauges(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/actions", s.handleActions)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// ServeHTTP implements http.Handler. Every request passes through here:
// it assigns (or adopts) a request id, counts and times the request per
// endpoint, and emits one structured access-log line when Config.AccessLog
// is set.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	r = r.WithContext(obs.ContextWithRequestID(r.Context(), reqID))
	w.Header().Set("X-Request-ID", reqID)

	ep := endpointLabel(r.URL.Path)
	s.metrics.requests.With(ep).Inc()
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)
	s.metrics.requestLatency.With(ep).Observe(elapsed.Seconds())
	if s.cfg.AccessLog != nil {
		s.cfg.AccessLog.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.statusCode()),
			slog.Float64("duration_ms", float64(elapsed)/1e6),
		)
	}
}

// statusWriter captures the response status for access logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Close stops the worker pool after draining queued solves and closes the
// WAL (flushing pending appends) without writing a final checkpoint. Use
// Shutdown for a clean exit that checkpoints first.
func (s *Server) Close() {
	s.pool.close()
	if s.dur != nil {
		//tagdm:allow-discard Close has no error path to report into; Shutdown is the checked exit
		_ = s.dur.log.Close()
	}
}

// Shutdown is the graceful exit: drain the worker pool, write a final
// checkpoint (unless degraded — a degraded server must not publish
// checkpoints over possibly-unsynced state), then flush, fsync and close
// the WAL. The context is threaded into the checkpoint's degradation
// logging; the
// checkpoint itself is not interruptible.
func (s *Server) Shutdown(ctx context.Context) error {
	s.pool.close()
	if s.dur == nil {
		return nil
	}
	var err error
	if _, isDegraded := s.degradedReason(); !isDegraded {
		err = s.Checkpoint(ctx)
	}
	if cerr := s.dur.log.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Recovery reports what a durable boot found on disk.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Epoch returns the epoch of the currently published snapshot.
func (s *Server) Epoch() int64 { return s.snap.Load().Version }

// DatasetStats summarizes the corpus the server booted with (including
// recovered state on a durable boot). Entity counts stay current as ingest
// creates users and items; the action count reflects boot time — use
// /v1/stats for the live figure.
func (s *Server) DatasetStats() model.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ds.Stats()
}

// prewarm builds every (dimension, measure) pair matrix of the published
// engine, which every shard's partial reads — one physical build per
// binding regardless of shard count (the cache single-flights racing
// builds).
// Callers invoke it after releasing s.mu: an O(n^2) build per binding must
// never stall the write path. The publishing request waits for the build
// (that is the prewarm contract — publish pays so analyzes don't), while
// other ingests proceed.
func (s *Server) prewarm() {
	if !s.cfg.PrewarmMatrices {
		return
	}
	eng := s.snap.Load().Engine
	for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
		for _, meas := range []mining.Measure{mining.Similarity, mining.Diversity} {
			eng.PairMatrix(dim, meas)
		}
	}
}

// --- wire types ---

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Query is an ANALYZE statement, e.g.
	// "ANALYZE PROBLEM 3 WHERE genre=drama WITH k=3, support=1%".
	Query string `json:"query"`
	// Trace requests the span tree of this request in the response:
	// parse, cache and solve phases, with the solver's per-stage spans
	// (matrix, enumerate, lsh_build, ...) nested under solve.
	Trace bool `json:"trace,omitempty"`
}

// GroupResult is one returned group of an analyze response.
type GroupResult struct {
	// Description renders the group predicate, e.g. {gender=male, genre=action}.
	Description string `json:"description"`
	// Size is the group's tagging-action count.
	Size int `json:"size"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Query string `json:"query"`
	// Epoch is the engine snapshot the result was computed against.
	Epoch int64 `json:"epoch"`
	// Found is false for a null result (no feasible group set).
	Found     bool          `json:"found"`
	Algorithm string        `json:"algorithm,omitempty"`
	Objective float64       `json:"objective"`
	Support   int           `json:"support"`
	Groups    []GroupResult `json:"groups"`
	// SolveMillis is the solver wall-clock; cached responses keep the
	// original solve time.
	SolveMillis float64 `json:"solve_millis"`
	// Cached reports whether this response came from the result cache.
	Cached bool `json:"cached"`
	// RequestID echoes the X-Request-ID of this request (set only when
	// Trace was requested; the header carries it on every response).
	RequestID string `json:"request_id,omitempty"`
	// Trace is the request's span tree, present when AnalyzeRequest.Trace
	// was set. The encode span is still open when the tree is snapshotted,
	// so its wall time reads near zero here; the slow-solve log carries
	// the completed tree.
	Trace *obs.SpanTree `json:"trace,omitempty"`

	// spec keeps the resolved problem spec for slow-solve reporting; it
	// never crosses the wire.
	spec *core.ProblemSpec
}

type analyzeResponse = AnalyzeResponse

// IngestAction is one element of an ingest batch. Either reference an
// existing entity by id (user/item) or create one inline by supplying its
// attribute map (user_attrs/item_attrs).
type IngestAction struct {
	User      *int32            `json:"user,omitempty"`
	Item      *int32            `json:"item,omitempty"`
	UserAttrs map[string]string `json:"user_attrs,omitempty"`
	ItemAttrs map[string]string `json:"item_attrs,omitempty"`
	Rating    float64           `json:"rating,omitempty"`
	Tags      []string          `json:"tags"`
}

// IngestRequest is the body of POST /v1/actions.
type IngestRequest struct {
	Actions []IngestAction `json:"actions"`
}

// IngestResponse is the body of a successful POST /v1/actions.
type IngestResponse struct {
	Inserted     int `json:"inserted"`
	UsersCreated int `json:"users_created"`
	ItemsCreated int `json:"items_created"`
	// Epoch is the epoch of the snapshot this batch published: it holds
	// this batch and every batch applied before it, all durable.
	Epoch int64 `json:"epoch"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Epoch int64 `json:"epoch"`
	// Shards is the serving-tier fan-out: the partial solves each analyze
	// scatters across.
	Shards        int     `json:"shards"`
	Actions       int     `json:"actions"`
	Groups        int     `json:"groups"`
	Users         int     `json:"users"`
	Items         int     `json:"items"`
	VocabSize     int     `json:"vocab_size"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Cache struct {
		Size      int     `json:"size"`
		Capacity  int     `json:"capacity"`
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`

	// Pool reports Workers and Capacity per shard, as configured; the one
	// worker pool holds Shards times each. QueueDepth is the pool's current
	// count of queued partial-solve jobs.
	Pool struct {
		Workers    int `json:"workers"`
		QueueDepth int `json:"queue_depth"`
		Capacity   int `json:"queue_capacity"`
	} `json:"pool"`

	// Matrix describes the published engine's pair-matrix cache, which
	// every shard's partial scores through. Evictions is cumulative across
	// epochs (the counter is carried when a new snapshot adopts the
	// previous cache).
	Matrix struct {
		Bytes       int64  `json:"bytes"`
		Entries     int    `json:"entries"`
		BudgetBytes int64  `json:"budget_bytes"`
		Evictions   uint64 `json:"evictions"`
	} `json:"matrix"`

	Solve struct {
		Count      int64   `json:"count"`
		Errors     int64   `json:"errors"`
		Timeouts   int64   `json:"timeouts"`
		Rejected   int64   `json:"rejected"`
		MeanMillis float64 `json:"mean_millis"`
		// CandidatesExamined/CandidatesPruned split solver work the way
		// core.Result does: sets actually evaluated versus sets the Exact
		// branch-and-bound proved unable to reach the support floor or to
		// beat the incumbent and skipped (always 0 for the approximate
		// families).
		CandidatesExamined int64 `json:"candidates_examined"`
		CandidatesPruned   int64 `json:"candidates_pruned"`
		// Families breaks the same numbers down per solver family
		// ("exact", "smlsh", "dvfdp"); the totals above are their sums,
		// read from the identical registry atomics /metrics renders.
		Families map[string]FamilySolveStats `json:"families"`
	} `json:"solve"`

	Ingest struct {
		Requests  int64 `json:"requests"`
		Actions   int64 `json:"actions"`
		Snapshots int64 `json:"snapshots"`
	} `json:"ingest"`

	// Postings counts the published snapshot's (column, value) posting
	// lists.
	Postings struct {
		Lists int `json:"lists"`
	} `json:"postings"`

	// Durability reports the write-ahead log and checkpoint state; all
	// zero values when the server runs without a data dir.
	Durability struct {
		Enabled   bool   `json:"enabled"`
		Degraded  bool   `json:"degraded"`
		Reason    string `json:"reason,omitempty"`
		FsyncMode string `json:"fsync_mode,omitempty"`

		WALLastSeq   uint64 `json:"wal_last_seq"`
		WALSizeBytes int64  `json:"wal_size_bytes"`
		WALAppends   int64  `json:"wal_appends"`
		WALFsyncs    int64  `json:"wal_fsyncs"`

		Checkpoints         int64  `json:"checkpoints"`
		CheckpointLastSeq   uint64 `json:"checkpoint_last_seq"`
		CheckpointLastEpoch int64  `json:"checkpoint_last_epoch"`

		Recovery RecoveryInfo `json:"recovery"`
	} `json:"durability"`
}

// FamilySolveStats is the per-solver-family slice of StatsResponse.Solve.
type FamilySolveStats struct {
	Count              int64   `json:"count"`
	MeanMillis         float64 `json:"mean_millis"`
	CandidatesExamined int64   `json:"candidates_examined"`
	CandidatesPruned   int64   `json:"candidates_pruned"`
	MatrixBuilds       int64   `json:"matrix_builds"`
	MatrixRebuilds     int64   `json:"matrix_rebuilds"`
	MatrixHits         int64   `json:"matrix_cache_hits"`
	MatrixLazy         int64   `json:"matrix_lazy"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	root := obs.NewTrace("analyze")
	defer root.End()
	root.SetAttr("request_id", obs.RequestIDFrom(r.Context()))

	var req AnalyzeRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxAnalyzeBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "query is required")
		return
	}
	parseSpan := root.StartChild("parse")
	parsed, err := query.Parse(req.Query)
	parseSpan.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	snap := s.snap.Load()
	key := cacheKey{query: canonicalQuery(req.Query), epoch: snap.Version}
	cacheSpan := root.StartChild("cache")
	cached, hit := s.cache.get(key)
	cacheSpan.SetAttr("hit", hit)
	cacheSpan.End()
	if hit {
		s.metrics.cacheHits.Inc()
		resp := *cached
		resp.Cached = true
		s.finishAnalyze(w, r, &resp, req, root)
		return
	}
	s.metrics.cacheMisses.Inc()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SolveTimeout)
	defer cancel()
	solveSpan := root.StartChild("solve")
	resp, err := s.scatterAnalyze(ctx, solveSpan, snap, parsed, req.Query)
	solveSpan.End()
	switch {
	case errors.Is(err, errBusy):
		s.metrics.rejected.Inc()
		// Queued solves drain in well under the degraded-mode horizon, so
		// advertise an immediate retry — same contract as the 503 path.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "solve queue full, retry later")
		return
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.solveTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "analysis timed out after %s", s.cfg.SolveTimeout)
		return
	case errors.Is(err, context.Canceled):
		// The client went away; there is nobody to answer and nothing
		// timed out, so don't count it against the timeout metric.
		return
	case err != nil:
		s.metrics.solveErrors.Inc()
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.cache.put(key, resp)
	out := *resp
	s.finishAnalyze(w, r, &out, req, root)
}

// finishAnalyze encodes the response (embedding the span tree when the
// request asked for it) and emits the slow-solve report when the solve
// exceeded Config.SlowSolve. resp must be a private copy: the cached
// entry is shared across requests and must not grow request-scoped state.
func (s *Server) finishAnalyze(w http.ResponseWriter, r *http.Request, resp *analyzeResponse, req AnalyzeRequest, root *obs.Span) {
	encodeSpan := root.StartChild("encode")
	if req.Trace {
		resp.RequestID = obs.RequestIDFrom(r.Context())
		resp.Trace = root.Tree()
	}
	writeJSON(w, http.StatusOK, *resp)
	encodeSpan.End()
	root.End()

	if resp.Cached || s.cfg.SlowSolve <= 0 {
		return
	}
	if time.Duration(resp.SolveMillis*float64(time.Millisecond)) < s.cfg.SlowSolve {
		return
	}
	s.metrics.slowSolves.Inc()
	if s.cfg.AccessLog == nil {
		return
	}
	s.cfg.AccessLog.LogAttrs(r.Context(), slog.LevelWarn, "slow solve",
		slog.String("request_id", obs.RequestIDFrom(r.Context())),
		slog.String("query", resp.Query),
		slog.String("algorithm", resp.Algorithm),
		slog.Float64("solve_millis", resp.SolveMillis),
		slog.Int64("epoch", resp.Epoch),
		slog.Any("spec", resp.spec),
		slog.Any("trace", root.Tree()),
	)
}

// scopedEngine builds a throwaway engine over the subset of the snapshot
// matching a WHERE filter, mirroring how Options.Within scopes a batch
// Analysis: re-enumerate describable groups inside the scope and summarize
// them with frequency signatures. The snapshot store is frozen, so this is
// safe against concurrent ingest; results are cached like any other query.
func (s *Server) scopedEngine(snap *incremental.Snapshot, where map[string]string) (*core.Engine, int, error) {
	pred, err := snap.Store.ParsePredicate(where)
	if err != nil {
		return nil, 0, err
	}
	bm := snap.Store.Eval(pred)
	if bm.Count() == 0 {
		return nil, 0, fmt.Errorf("server: filter %v matches no tagging actions", where)
	}
	gs := (&groups.Enumerator{Store: snap.Store, MinTuples: s.cfg.MinGroupTuples, Within: bm}).FullyDescribed()
	if len(gs) == 0 {
		return nil, 0, fmt.Errorf("server: no describable groups with >= %d tagging actions under filter %v",
			s.cfg.MinGroupTuples, where)
	}
	// Size signatures by the snapshot's frozen vocabulary, not the live
	// (possibly grown) one, so equal epochs keep producing equal answers.
	sum := signature.FrequencyOfSize(snap.VocabSize)
	sigs := signature.SummarizeAll(sum, snap.Store, gs)
	eng, err := core.NewEngine(snap.Store, gs, sigs)
	if err != nil {
		return nil, 0, err
	}
	return eng, bm.Count(), nil
}

// handleActions is the streaming ingest path. Batches apply under the
// writer lock while analyses keep reading the published snapshot.
//
// Batches are atomic: the whole batch is validated against the current
// state (simulating in-batch entity creation) before any action applies,
// so a bad action rejects the batch with 400 and zero side effects. This
// is what makes the write-ahead log sound — a logged record is always a
// fully-applied batch, so crash replay cannot diverge from the original
// execution.
//
// Under the write lock a batch applies in memory, enqueues its WAL record
// (pinning WAL order to apply order) and captures a snapshot, so the
// snapshot holds exactly the batches up to this one's WAL record; the
// capture overlaps the record's write+fsync. Only once the group commit has
// made the record durable is the snapshot installed — analyses never
// observe data that subsequently fails the disk, since the WAL fails every
// record behind a failed one. A WAL failure flips the server into sticky
// read-only mode: the client gets 503 (its batch was not durably
// acknowledged) and so does every later ingest, while analyses keep
// serving the last published snapshot.
//
// Note the vocabulary-growth caveat documented on tagdm.Maintainer.Insert:
// frequency signatures fold brand-new tags into the signature space only up
// to the vocabulary size at server construction, so pre-register the
// expected vocabulary in the initial dataset when new tags must influence
// tag-dimension measures.
func (s *Server) handleActions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	start := time.Now()
	root := obs.NewTrace("ingest")
	defer root.End()
	root.SetAttr("request_id", obs.RequestIDFrom(r.Context()))

	s.checkDurable(r.Context())
	if reason, ok := s.degradedReason(); ok {
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, "read-only mode: %s", reason)
		return
	}

	decodeSpan := root.StartChild("decode")
	var req IngestRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes)
	err := json.NewDecoder(body).Decode(&req)
	decodeSpan.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Actions) == 0 {
		writeError(w, http.StatusBadRequest, "actions is required and must be non-empty")
		return
	}

	applySpan := root.StartChild("apply")
	s.mu.Lock()
	if err := s.validateBatchLocked(req.Actions); err != nil {
		s.mu.Unlock()
		applySpan.End()
		writeError(w, http.StatusBadRequest, "%v (batch rejected, nothing applied)", err)
		return
	}
	var resp IngestResponse
	if err := s.applyBatchLocked(req.Actions, &resp); err != nil {
		// Validation guarantees apply cannot fail; if it does, the memory
		// state may have diverged from what the WAL will record, so stop
		// accepting writes.
		s.degrade(r.Context(), "batch apply after validation", err)
		s.mu.Unlock()
		applySpan.End()
		writeError(w, http.StatusInternalServerError, "applying batch: %v", err)
		return
	}
	s.sinceCkpt += resp.Inserted
	var ticket *wal.Ticket
	var payloadLen int
	if s.dur != nil {
		// Marshal of decoded wire structs cannot fail; Enqueue under s.mu
		// pins the WAL record order to the in-memory apply order.
		payload, _ := json.Marshal(IngestRequest{Actions: req.Actions})
		payloadLen = len(payload)
		ticket = s.dur.log.Enqueue(payload)
	}
	applySpan.End()
	captureSpan := root.StartChild("capture")
	snap, captureErr := s.maint.Snapshot()
	s.mu.Unlock()
	captureSpan.End()

	if ticket != nil {
		walSpan := root.StartChild("wal_append")
		waitStart := time.Now()
		err := ticket.Wait()
		walSpan.End()
		s.metrics.walAppendWait.Observe(time.Since(waitStart).Seconds())
		if err != nil {
			s.metrics.walAppendErrors.Inc()
			s.degrade(r.Context(), "wal append", err)
			w.Header().Set("Retry-After", "30")
			writeError(w, http.StatusServiceUnavailable,
				"write-ahead log failure, entering read-only mode: %v", err)
			return
		}
		s.metrics.walAppends.Inc()
		s.metrics.walAppendBytes.Add(int64(payloadLen))
	}

	if captureErr != nil {
		writeError(w, http.StatusInternalServerError, "capturing snapshot: %v", captureErr)
		return
	}
	s.installSnapshot(snap)
	s.prewarm()

	resp.Epoch = snap.Version
	s.metrics.ingestLatency.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, resp)
	s.maybeCheckpointAsync()
}

// validateBatchLocked checks a whole ingest batch against the current state
// without mutating anything, simulating in-batch entity creation so later
// actions may reference entities earlier actions create. After it passes,
// applyBatchLocked cannot fail.
func (s *Server) validateBatchLocked(actions []IngestAction) error {
	nUsers, nItems := len(s.ds.Users), len(s.ds.Items)
	for i, a := range actions {
		if err := validateEntityRef(a.User, a.UserAttrs, s.ds.UserSchema, &nUsers, "user"); err != nil {
			return fmt.Errorf("actions[%d]: %w", i, err)
		}
		if err := validateEntityRef(a.Item, a.ItemAttrs, s.ds.ItemSchema, &nItems, "item"); err != nil {
			return fmt.Errorf("actions[%d]: %w", i, err)
		}
	}
	return nil
}

// validateEntityRef checks one (id, attrs) pair: exactly one must be set,
// attrs must only name schema attributes, and ids must be in range given
// the entities the batch created so far (*n tracks the simulated count).
func validateEntityRef(id *int32, attrs map[string]string, schema *model.Schema, n *int, kind string) error {
	switch {
	case id != nil && attrs != nil:
		return fmt.Errorf("set %s or %s_attrs, not both", kind, kind)
	case attrs != nil:
		for name := range attrs {
			if schema.AttrIndex(name) < 0 {
				return fmt.Errorf("%s_attrs: schema has no attribute %q", kind, name)
			}
		}
		*n++
		return nil
	case id != nil:
		if *id < 0 || int(*id) >= *n {
			return fmt.Errorf("references unknown %s %d", kind, *id)
		}
		return nil
	default:
		return fmt.Errorf("%s or %s_attrs is required", kind, kind)
	}
}

// applyBatchLocked applies a validated batch: creates inline entities,
// interns tags and inserts every action, filling resp's counters. Both the
// ingest handler and WAL replay run through it, which is what makes replay
// reconstruct the original execution exactly.
func (s *Server) applyBatchLocked(actions []IngestAction, resp *IngestResponse) error {
	for i, a := range actions {
		user, err := s.resolveEntityLocked(a.User, a.UserAttrs, true)
		if err != nil {
			return fmt.Errorf("actions[%d]: %w", i, err)
		}
		item, err := s.resolveEntityLocked(a.Item, a.ItemAttrs, false)
		if err != nil {
			return fmt.Errorf("actions[%d]: %w", i, err)
		}
		ids := make([]model.TagID, len(a.Tags))
		for j, t := range a.Tags {
			ids[j] = s.ds.Vocab.ID(t)
		}
		if err := s.maint.Insert(model.TaggingAction{User: user, Item: item, Rating: a.Rating, Tags: ids}); err != nil {
			return fmt.Errorf("actions[%d]: %w", i, err)
		}
		resp.Inserted++
		s.metrics.actionsIngested.Inc()
		if a.UserAttrs != nil {
			resp.UsersCreated++
			s.metrics.usersCreated.Inc()
		}
		if a.ItemAttrs != nil {
			resp.ItemsCreated++
			s.metrics.itemsCreated.Inc()
		}
	}
	return nil
}

// resolveEntityLocked maps an (id, attrs) pair to an entity id, creating
// the entity when attrs are given. Exactly one of the two must be set.
func (s *Server) resolveEntityLocked(id *int32, attrs map[string]string, isUser bool) (int32, error) {
	kind := "item"
	if isUser {
		kind = "user"
	}
	switch {
	case id != nil && attrs != nil:
		return 0, fmt.Errorf("set %s or %s_attrs, not both", kind, kind)
	case attrs != nil:
		if isUser {
			return s.ds.AddUser(attrs)
		}
		return s.ds.AddItem(attrs)
	case id != nil:
		return *id, nil
	default:
		return 0, fmt.Errorf("%s or %s_attrs is required", kind, kind)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := s.snap.Load()
	s.mu.Lock()
	users, items := len(s.ds.Users), len(s.ds.Items)
	s.mu.Unlock()

	var resp StatsResponse
	resp.Epoch = snap.Version
	resp.Shards = s.cfg.Shards
	resp.Actions = snap.Store.Len()
	resp.Groups = len(snap.Groups)
	resp.Users = users
	resp.Items = items
	resp.VocabSize = snap.Store.Vocab.Size()
	resp.UptimeSeconds = time.Since(s.metrics.started).Seconds()
	size, evictions := s.cache.stats()
	resp.Cache.Size = size
	resp.Cache.Capacity = s.cfg.CacheSize
	resp.Cache.Hits = s.metrics.cacheHits.Value()
	resp.Cache.Misses = s.metrics.cacheMisses.Value()
	resp.Cache.Evictions = evictions
	resp.Cache.HitRate = s.metrics.hitRate()
	resp.Pool.Workers = s.cfg.Workers
	resp.Pool.QueueDepth = s.pool.depth()
	resp.Pool.Capacity = s.cfg.QueueDepth
	ms := snap.Engine.MatrixStats()
	resp.Matrix.Bytes = ms.Bytes
	resp.Matrix.Entries = ms.Entries
	resp.Matrix.BudgetBytes = s.cfg.MatrixBudgetBytes
	resp.Matrix.Evictions = ms.Evictions
	// The per-family numbers come from the same registry series /metrics
	// renders; the totals are their sums, so the two endpoints agree by
	// construction.
	resp.Solve.Families = make(map[string]FamilySolveStats, len(solverFamilies))
	var sumNanos float64
	for _, fam := range solverFamilies {
		lat := s.metrics.solveLatency.With(fam)
		fs := FamilySolveStats{
			Count:              s.metrics.solves.With(fam).Value(),
			MeanMillis:         lat.Mean() * 1e3,
			CandidatesExamined: s.metrics.candidatesExamined.With(fam).Value(),
			CandidatesPruned:   s.metrics.candidatesPruned.With(fam).Value(),
			MatrixBuilds:       s.metrics.matrixBuilds.With(fam).Value(),
			MatrixRebuilds:     s.metrics.matrixRebuilds.With(fam).Value(),
			MatrixHits:         s.metrics.matrixHits.With(fam).Value(),
			MatrixLazy:         s.metrics.matrixLazy.With(fam).Value(),
		}
		resp.Solve.Families[fam] = fs
		resp.Solve.Count += fs.Count
		resp.Solve.CandidatesExamined += fs.CandidatesExamined
		resp.Solve.CandidatesPruned += fs.CandidatesPruned
		sumNanos += lat.Sum() * 1e9
	}
	if resp.Solve.Count > 0 {
		resp.Solve.MeanMillis = sumNanos / float64(resp.Solve.Count) / 1e6
	}
	resp.Solve.Errors = s.metrics.solveErrors.Value()
	resp.Solve.Timeouts = s.metrics.solveTimeouts.Value()
	resp.Solve.Rejected = s.metrics.rejected.Value()
	resp.Ingest.Requests = s.metrics.requests.With("actions").Value()
	resp.Ingest.Actions = s.metrics.actionsIngested.Value()
	resp.Ingest.Snapshots = s.metrics.snapshots.Value()
	resp.Postings.Lists = snap.Store.PostingLists()
	if s.dur != nil {
		ws := s.dur.log.Stats()
		resp.Durability.Enabled = true
		resp.Durability.Reason, resp.Durability.Degraded = s.degradedReason()
		resp.Durability.FsyncMode = s.cfg.FsyncMode.String()
		resp.Durability.WALLastSeq = ws.LastSeq
		resp.Durability.WALSizeBytes = ws.SizeBytes
		resp.Durability.WALAppends = s.metrics.walAppends.Value()
		resp.Durability.WALFsyncs = ws.Syncs
		resp.Durability.Checkpoints = s.metrics.checkpoints.Value()
		resp.Durability.CheckpointLastSeq = s.ckptLastSeq.Load()
		resp.Durability.CheckpointLastEpoch = s.ckptLastEpoch.Load()
		resp.Durability.Recovery = s.recovery
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	//tagdm:allow-discard scrape write failure means the scraper hung up; nothing to repair server-side
	_ = s.metrics.reg.WriteText(w)
}

// handleHealthz is liveness plus durability visibility: a degraded server
// still answers 200 (it is alive and serving analyses) but reports its
// read-only state so orchestration and operators can see it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.checkDurable(r.Context())
	if reason, ok := s.degradedReason(); ok {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"mode":   "read-only",
			"reason": reason,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
