// Command tagdm-serve runs the TagDM analysis server: an HTTP JSON API
// answering ANALYZE queries over a dataset that keeps growing through
// streaming ingest.
//
// Usage:
//
//	tagdm-serve [-addr :8080] [-data file.json | -generate small|paper |
//	            -user-attrs a,b -item-attrs c,d]
//	            [-data-dir dir] [-fsync always|interval|none]
//	            [-checkpoint-every N]
//	            [-min-group-tuples 5] [-workers 4] [-shards 1] [-queue 64]
//	            [-cache 256] [-refresh-every 1] [-timeout 30s] [-seed 1]
//	            [-max-ingest-bytes N] [-max-analyze-bytes N]
//	            [-prewarm] [-matrix-budget BYTES] [-access-log] [-slow-ms 0]
//	            [-debug-addr addr] [-shutdown-timeout 15s]
//
// The corpus comes from one of three places: a dataset JSON file written by
// tagdm-datagen or Dataset.WriteJSON (-data), a synthesized corpus
// (-generate), or an empty dataset over explicit schemas (-user-attrs /
// -item-attrs) to be populated entirely through POST /v1/actions.
//
// Durability: -data-dir enables the write-ahead log and snapshot
// checkpoints. Ingest batches are acknowledged only after they are durable
// (per -fsync), and a restart recovers the exact pre-crash state by loading
// the latest checkpoint and replaying the WAL tail. Once a checkpoint
// exists, the corpus flags become optional — `tagdm-serve -data-dir dir`
// alone resumes from disk; supplying one anyway only matters on first boot.
//
// Endpoints:
//
//	POST /v1/analyze  {"query": "ANALYZE PROBLEM 3 WITH k=3, support=1%"}
//	POST /v1/actions  {"actions": [{"user": 1, "item": 2, "tags": ["epic"]}]}
//	POST /v1/refresh  force snapshot publication
//	GET  /v1/stats    cache hit rate, queue depth, solve latencies (JSON)
//	GET  /metrics     the same in Prometheus text format
//	GET  /healthz     liveness (reports read-only degradation)
//
// Observability: -access-log writes one structured JSON line per request
// to stderr; -slow-ms N additionally dumps the resolved problem spec and
// the request's span tree for any solve slower than N milliseconds;
// -debug-addr :6060 serves net/http/pprof profiles on a separate listener
// so profiling traffic never shares the API port.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops accepting,
// in-flight requests drain (bounded by -shutdown-timeout), the WAL is
// flushed and fsync'd, and a final checkpoint is written so the next boot
// replays nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tagdm"
	"tagdm/internal/obs"
	"tagdm/internal/server"
	"tagdm/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tagdm-serve: ")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dataFile     = flag.String("data", "", "dataset JSON file")
		generate     = flag.String("generate", "", "synthesize a corpus instead: small or paper")
		userAttrs    = flag.String("user-attrs", "", "comma-separated user schema for an empty dataset")
		itemAttrs    = flag.String("item-attrs", "", "comma-separated item schema for an empty dataset")
		dataDir      = flag.String("data-dir", "", "enable durability: WAL + checkpoints in this directory")
		fsyncMode    = flag.String("fsync", "always", "WAL fsync policy: always, interval, or none")
		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint after N WAL records (0 = default, negative disables)")
		minTuples    = flag.Int("min-group-tuples", 5, "drop groups smaller than this")
		workers      = flag.Int("workers", 4, "solver workers per shard; the one pool runs workers×shards solves at a time")
		shards       = flag.Int("shards", 1, "partial solves each analyze scatters across, all over one published snapshot (1 = no sharding)")
		queue        = flag.Int("queue", 64, "queued analyze requests beyond the running ones, per shard")
		cacheSize    = flag.Int("cache", 256, "analyze result cache entries (0 disables)")
		refreshEvery = flag.Int("refresh-every", 1, "publish a snapshot every N inserts")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request solve timeout")
		seed         = flag.Int64("seed", 1, "LSH seed for reproducible answers")
		maxIngest    = flag.Int64("max-ingest-bytes", 0, "largest accepted /v1/actions body (0 = default 32MiB)")
		maxAnalyze   = flag.Int64("max-analyze-bytes", 0, "largest accepted /v1/analyze body (0 = default 1MiB)")
		prewarm      = flag.Bool("prewarm", false, "build pair matrices at snapshot publication instead of on first query")
		matrixBudget = flag.Int64("matrix-budget", 0, "byte cap on cached pair matrices of the published engine, shared by every shard (0 = unlimited)")
		accessLog    = flag.Bool("access-log", false, "write a structured JSON access-log line per request to stderr")
		slowMs       = flag.Int("slow-ms", 0, "log spec and span tree of solves slower than this many milliseconds (0 disables)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. :6060); empty disables")
		drainTimeout = flag.Duration("shutdown-timeout", 15*time.Second, "grace period for draining requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	ds, err := loadDataset(*dataFile, *generate, *userAttrs, *itemAttrs, *dataDir)
	if err != nil {
		log.Fatal(err)
	}
	sync, err := wal.ParseSyncMode(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}

	cache := *cacheSize
	if cache == 0 {
		cache = -1 // Config treats 0 as "default"; negative disables
	}
	var logger *slog.Logger
	if *accessLog || *slowMs > 0 {
		logger = obs.NewJSONLogger(os.Stderr, slog.LevelInfo)
	}
	srv, err := server.New(server.Config{
		Dataset:           ds,
		MinGroupTuples:    *minTuples,
		Workers:           *workers,
		Shards:            *shards,
		QueueDepth:        *queue,
		CacheSize:         cache,
		RefreshEvery:      *refreshEvery,
		SolveTimeout:      *timeout,
		Seed:              *seed,
		PrewarmMatrices:   *prewarm,
		MatrixBudgetBytes: *matrixBudget,
		AccessLog:         logger,
		SlowSolve:         time.Duration(*slowMs) * time.Millisecond,
		DataDir:           *dataDir,
		FsyncMode:         sync,
		CheckpointEvery:   *ckptEvery,
		MaxIngestBytes:    *maxIngest,
		MaxAnalyzeBytes:   *maxAnalyze,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux; serving that mux on a dedicated listener
		// keeps profiling off the API port.
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	if *dataDir != "" {
		rec := srv.Recovery()
		if rec.Recovered {
			log.Printf("recovered from %s: checkpoint seq %d (epoch %d), replayed %d WAL records (%d actions), torn tail %d bytes",
				*dataDir, rec.CheckpointSeq, rec.CheckpointEpoch, rec.ReplayedRecords, rec.ReplayedActions, rec.TornTailBytes)
		} else {
			log.Printf("durability on: fresh data dir %s (fsync=%s)", *dataDir, *fsyncMode)
		}
	}
	stats := srv.DatasetStats()
	log.Printf("serving %d users, %d items, %d actions, %d-tag vocabulary on %s (%d shard(s) x %d workers)",
		stats.Users, stats.Items, stats.Actions, stats.VocabSize, *addr, *shards, *workers)
	log.Printf("endpoints: POST /v1/analyze, POST /v1/actions, POST /v1/refresh, GET /v1/stats, GET /metrics")

	// Serve until SIGINT/SIGTERM, then shut down in order: stop accepting,
	// drain in-flight requests, flush+fsync the WAL and write a final
	// checkpoint (srv.Shutdown) so the next boot replays nothing.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	select {
	case err := <-done:
		srv.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining (up to %s)", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("http shutdown: %v", err)
		}
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Printf("server shutdown: %v", err)
			os.Exit(1)
		}
		log.Printf("shutdown complete")
	}
}

// loadDataset resolves the corpus sources in priority order: file,
// generator, empty schemas. With -data-dir set, no corpus source is needed
// (nil means "resume from the checkpoint on disk"); the server rejects a
// fresh data dir with no corpus at boot with a clear error.
func loadDataset(dataFile, generate, userAttrs, itemAttrs, dataDir string) (*tagdm.Dataset, error) {
	switch {
	case dataFile != "":
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, err
		}
		//tagdm:allow-discard read-only dataset handle, nothing buffered to lose
		defer f.Close()
		return tagdm.ReadDatasetJSON(f)
	case generate != "":
		var cfg tagdm.GenerateConfig
		switch generate {
		case "small":
			cfg = tagdm.SmallGenerateConfig()
		case "paper":
			cfg = tagdm.DefaultGenerateConfig()
		default:
			return nil, fmt.Errorf("unknown -generate %q (want small or paper)", generate)
		}
		return tagdm.GenerateDataset(cfg)
	case userAttrs != "" && itemAttrs != "":
		return tagdm.NewDataset(
			tagdm.NewSchema(splitAttrs(userAttrs)...),
			tagdm.NewSchema(splitAttrs(itemAttrs)...),
		), nil
	case dataDir != "":
		return nil, nil
	default:
		return nil, fmt.Errorf("need -data, -generate, -data-dir, or both -user-attrs and -item-attrs")
	}
}

func splitAttrs(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
