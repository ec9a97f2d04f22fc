package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// shardedConfig disables the result cache so every analyze exercises the
// scatter-gather path, and fans across the given shard count.
func shardedConfig(shards int) func(*Config) {
	return func(cfg *Config) {
		cfg.Shards = shards
		cfg.CacheSize = -1
	}
}

var shardEquivalenceQueries = []string{
	testQuery,      // SM-LSH family
	dvfdpTestQuery, // DV-FDP family
	"ANALYZE PROBLEM 3 WHERE genre=action WITH k=2, support=2, q=0.1, r=0.1", // scoped engine per shard
}

// TestShardedAnalyzeByteIdenticalAcrossShardCounts drives a single-shard
// and a multi-shard server through the identical ingest sequence and
// requires identical analyze responses (epoch, algorithm, objective bits,
// support, rendered groups) at every epoch, plus identical Exact results at
// the engine level — sharding must be invisible in every answer.
func TestShardedAnalyzeByteIdenticalAcrossShardCounts(t *testing.T) {
	one := newTestServer(t, shardedConfig(1))
	many := newTestServer(t, shardedConfig(3))
	tsOne := httptest.NewServer(one)
	defer tsOne.Close()
	tsMany := httptest.NewServer(many)
	defer tsMany.Close()

	if got := getStats(t, tsMany).Shards; got != 3 {
		t.Fatalf("stats shards = %d, want 3", got)
	}

	check := func(round int) {
		t.Helper()
		for _, q := range shardEquivalenceQueries {
			want := analyzeOK(t, tsOne, q)
			got := analyzeOK(t, tsMany, q)
			if !sameAnswer(want, got) {
				t.Fatalf("round %d: %q diverged across shard counts:\n1 shard: %+v\n3 shards: %+v", round, q, want, got)
			}
		}
		if want, got := exactFP(t, one), exactFP(t, many); want != got {
			t.Fatalf("round %d: Exact diverged across shard counts:\n1 shard: %s\n3 shards: %s", round, want, got)
		}
	}

	check(0)
	for round := 1; round <= 4; round++ {
		user, item := int32(round%2), int32((round+1)%2)
		batch := []IngestAction{{User: &user, Item: &item, Rating: 3,
			Tags: []string{fmt.Sprintf("round-%d", round), "gun"}}}
		a := ingestOK(t, tsOne, batch)
		b := ingestOK(t, tsMany, batch)
		if a.Epoch != b.Epoch {
			t.Fatalf("round %d: epochs diverged: %d vs %d", round, a.Epoch, b.Epoch)
		}
		check(round)
	}
}

// TestShardedAnalyzeUnderConcurrentIngest checks the equivalence while the
// sharded server's snapshot set is being republished under it: a
// single-shard reference server first records the expected answer for
// every (epoch, query) pair along the ingest sequence, then the sharded
// server replays the same sequence while concurrent readers hammer
// analyze. Every successful response must match the reference answer for
// the epoch it reports — whichever snapshot set the scatter caught.
func TestShardedAnalyzeUnderConcurrentIngest(t *testing.T) {
	const batches = 12

	batchFor := func(i int) []IngestAction {
		user, item := int32(i%2), int32((i+1)%2)
		return []IngestAction{{User: &user, Item: &item, Rating: 3,
			Tags: []string{fmt.Sprintf("cc-%d", i)}}}
	}

	// Phase 1: the single-shard reference, stepped serially.
	ref := newTestServer(t, shardedConfig(1))
	tsRef := httptest.NewServer(ref)
	defer tsRef.Close()
	expected := make(map[int64]map[string]AnalyzeResponse)
	snapshot := func() {
		byQuery := make(map[string]AnalyzeResponse, len(shardEquivalenceQueries))
		var epoch int64
		for _, q := range shardEquivalenceQueries {
			resp := analyzeOK(t, tsRef, q)
			byQuery[q] = resp
			epoch = resp.Epoch
		}
		expected[epoch] = byQuery
	}
	snapshot()
	for i := 0; i < batches; i++ {
		ingestOK(t, tsRef, batchFor(i))
		snapshot()
	}

	// Phase 2: the sharded server replays the sequence under concurrent
	// analyze load.
	sharded := newTestServer(t, shardedConfig(3))
	tsSharded := httptest.NewServer(sharded)
	defer tsSharded.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := shardEquivalenceQueries[(r+i)%len(shardEquivalenceQueries)]
				status, resp := analyze(t, tsSharded, q)
				if status == http.StatusTooManyRequests {
					continue // load shed is a legitimate outcome under pressure
				}
				if status != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d", r, status)
					return
				}
				resp.SolveMillis = 0
				resp.Cached = false
				want, ok := expected[resp.Epoch][q]
				if !ok {
					errs <- fmt.Errorf("reader %d: answer at unknown epoch %d", r, resp.Epoch)
					return
				}
				if !sameAnswer(want, resp) {
					errs <- fmt.Errorf("reader %d: %q at epoch %d diverged from single-shard reference:\nwant %+v\ngot  %+v",
						r, q, resp.Epoch, want, resp)
					return
				}
			}
		}(r)
	}
	for i := 0; i < batches; i++ {
		ingestOK(t, tsSharded, batchFor(i))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShardMetricsCountEveryShard pins the per-shard observability: after
// one uncached analyze on a 2-shard server, every shard's solve counter
// must have moved, and /metrics must expose them under the declared
// shard label set.
func TestShardMetricsCountEveryShard(t *testing.T) {
	s := newTestServer(t, shardedConfig(2))
	ts := httptest.NewServer(s)
	defer ts.Close()

	analyzeOK(t, ts, testQuery)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for shard := 0; shard < 2; shard++ {
		want := fmt.Sprintf(`tagdm_shard_solves_total{shard="%d"} 1`, shard)
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "tagdm_shards 2") {
		t.Fatalf("/metrics missing tagdm_shards gauge:\n%s", text)
	}
	if !strings.Contains(text, "tagdm_pool_workers 8") {
		t.Fatalf("/metrics missing summed pool workers gauge:\n%s", text)
	}
}

// TestQueueFullShedsWithRetryAfter is the 429 load-shed regression test:
// with every worker busy and the queue full, an analyze must be rejected
// with 429 AND a Retry-After header, mirroring the 503 degraded path's
// contract so clients can back off uniformly.
func TestQueueFullShedsWithRetryAfter(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.CacheSize = -1
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the single worker with a job pinned on a channel, then fill
	// the one queue slot, so the next submit must shed. The defer is
	// registered before priming so a failed Fatalf can't wedge pool
	// shutdown on the pinned worker.
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	done := make(chan poolResult[*shardOutcome], 2)
	err := s.pool.submit(context.Background(), done, func(context.Context) (*shardOutcome, error) {
		close(started)
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatalf("occupying worker: %v", err)
	}
	<-started // the worker holds this job; the queue slot is free again
	err = s.pool.submit(context.Background(), done, func(context.Context) (*shardOutcome, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatalf("filling queue: %v", err)
	}

	resp, body := postJSON(t, ts, "/v1/analyze", AnalyzeRequest{Query: testQuery})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 load-shed response without Retry-After")
	}
	if got := s.metrics.rejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestDurableBootAcrossShardCounts pins WAL/checkpoint compatibility: a
// data dir written by a single-shard server must boot under any shard
// count (and back) with byte-identical answers — sharding is serving-tier
// state only and never touches the durability format.
func TestDurableBootAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()

	cfg := durableConfig(testDataset(t), dir)
	cfg.Shards = 1
	s1 := mustNew(t, cfg)
	ts1 := httptest.NewServer(s1)
	user, item := int32(0), int32(1)
	ingestOK(t, ts1, []IngestAction{{User: &user, Item: &item, Rating: 3, Tags: []string{"boot"}}})
	want := solveAll(t, ts1, s1)
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Reboot the same data dir fanned across 3 shards.
	cfg3 := durableConfig(nil, dir)
	cfg3.Shards = 3
	cfg3.CacheSize = -1
	s3 := mustNew(t, cfg3)
	ts3 := httptest.NewServer(s3)
	got := solveAll(t, ts3, s3)
	if !sameAnswer(want.smlsh, got.smlsh) {
		t.Fatalf("SM-LSH diverged after sharded reboot:\nwant %+v\ngot  %+v", want.smlsh, got.smlsh)
	}
	if !sameAnswer(want.dvfdp, got.dvfdp) {
		t.Fatalf("DV-FDP diverged after sharded reboot:\nwant %+v\ngot  %+v", want.dvfdp, got.dvfdp)
	}
	if want.exact != got.exact {
		t.Fatalf("Exact diverged after sharded reboot:\nwant %s\ngot  %s", want.exact, got.exact)
	}
	// Ingest under shards, shut down, and come back to one shard: the
	// sharded server's WAL output must be just as portable.
	ingestOK(t, ts3, []IngestAction{{User: &item, Item: &user, Rating: 4, Tags: []string{"resharded"}}})
	want3 := solveAll(t, ts3, s3)
	ts3.Close()
	if err := s3.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfgBack := durableConfig(nil, dir)
	cfgBack.Shards = 1
	cfgBack.CacheSize = -1
	sBack := mustNew(t, cfgBack)
	tsBack := httptest.NewServer(sBack)
	defer tsBack.Close()
	defer sBack.Close()
	gotBack := solveAll(t, tsBack, sBack)
	if !sameAnswer(want3.smlsh, gotBack.smlsh) || !sameAnswer(want3.dvfdp, gotBack.dvfdp) || want3.exact != gotBack.exact {
		t.Fatalf("answers diverged rebooting 3 shards -> 1 shard:\nwant %+v\ngot  %+v", want3, gotBack)
	}
}
