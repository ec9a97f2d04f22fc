package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMatrixAccountingAcrossShards pins the outcome-partition invariant on
// the served path: over any number of scattered analyzes, builds +
// rebuilds + hits + lazy must equal the bindings touched (solves × shards
// × spec bindings), while physical materializations — builds plus
// rebuilds — stay bounded by the distinct bindings, because every shard's
// partial scores through the published engine's one matrix cache.
func TestMatrixAccountingAcrossShards(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, func(c *Config) {
		c.Shards = 2
		c.CacheSize = -1 // disable the analyze cache so every request solves
	}))
	defer ts.Close()

	const solves = 3
	for i := 0; i < solves; i++ {
		status, res := analyze(t, ts, testQuery)
		if status != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, status)
		}
		if !res.Found {
			t.Fatalf("solve %d: null result", i)
		}
	}

	stats := getStats(t, ts)
	fam := stats.Solve.Families["smlsh"]
	// The paper problems bind 2 constraints + 1 objective; each shard
	// partial scores all three.
	const bindings = 3
	touched := int64(solves * 2 * bindings)
	total := fam.MatrixBuilds + fam.MatrixRebuilds + fam.MatrixHits + fam.MatrixLazy
	if total != touched {
		t.Fatalf("builds %d + rebuilds %d + hits %d + lazy %d = %d, want %d bindings touched",
			fam.MatrixBuilds, fam.MatrixRebuilds, fam.MatrixHits, fam.MatrixLazy, total, touched)
	}
	if physical := fam.MatrixBuilds + fam.MatrixRebuilds; physical > bindings {
		t.Fatalf("%d physical builds for %d distinct bindings — shard builds double-counted",
			physical, bindings)
	}
}

// TestScopedAnalyzeBuildsMatricesOnce pins that a WHERE query's scoped
// engine is built once per request and shared by all of its partials: a
// scoped DV-FDP analyze must add as much to tagdm_matrix_builds_total on a
// 3-shard server as on a 1-shard one. A scoped engine per shard would
// build every binding once per shard.
func TestScopedAnalyzeBuildsMatricesOnce(t *testing.T) {
	const q = "ANALYZE PROBLEM 4 WHERE genre=action WITH k=2, support=2, q=0.1, r=0.1"
	builds := func(shards int) float64 {
		ts := httptest.NewServer(newTestServer(t, shardedConfig(shards)))
		defer ts.Close()
		before := matrixBuildsTotal(t, ts)
		if res := analyzeOK(t, ts, q); res.Algorithm == "" {
			t.Fatalf("%d shards: scoped analyze ran no solver: %+v", shards, res)
		}
		return matrixBuildsTotal(t, ts) - before
	}
	one, three := builds(1), builds(3)
	if one == 0 {
		t.Fatal("scoped analyze built no matrices; nothing to compare")
	}
	if three != one {
		t.Fatalf("scoped analyze built %v matrices on 3 shards, %v on 1 shard", three, one)
	}
}

// matrixBuildsTotal sums tagdm_matrix_builds_total over solver families.
func matrixBuildsTotal(t *testing.T, ts *httptest.Server) float64 {
	t.Helper()
	pt := scrapeMetrics(t, ts)
	var total float64
	for _, fam := range solverFamilies {
		v, ok := pt.Sample("tagdm_matrix_builds_total", "family", fam)
		if !ok {
			t.Fatalf("/metrics has no tagdm_matrix_builds_total{family=%q}", fam)
		}
		total += v
	}
	return total
}

// TestMatrixBudgetServedAndExported wires Config.MatrixBudgetBytes end to
// end: answers must match an unbudgeted server bit for bit, /v1/stats
// and /metrics must expose the cache's residency and eviction counters,
// and a negative budget must be reported as the unlimited 0 it acts as.
func TestMatrixBudgetServedAndExported(t *testing.T) {
	ref := httptest.NewServer(newTestServer(t, func(c *Config) { c.Shards = 2 }))
	defer ref.Close()
	budgeted := httptest.NewServer(newTestServer(t, func(c *Config) {
		c.Shards = 2
		c.MatrixBudgetBytes = 64 // below one matrix at this corpus size
	}))
	defer budgeted.Close()

	for _, q := range []string{
		"ANALYZE PROBLEM 1 WITH k=2, support=2, q=0.1, r=0.1",
		testQuery,
	} {
		sWant, want := analyze(t, ref, q)
		sGot, got := analyze(t, budgeted, q)
		if sWant != http.StatusOK || sGot != http.StatusOK {
			t.Fatalf("%s: status %d vs %d", q, sGot, sWant)
		}
		if want.Found != got.Found || want.Objective != got.Objective {
			t.Fatalf("%s: budgeted answer diverged: %+v vs %+v", q, got, want)
		}
	}

	stats := getStats(t, budgeted)
	if stats.Matrix.BudgetBytes != 64 {
		t.Fatalf("stats budget = %d", stats.Matrix.BudgetBytes)
	}
	if stats.Matrix.Bytes > 64 && stats.Matrix.Entries > 1 {
		t.Fatalf("budget not enforced: %+v", stats.Matrix)
	}

	resp, err := http.Get(budgeted.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"tagdm_matrix_bytes",
		"tagdm_matrix_evictions_total",
		"tagdm_matrix_rebuilds_total",
		"tagdm_matrix_lazy_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}

	// Evictions are counted in the maintainer's carry, which every
	// epoch's engine shares, so the exported counter must not drop when a
	// publish installs a fresh engine cache.
	last := -1.0
	notDropped := func(when string) {
		t.Helper()
		got, ok := scrapeMetrics(t, budgeted).Sample("tagdm_matrix_evictions_total")
		if !ok || got < last {
			t.Fatalf("%s: tagdm_matrix_evictions_total = %g (ok=%v), was %g", when, got, ok, last)
		}
		last = got
	}
	notDropped("before ingest")
	if last == 0 {
		t.Fatal("a 64-byte budget evicted nothing")
	}
	user, item := int32(0), int32(0)
	for publish := 1; publish <= 2; publish++ {
		resp, body := postJSON(t, budgeted, "/v1/actions", IngestRequest{Actions: []IngestAction{{
			User: &user, Item: &item, Tags: []string{"gun"},
		}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
		notDropped(fmt.Sprintf("publish %d", publish))
		analyze(t, budgeted, testQuery)
		notDropped(fmt.Sprintf("analyze after publish %d", publish))
	}

	negative := httptest.NewServer(newTestServer(t, func(c *Config) { c.MatrixBudgetBytes = -5 }))
	defer negative.Close()
	if got := getStats(t, negative).Matrix.BudgetBytes; got != 0 {
		t.Fatalf("negative budget reported as %d, want 0 (unlimited)", got)
	}
}

// TestIngestCarriesMatricesAcrossEpochs drives ingest through several
// publishes with prewarm on and asserts later epochs serve via dirty-row
// rebuilds rather than scratch builds — the serving-tier face of the epoch
// carry-over.
func TestIngestCarriesMatricesAcrossEpochs(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, func(c *Config) {
		c.CacheSize = -1
	}))
	defer ts.Close()

	if status, _ := analyze(t, ts, testQuery); status != http.StatusOK {
		t.Fatalf("cold analyze status %d", status)
	}
	// One insert → one publish: the new epoch's engine carries the
	// previous epoch's matrices with one dirty group set.
	user, item := int32(0), int32(0)
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{{
		User: &user, Item: &item, Tags: []string{"gun"},
	}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	if status, _ := analyze(t, ts, testQuery); status != http.StatusOK {
		t.Fatalf("post-ingest analyze status %d", status)
	}

	stats := getStats(t, ts)
	fam := stats.Solve.Families["smlsh"]
	if fam.MatrixRebuilds == 0 && fam.MatrixBuilds > 3 {
		t.Fatalf("second epoch rebuilt from scratch: %+v", fam)
	}
}
