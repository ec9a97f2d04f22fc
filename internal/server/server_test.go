package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tagdm/internal/model"
)

// testDataset builds a small gender x genre corpus where every (gender,
// genre) combination is an active group: 3 actions per combination at
// threshold 2.
func testDataset(t testing.TB) *model.Dataset {
	t.Helper()
	d := model.NewDataset(model.NewSchema("gender"), model.NewSchema("genre"))
	must := func(id int32, err error) int32 {
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	m := must(d.AddUser(map[string]string{"gender": "male"}))
	f := must(d.AddUser(map[string]string{"gender": "female"}))
	action := must(d.AddItem(map[string]string{"genre": "action"}))
	drama := must(d.AddItem(map[string]string{"genre": "drama"}))
	// Insertion order is fixed so every call builds an identical dataset —
	// vocabulary ids and tuple order included — and answers can be
	// compared across independently built servers.
	tags := []struct {
		pair [2]int32
		tags []string
	}{
		{[2]int32{m, action}, []string{"gun", "explosion", "gun"}},
		{[2]int32{f, action}, []string{"stunt", "gun", "chase"}},
		{[2]int32{m, drama}, []string{"tears", "slow", "acting"}},
		{[2]int32{f, drama}, []string{"acting", "tears", "romance"}},
	}
	for _, e := range tags {
		for _, tag := range e.tags {
			if err := d.AddAction(e.pair[0], e.pair[1], 3, tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Dataset: testDataset(t), MinGroupTuples: 2, Seed: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func analyze(t testing.TB, ts *httptest.Server, query string) (int, AnalyzeResponse) {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/analyze", AnalyzeRequest{Query: query})
	var out AnalyzeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return resp.StatusCode, out
}

func getStats(t testing.TB, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

const testQuery = "ANALYZE PROBLEM 3 WITH k=2, support=2, q=0.1, r=0.1"

func TestAnalyzeEndToEndWithCache(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	status, first := analyze(t, ts, testQuery)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !first.Found {
		t.Fatal("expected a feasible group set")
	}
	if first.Cached {
		t.Fatal("first answer claims to be cached")
	}
	if len(first.Groups) == 0 || first.Groups[0].Description == "" {
		t.Fatalf("groups = %+v", first.Groups)
	}

	// The identical query (modulo whitespace) must come from the cache.
	status, second := analyze(t, ts, "ANALYZE  PROBLEM 3\n WITH k=2, support=2, q=0.1, r=0.1")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !second.Cached {
		t.Fatal("repeat answer not served from cache")
	}
	if second.Epoch != first.Epoch || second.Objective != first.Objective {
		t.Fatalf("cached answer differs: %+v vs %+v", second, first)
	}

	stats := getStats(t, ts)
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", stats.Cache.Hits, stats.Cache.Misses)
	}
	if stats.Solve.Count != 1 {
		t.Fatalf("solves = %d, want 1", stats.Solve.Count)
	}
	// The examined/pruned split is threaded from core.Result: the approximate
	// solver behind this query evaluated candidates (buckets/greedy adds) and
	// pruned nothing — pruning is an Exact-only mechanism.
	if stats.Solve.CandidatesExamined <= 0 {
		t.Fatalf("candidates_examined = %d, want > 0", stats.Solve.CandidatesExamined)
	}
	if stats.Solve.CandidatesPruned != 0 {
		t.Fatalf("candidates_pruned = %d for an approximate solve, want 0", stats.Solve.CandidatesPruned)
	}
	// Problem 3 has a similarity objective, so the solve lands in the
	// SM-LSH family; the per-family breakdown must attribute all the work
	// there and none to the others.
	fam, ok := stats.Solve.Families["smlsh"]
	if !ok {
		t.Fatalf("stats missing smlsh family: %+v", stats.Solve.Families)
	}
	if fam.Count != 1 || fam.CandidatesExamined != stats.Solve.CandidatesExamined {
		t.Fatalf("smlsh family stats = %+v", fam)
	}
	if fam.MatrixBuilds == 0 {
		t.Fatalf("cold solve reports no matrix builds: %+v", fam)
	}
	for _, other := range []string{"exact", "dvfdp"} {
		if f := stats.Solve.Families[other]; f.Count != 0 || f.CandidatesExamined != 0 {
			t.Fatalf("family %s credited with work it did not do: %+v", other, f)
		}
	}
}

func TestAnalyzeScopedWhere(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	status, resp := analyze(t, ts, "ANALYZE PROBLEM 3 WHERE genre=action WITH k=2, support=2, q=0.1, r=0.1")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !resp.Found {
		t.Fatal("expected a feasible set inside the scope")
	}
	for _, g := range resp.Groups {
		if !strings.Contains(g.Description, "genre=action") {
			t.Fatalf("group %q escaped the WHERE scope", g.Description)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400", resp.StatusCode)
	}

	// Empty and unparsable queries.
	for _, q := range []string{"", "   ", "ANALYZE NONSENSE", "SELECT * FROM tags"} {
		if status, _ := analyze(t, ts, q); status != http.StatusBadRequest {
			t.Fatalf("query %q: status = %d, want 400", q, status)
		}
	}

	// Parsable but unresolvable: unknown attribute and empty scope.
	if status, _ := analyze(t, ts, "ANALYZE PROBLEM 1 WHERE nosuch=thing"); status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown attribute: status != 422")
	}
	if status, _ := analyze(t, ts, "ANALYZE PROBLEM 1 WHERE genre=western"); status != http.StatusUnprocessableEntity {
		t.Fatalf("empty scope: status != 422")
	}

	// Wrong method.
	getResp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status = %d, want 405", getResp.StatusCode)
	}
}

func TestIngestInvalidatesCacheAcrossEpochs(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	_, cold := analyze(t, ts, testQuery)
	_, warm := analyze(t, ts, testQuery)
	if !warm.Cached {
		t.Fatal("second query should hit the cache")
	}

	// Ingest two more male-action tuples; every batch publishes a snapshot.
	user, item := int32(0), int32(0)
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &user, Item: &item, Rating: 4, Tags: []string{"gun"}},
		{User: &user, Item: &item, Rating: 5, Tags: []string{"explosion"}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status = %d: %s", resp.StatusCode, body)
	}
	var ing IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Inserted != 2 {
		t.Fatalf("ingest response = %+v", ing)
	}
	if ing.Epoch <= cold.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", cold.Epoch, ing.Epoch)
	}

	// The same query must now re-solve against the new epoch and see the
	// grown corpus.
	_, after := analyze(t, ts, testQuery)
	if after.Cached {
		t.Fatal("query after ingest served stale cache entry")
	}
	if after.Epoch != ing.Epoch {
		t.Fatalf("analyze epoch = %d, want %d", after.Epoch, ing.Epoch)
	}

	stats := getStats(t, ts)
	if stats.Actions != 14 {
		t.Fatalf("actions = %d, want 14", stats.Actions)
	}
}

func TestIngestCreatesEntities(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{
			UserAttrs: map[string]string{"gender": "nonbinary"},
			ItemAttrs: map[string]string{"genre": "documentary"},
			Tags:      []string{"archival"},
		},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ing IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.UsersCreated != 1 || ing.ItemsCreated != 1 || ing.Inserted != 1 {
		t.Fatalf("ingest response = %+v", ing)
	}
	stats := getStats(t, ts)
	if stats.Users != 3 || stats.Items != 3 {
		t.Fatalf("users/items = %d/%d, want 3/3", stats.Users, stats.Items)
	}
}

func TestIngestErrors(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	// Empty batch.
	resp, _ := postJSON(t, ts, "/v1/actions", IngestRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d, want 400", resp.StatusCode)
	}

	// Unknown user id.
	user, item := int32(99), int32(0)
	resp, _ = postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &user, Item: &item, Tags: []string{"x"}},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown user: status = %d, want 400", resp.StatusCode)
	}

	// Both id and attrs.
	resp, _ = postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &item, UserAttrs: map[string]string{"gender": "male"}, Item: &item, Tags: []string{"x"}},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous entity: status = %d, want 400", resp.StatusCode)
	}

	// Neither id nor attrs.
	resp, _ = postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{Item: &item, Tags: []string{"x"}},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing entity: status = %d, want 400", resp.StatusCode)
	}
}

func TestCacheEviction(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, func(c *Config) { c.CacheSize = 2 }))
	defer ts.Close()

	for _, q := range []string{
		"ANALYZE PROBLEM 1 WITH k=2, support=2, q=0.1, r=0.1",
		"ANALYZE PROBLEM 2 WITH k=2, support=2, q=0.1, r=0.1",
		"ANALYZE PROBLEM 3 WITH k=2, support=2, q=0.1, r=0.1",
	} {
		if status, _ := analyze(t, ts, q); status != http.StatusOK {
			t.Fatalf("query %q: status = %d", q, status)
		}
	}
	stats := getStats(t, ts)
	if stats.Cache.Size != 2 {
		t.Fatalf("cache size = %d, want 2", stats.Cache.Size)
	}
	if stats.Cache.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", stats.Cache.Evictions)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	analyze(t, ts, testQuery)
	pt := scrapeMetrics(t, ts)
	for _, want := range []struct {
		name  string
		kv    []string
		value float64
	}{
		{"tagdm_requests_total", []string{"endpoint", "analyze"}, 1},
		{"tagdm_cache_misses_total", nil, 1},
		{"tagdm_solves_total", []string{"family", "smlsh"}, 1},
		{"tagdm_solves_total", []string{"family", "exact"}, 0},
		{"tagdm_snapshot_epoch", nil, 0},
		{"tagdm_solve_latency_seconds_count", []string{"family", "smlsh"}, 1},
		{"tagdm_groups", nil, 4},
		{"tagdm_solve_stage_seconds_count", []string{"family", "smlsh", "stage", "matrix"}, 1},
		{"tagdm_solve_stage_seconds_count", []string{"family", "smlsh", "stage", "lsh_build"}, 1},
		{"tagdm_solve_stage_seconds_count", []string{"family", "smlsh", "stage", "bucket_scan"}, 1},
		{"tagdm_solve_stage_seconds_count", []string{"family", "smlsh", "stage", "total"}, 1},
		{"tagdm_solve_stage_seconds_count", []string{"family", "exact", "stage", "enumerate"}, 0},
	} {
		got, ok := pt.Sample(want.name, want.kv...)
		if !ok {
			t.Fatalf("metrics missing sample %s %v", want.name, want.kv)
		}
		if got != want.value {
			t.Fatalf("%s%v = %g, want %g", want.name, want.kv, got, want.value)
		}
	}
}

// TestConcurrentIngestAndAnalyze interleaves streaming ingest with analyze
// and stats traffic; run with -race to verify the epoch/snapshot scheme
// actually isolates readers from the writer.
func TestConcurrentIngestAndAnalyze(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, func(c *Config) { c.Workers = 4 }))
	defer ts.Close()

	const (
		writers = 2
		readers = 4
		rounds  = 15
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				user, item := int32(i%2), int32((i+w)%2)
				resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
					{User: &user, Item: &item, Rating: 3, Tags: []string{fmt.Sprintf("tag-%d-%d", w, i)}},
				}})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d: status %d: %s", w, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	queries := []string{
		testQuery,
		"ANALYZE PROBLEM 1 WITH k=2, support=2, q=0.1, r=0.1",
		"ANALYZE MAXIMIZE diversity(tags) SUBJECT TO similarity(items) >= 0.1 WITH k=2",
		"ANALYZE PROBLEM 3 WHERE genre=action WITH k=2, support=2, q=0.1, r=0.1",
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				status, _ := analyze(t, ts, queries[(r+i)%len(queries)])
				if status != http.StatusOK && status != http.StatusTooManyRequests {
					errs <- fmt.Errorf("reader %d: status %d", r, status)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			getStats(t, ts)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every acknowledged batch published, so the totals must line up
	// exactly.
	stats := getStats(t, ts)
	if want := 12 + writers*rounds; stats.Actions != want {
		t.Fatalf("actions = %d, want %d", stats.Actions, want)
	}
}

func TestCanonicalQueryPreservesQuotedWhitespace(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ANALYZE  PROBLEM 1\n WITH k=2", "ANALYZE PROBLEM 1 WITH k=2"},
		{"  ANALYZE PROBLEM 1  ", "ANALYZE PROBLEM 1"},
		{"ANALYZE PROBLEM 1 WHERE state='new  york'", "ANALYZE PROBLEM 1 WHERE state='new  york'"},
		{"ANALYZE PROBLEM 1  WHERE  state='new york'", "ANALYZE PROBLEM 1 WHERE state='new york'"},
	}
	for _, c := range cases {
		if got := canonicalQuery(c.in); got != c.want {
			t.Errorf("canonicalQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Queries differing only inside quotes must NOT share a cache key.
	a := canonicalQuery("ANALYZE PROBLEM 1 WHERE state='new  york'")
	b := canonicalQuery("ANALYZE PROBLEM 1 WHERE state='new york'")
	if a == b {
		t.Fatalf("distinct quoted values conflated: %q", a)
	}
}

func TestConfigClampsNonsenseValues(t *testing.T) {
	// Negative pool/queue/timeout values must fall back to defaults
	// instead of panicking at startup.
	s, err := New(Config{Dataset: testDataset(t), MinGroupTuples: 2, Workers: -1, QueueDepth: -1, SolveTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cfg.Workers != 4 || s.cfg.QueueDepth != 64 {
		t.Fatalf("clamped config = %+v", s.cfg)
	}
}

func TestBadBatchRejectedAtomically(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	version := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.maint.Version()
	}
	v0, epoch0 := version(), s.Epoch()

	// The third action is invalid: the whole batch must be rejected with
	// zero side effects — no applied prefix, no publish, no leaked entity
	// creations. (Atomic batches are what make WAL replay sound: every
	// logged record is a fully-applied batch.)
	good, bad, item := int32(0), int32(99), int32(0)
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &good, Item: &item, Tags: []string{"x"}},
		{UserAttrs: map[string]string{"gender": "other"}, Item: &item, Tags: []string{"y"}},
		{User: &bad, Item: &item, Tags: []string{"z"}},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	if v := version(); v != v0 {
		t.Fatalf("maintainer version %d -> %d (batch must not partially apply)", v0, v)
	}
	stats := getStats(t, ts)
	if stats.Epoch != epoch0 {
		t.Fatalf("epoch %d -> %d (rejected batch published)", epoch0, stats.Epoch)
	}
	if stats.Ingest.Actions != 0 {
		t.Fatalf("ingested metric = %d, want 0", stats.Ingest.Actions)
	}
	if stats.Users != 2 {
		t.Fatalf("users = %d, want 2 (rejected batch leaked an entity creation)", stats.Users)
	}
}

// TestBatchValidationSimulatesInBatchCreation: a later action may reference
// an entity an earlier action of the same batch creates.
func TestBatchValidationSimulatesInBatchCreation(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil))
	defer ts.Close()

	newUser, item := int32(2), int32(0) // testDataset has users 0,1
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{UserAttrs: map[string]string{"gender": "other"}, Item: &item, Tags: []string{"x"}},
		{User: &newUser, Item: &item, Tags: []string{"y"}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

// deterministicDataset is testDataset with a fixed action insertion order
// (testDataset ranges over a map, so two calls produce different tag-id
// orders — fine for single-server tests, fatal for cross-server
// comparisons of LSH-seeded answers).
func deterministicDataset(t testing.TB) *model.Dataset {
	t.Helper()
	d := model.NewDataset(model.NewSchema("gender"), model.NewSchema("genre"))
	must := func(id int32, err error) int32 {
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	m := must(d.AddUser(map[string]string{"gender": "male"}))
	f := must(d.AddUser(map[string]string{"gender": "female"}))
	action := must(d.AddItem(map[string]string{"genre": "action"}))
	drama := must(d.AddItem(map[string]string{"genre": "drama"}))
	for _, a := range []struct {
		user, item int32
		tags       []string
	}{
		{m, action, []string{"gun", "explosion", "gun"}},
		{f, action, []string{"stunt", "gun", "chase"}},
		{m, drama, []string{"tears", "slow", "acting"}},
		{f, drama, []string{"acting", "tears", "romance"}},
	} {
		for _, tag := range a.tags {
			if err := d.AddAction(a.user, a.item, 3, tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func TestPrewarmMatricesMatchesColdResults(t *testing.T) {
	cold := httptest.NewServer(newTestServer(t, func(c *Config) {
		c.Dataset = deterministicDataset(t)
	}))
	defer cold.Close()
	warm := httptest.NewServer(newTestServer(t, func(c *Config) {
		c.Dataset = deterministicDataset(t)
		c.PrewarmMatrices = true
	}))
	defer warm.Close()

	status, coldResp := analyze(t, cold, testQuery)
	if status != http.StatusOK {
		t.Fatalf("cold analyze status %d", status)
	}
	status, warmResp := analyze(t, warm, testQuery)
	if status != http.StatusOK {
		t.Fatalf("warm analyze status %d", status)
	}
	if warmResp.Found != coldResp.Found || warmResp.Objective != coldResp.Objective ||
		warmResp.Support != coldResp.Support || len(warmResp.Groups) != len(coldResp.Groups) {
		t.Fatalf("prewarmed answer diverged: %+v vs %+v", warmResp, coldResp)
	}

	// A published epoch after ingest must also prewarm and keep answering.
	user, item := int32(0), int32(0)
	resp, body := postJSON(t, warm, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &user, Item: &item, Tags: []string{"gun"}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	status, after := analyze(t, warm, testQuery)
	if status != http.StatusOK || after.Epoch == warmResp.Epoch {
		t.Fatalf("post-ingest analyze status %d epoch %d (want new epoch)", status, after.Epoch)
	}
}
