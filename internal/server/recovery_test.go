package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/model"
	"tagdm/internal/wal"
)

// durableConfig is the recovery-test baseline: every acknowledged batch is
// fsync'd before the ack (no background timing), and checkpoints happen
// only when a test asks for one.
func durableConfig(ds *model.Dataset, dir string) Config {
	return Config{
		Dataset:         ds,
		DataDir:         dir,
		MinGroupTuples:  2,
		Seed:            1,
		FsyncMode:       wal.SyncAlways,
		CheckpointEvery: -1, // manual checkpoints only
	}
}

func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stateFP fingerprints everything recovery must reproduce exactly: the
// epoch, the store contents in insert order (posting lists are derived
// from these deterministically), the entity tables, and the active groups
// in ID order (solver tie-breaking depends on that order).
type stateFP struct {
	epoch        int64
	users, items int
	tuples       string
	activeKeys   string
}

func serverFP(s *Server) stateFP {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.maint.Store()
	var b strings.Builder
	for i := 0; i < st.Len(); i++ {
		fmt.Fprintf(&b, "%d/%d/%v/%v;", st.TupleUser(i), st.TupleItem(i), st.TupleRating(i), st.TupleTags(i))
	}
	return stateFP{
		epoch:      s.maint.Version(),
		users:      len(s.ds.Users),
		items:      len(s.ds.Items),
		tuples:     b.String(),
		activeKeys: strings.Join(s.maint.ActiveKeys(), "|"),
	}
}

func ingestOK(t testing.TB, ts *httptest.Server, actions []IngestAction) IngestResponse {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: actions})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var out IngestResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return out
}

// copyDir copies the regular files of a data dir (no subdirectories are
// ever created by the durability layer).
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// frameEnds returns the byte offset just past each complete WAL frame:
// the offsets at which a crash leaves exactly 1, 2, ... records durable.
// The layout is pinned by the WAL format: [u32 len][u32 crc][data].
func frameEnds(data []byte) []int {
	var ends []int
	pos := 0
	for pos+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		if pos+8+n > len(data) {
			break
		}
		pos += 8 + n
		ends = append(ends, pos)
	}
	return ends
}

func walSegments(t testing.TB, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestDurableRecoveryKillAtEveryOffset is the acceptance property test:
// truncate the WAL tail at EVERY byte offset — simulating a kill -9 whose
// last write stopped there — and require that a fresh boot (a) never
// fails, and (b) reconstructs a state byte-identical to the live server
// right after the last batch that survived in full: same epoch, same
// tuples, same entity tables, same active groups, and (checked once per
// distinct surviving prefix) the same solver answers.
func TestDurableRecoveryKillAtEveryOffset(t *testing.T) {
	base := t.TempDir()
	src := filepath.Join(base, "src")
	s := mustNew(t, durableConfig(deterministicDataset(t), src))
	ts := httptest.NewServer(s)

	u0, u1, u2 := int32(0), int32(1), int32(2)
	i0, i1, i2 := int32(0), int32(1), int32(2)
	batches := [][]IngestAction{
		{{User: &u0, Item: &i0, Tags: []string{"gun"}}},
		{{User: &u1, Item: &i1, Tags: []string{"romance"}},
			{User: &u0, Item: &i1, Tags: []string{"tears"}}},
		{{UserAttrs: map[string]string{"gender": "female"},
			ItemAttrs: map[string]string{"genre": "horror"},
			Tags:      []string{"blood"}}},
		{{User: &u1, Item: &i0, Tags: []string{"chase", "gun"}}},
		{{User: &u2, Item: &i2, Tags: []string{"blood", "scream"}}},
		{{User: &u0, Item: &i0, Rating: 5, Tags: []string{"explosion"}}},
	}
	const ckptAfter = 3 // batches covered by the mid-run checkpoint

	// markers[i] is the state after batch i; markers[0] is the seed.
	// Answers cover all three solver families: PROBLEM 3 dispatches to
	// SM-LSH, PROBLEM 4 (diversity objective) to DV-FDP, and the Exact
	// solver runs directly against the published snapshot engine.
	markers := []stateFP{serverFP(s)}
	answers := []solveAnswers{solveAll(t, ts, s)}
	for i, b := range batches {
		ingestOK(t, ts, b)
		if i+1 == ckptAfter {
			if err := s.Checkpoint(context.Background()); err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
		markers = append(markers, serverFP(s))
		answers = append(answers, solveAll(t, ts, s))
	}
	ts.Close()
	s.Close()

	// The mid-run checkpoint rotated and pruned: one tail segment holds
	// the batches after it.
	segs := walSegments(t, src)
	if len(segs) != 1 {
		t.Fatalf("want one tail segment after checkpoint, got %v", segs)
	}
	tail, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(tail)
	if want := len(batches) - ckptAfter; len(ends) != want {
		t.Fatalf("tail has %d frames, want %d", len(ends), want)
	}

	solved := map[int]bool{}
	for cut := 0; cut <= len(tail); cut++ {
		k := 0
		for _, e := range ends {
			if e <= cut {
				k++
			}
		}
		dir := filepath.Join(base, fmt.Sprintf("cut-%04d", cut))
		copyDir(t, src, dir)
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), tail[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		cfg := durableConfig(nil, dir) // boot from disk alone
		b, err := New(cfg)
		if err != nil {
			t.Fatalf("cut %d: boot failed: %v", cut, err)
		}
		rec := b.Recovery()
		if !rec.Recovered || rec.CheckpointSeq != ckptAfter {
			t.Fatalf("cut %d: recovery %+v, want checkpoint seq %d", cut, rec, ckptAfter)
		}
		if rec.ReplayedRecords != k {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, rec.ReplayedRecords, k)
		}
		if wantTorn := int64(cut) - int64(endsBefore(ends, cut)); rec.TornTailBytes != wantTorn {
			t.Fatalf("cut %d: torn %d bytes, want %d", cut, rec.TornTailBytes, wantTorn)
		}
		if got, want := serverFP(b), markers[ckptAfter+k]; got != want {
			t.Fatalf("cut %d (%d replayed): state diverged:\n got %+v\nwant %+v", cut, k, got, want)
		}
		if !solved[k] {
			solved[k] = true
			bts := httptest.NewServer(b)
			got := solveAll(t, bts, b)
			want := answers[ckptAfter+k]
			if !sameAnswer(got.smlsh, want.smlsh) {
				t.Fatalf("cut %d: SM-LSH answer diverged:\n got %+v\nwant %+v", cut, got.smlsh, want.smlsh)
			}
			if !sameAnswer(got.dvfdp, want.dvfdp) {
				t.Fatalf("cut %d: DV-FDP answer diverged:\n got %+v\nwant %+v", cut, got.dvfdp, want.dvfdp)
			}
			if got.exact != want.exact {
				t.Fatalf("cut %d: Exact answer diverged:\n got %s\nwant %s", cut, got.exact, want.exact)
			}
			bts.Close()
		}
		b.Close()
	}
	if len(solved) != len(batches)-ckptAfter+1 {
		t.Fatalf("solver compared for %d prefixes, want %d", len(solved), len(batches)-ckptAfter+1)
	}
}

func endsBefore(ends []int, cut int) int {
	last := 0
	for _, e := range ends {
		if e <= cut {
			last = e
		}
	}
	return last
}

func analyzeOK(t testing.TB, ts *httptest.Server, query string) AnalyzeResponse {
	t.Helper()
	status, resp := analyze(t, ts, query)
	if status != http.StatusOK {
		t.Fatalf("analyze status %d", status)
	}
	resp.SolveMillis = 0 // timing is the one legitimately varying field
	resp.Cached = false
	return resp
}

// dvfdpTestQuery has a diversity objective on the tag dimension, so it
// dispatches to the DV-FDP family (testQuery's PROBLEM 3 goes to SM-LSH).
const dvfdpTestQuery = "ANALYZE PROBLEM 4 WITH k=2, support=2, q=0.1, r=0.1"

// solveAnswers captures one answer per solver family for cross-boot
// comparison.
type solveAnswers struct {
	smlsh, dvfdp AnalyzeResponse
	exact        string
}

func solveAll(t testing.TB, ts *httptest.Server, s *Server) solveAnswers {
	t.Helper()
	return solveAnswers{
		smlsh: analyzeOK(t, ts, testQuery),
		dvfdp: analyzeOK(t, ts, dvfdpTestQuery),
		exact: exactFP(t, s),
	}
}

// exactFP runs the Exact solver against the published snapshot engine and
// fingerprints the result (the HTTP dispatch never routes to Exact, so the
// recovery guarantee for it is checked at the engine level).
func exactFP(t testing.TB, s *Server) string {
	t.Helper()
	spec, err := core.PaperProblem(3, 2, 2, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.snap.Load()
	res, err := snap.Engine.Exact(context.Background(), spec, core.ExactOptions{})
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v/%v/%d;", res.Found, res.Objective, res.Support)
	for _, g := range res.Groups {
		fmt.Fprintf(&b, "%d:%d:%s;", g.ID, g.Size(), g.Describe(snap.Store))
	}
	return b.String()
}

func sameAnswer(a, b AnalyzeResponse) bool {
	if a.Found != b.Found || a.Objective != b.Objective || a.Support != b.Support ||
		a.Epoch != b.Epoch || a.Algorithm != b.Algorithm || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	return true
}

// TestDurableShutdownBootsWithoutReplay pins the graceful-exit contract:
// Shutdown writes a final checkpoint, so the next boot replays nothing and
// still reproduces the exact state.
func TestDurableShutdownBootsWithoutReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, durableConfig(deterministicDataset(t), dir))
	ts := httptest.NewServer(s)
	u0, i0 := int32(0), int32(0)
	ingestOK(t, ts, []IngestAction{{User: &u0, Item: &i0, Tags: []string{"gun"}}})
	ts.Close()
	want := serverFP(s)
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	b := mustNew(t, durableConfig(nil, dir))
	defer b.Close()
	rec := b.Recovery()
	if !rec.Recovered || rec.ReplayedRecords != 0 || rec.TornTailBytes != 0 {
		t.Fatalf("boot after graceful shutdown replayed: %+v", rec)
	}
	if got := serverFP(b); got != want {
		t.Fatalf("state diverged after graceful shutdown:\n got %+v\nwant %+v", got, want)
	}
}

// TestFsyncFailureDegradesToReadOnly drives an injected fsync failure
// through the full serving stack: the failing batch is refused with 503,
// the server latches sticky read-only mode visible in /healthz, /v1/stats
// and /metrics, and analyses keep serving the last durable snapshot.
func TestFsyncFailureDegradesToReadOnly(t *testing.T) {
	ffs := wal.NewFaultFS(wal.OSFS{})
	cfg := durableConfig(deterministicDataset(t), t.TempDir())
	cfg.WALFS = ffs
	s := mustNew(t, cfg)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	u0, i0 := int32(0), int32(0)
	act := []IngestAction{{User: &u0, Item: &i0, Tags: []string{"gun"}}}
	ingestOK(t, ts, act) // healthy baseline
	preEpoch := analyzeOK(t, ts, testQuery).Epoch

	ffs.ArmSyncFault(0)
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: act})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during fsync failure: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Degradation is sticky: the disk works again, writes stay refused.
	ffs.Disarm()
	if resp, _ := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: act}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after disarm: status %d, want sticky 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/refresh", struct{}{}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refresh while degraded: status %d, want 503", resp.StatusCode)
	}
	if err := s.Checkpoint(context.Background()); err == nil {
		t.Fatal("checkpoint while degraded must refuse")
	}

	// Reads keep working against the last durable snapshot.
	if got := analyzeOK(t, ts, testQuery); got.Epoch != preEpoch {
		t.Fatalf("analyze epoch moved while degraded: %d vs %d", got.Epoch, preEpoch)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health["status"] != "degraded" || health["mode"] != "read-only" || health["reason"] == "" {
		t.Fatalf("healthz while degraded: %v", health)
	}

	stats := getStats(t, ts)
	if !stats.Durability.Degraded || stats.Durability.Reason == "" {
		t.Fatalf("stats do not report degradation: %+v", stats.Durability)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	mbody := string(raw)
	mr.Body.Close()
	for _, want := range []string{"tagdm_durability_degraded 1", "tagdm_durability_degradations_total 1"} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

// TestShortWriteLeavesRecoverableTail injects a short write mid-frame: the
// client gets 503 for the batch that never became durable, and a reboot on
// the same directory truncates the torn bytes and recovers exactly the
// acknowledged batches.
func TestShortWriteLeavesRecoverableTail(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS{})
	cfg := durableConfig(deterministicDataset(t), dir)
	cfg.WALFS = ffs
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s)

	u0, u1, i0 := int32(0), int32(1), int32(0)
	ingestOK(t, ts, []IngestAction{{User: &u0, Item: &i0, Tags: []string{"gun"}}})
	ingestOK(t, ts, []IngestAction{{User: &u1, Item: &i0, Tags: []string{"chase"}}})
	want := serverFP(s)

	ffs.ArmWriteFault(4, true) // 4 bytes of the next frame reach disk
	resp, _ := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &u0, Item: &i0, Tags: []string{"lost"}}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("short-written batch acked with status %d", resp.StatusCode)
	}
	ts.Close()
	s.Close()

	b := mustNew(t, durableConfig(nil, dir))
	defer b.Close()
	rec := b.Recovery()
	if rec.TornTailBytes != 4 {
		t.Fatalf("torn tail %d bytes, want 4", rec.TornTailBytes)
	}
	if rec.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want the 2 acknowledged ones", rec.ReplayedRecords)
	}
	// The torn batch was applied to the crashed server's memory before the
	// WAL refused it, but it was never acknowledged; recovery must land on
	// the pre-batch state, not the crashed server's final in-memory state.
	got := serverFP(b)
	if got != want {
		t.Fatalf("state diverged after torn-tail recovery:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentIngestDuringCheckpoint runs ingest, checkpoints and
// analyses concurrently (meaningful under -race), then verifies a reboot
// reproduces every acknowledged insert.
func TestConcurrentIngestDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, durableConfig(deterministicDataset(t), dir))
	ts := httptest.NewServer(s)

	const writers, perWriter = 3, 20
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u, i := int32(w%2), int32(w%2)
			for n := 0; n < perWriter; n++ {
				out := ingestOK(t, ts, []IngestAction{{User: &u, Item: &i, Tags: []string{"gun"}}})
				inserted.Add(int64(out.Inserted))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 8; n++ {
			if err := s.Checkpoint(context.Background()); err != nil {
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 10; n++ {
			analyzeOK(t, ts, testQuery)
		}
	}()
	wg.Wait()
	ts.Close()
	want := serverFP(s)
	s.Close()

	b := mustNew(t, durableConfig(nil, dir))
	defer b.Close()
	got := serverFP(b)
	if got != want {
		t.Fatalf("recovered state diverged after concurrent checkpointing:\n got %+v\nwant %+v", got, want)
	}
	wantTuples := int64(12) + inserted.Load() // 12 seed actions
	b.mu.Lock()
	n := b.maint.Store().Len()
	b.mu.Unlock()
	if int64(n) != wantTuples {
		t.Fatalf("recovered %d tuples, want %d", n, wantTuples)
	}
}

// TestBodyCaps pins the 413 behavior of both POST endpoints.
func TestBodyCaps(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxIngestBytes = 128
		c.MaxAnalyzeBytes = 64
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	u0, i0 := int32(0), int32(0)
	big := make([]IngestAction, 0, 16)
	for n := 0; n < 16; n++ {
		big = append(big, IngestAction{User: &u0, Item: &i0, Tags: []string{"gun"}})
	}
	resp, body := postJSON(t, ts, "/v1/actions", IngestRequest{Actions: big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/actions", IngestRequest{Actions: []IngestAction{
		{User: &u0, Item: &i0, Tags: []string{"gun"}}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small ingest under cap: status %d: %s", resp.StatusCode, body)
	}

	long := testQuery + " WHERE gender=" + strings.Repeat("x", 128)
	resp, body = postJSON(t, ts, "/v1/analyze", AnalyzeRequest{Query: long})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized analyze: status %d: %s", resp.StatusCode, body)
	}
	if status, _ := analyze(t, ts, testQuery); status != http.StatusOK {
		t.Fatalf("small analyze under cap: status %d", status)
	}
}

// BenchmarkIngestDurable measures the serving-path cost of one durable
// ingest batch against the in-memory baseline: the price of crash safety
// is the WAL append + fsync on the ack path. The parallel variant runs two
// writers and reports how many appends each fsync served: above 1 means
// ingests that arrive during another's write+fsync share the next one.
func BenchmarkIngestDurable(b *testing.B) {
	start := func(b *testing.B, durable bool, mode wal.SyncMode) *httptest.Server {
		cfg := Config{Dataset: testDataset(b), MinGroupTuples: 2, Seed: 1,
			RefreshEvery: 1 << 30} // isolate the ingest path from snapshot publication
		if durable {
			cfg.DataDir = b.TempDir()
			cfg.FsyncMode = mode
			cfg.CheckpointEvery = -1
		}
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		b.Cleanup(ts.Close)
		return ts
	}
	u0, i0 := int32(0), int32(0)
	batch := IngestRequest{Actions: []IngestAction{{User: &u0, Item: &i0, Tags: []string{"gun"}}}}
	bench := func(b *testing.B, durable bool, mode wal.SyncMode) {
		ts := start(b, durable, mode)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, body := postJSON(b, ts, "/v1/actions", batch)
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		}
	}
	b.Run("memory", func(b *testing.B) { bench(b, false, 0) })
	b.Run("durable-fsync-always", func(b *testing.B) { bench(b, true, wal.SyncAlways) })
	b.Run("durable-fsync-always-parallel", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // two writers
		ts := start(b, true, wal.SyncAlways)
		raw, err := json.Marshal(batch)
		if err != nil {
			b.Fatal(err)
		}
		before := getStats(b, ts).Durability
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := http.Post(ts.URL+"/v1/actions", "application/json", bytes.NewReader(raw))
				if err != nil {
					b.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
			}
		})
		b.StopTimer()
		after := getStats(b, ts).Durability
		if fsyncs := after.WALFsyncs - before.WALFsyncs; fsyncs > 0 {
			b.ReportMetric(float64(after.WALAppends-before.WALAppends)/float64(fsyncs), "appends/fsync")
		}
	})
	b.Run("durable-fsync-interval", func(b *testing.B) { bench(b, true, wal.SyncInterval) })
	b.Run("durable-fsync-none", func(b *testing.B) { bench(b, true, wal.SyncNone) })
}
