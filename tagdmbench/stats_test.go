package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/obs"
	"tagdm/internal/store"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// 100 samples, 6 failed: p95 must land on a failure, p50 must not.
	var xs []float64
	for i := 1; i <= 94; i++ {
		xs = append(xs, float64(i))
	}
	for i := 0; i < 6; i++ {
		xs = append(xs, math.Inf(1))
	}
	if got := percentile(append([]float64(nil), xs...), 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with 6%% failures = %v, want +Inf", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestRunOpenSerializesIngestsInScheduleOrder pins the open-loop
// load generator's single writer: with every arrival due at once on two
// connections, ingests reach the server one at a time and in schedule
// order, while analyses still use both connections.
func TestRunOpenSerializesIngestsInScheduleOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	var inflight, maxInflight, total, maxTotal atomic.Int32
	peak := func(n int32, max *atomic.Int32) {
		for m := max.Load(); n > m && !max.CompareAndSwap(m, n); m = max.Load() {
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		peak(total.Add(1), &maxTotal)
		defer total.Add(-1)
		if r.URL.Path == "/v1/actions" {
			peak(inflight.Add(1), &maxInflight)
			defer inflight.Add(-1)
			mu.Lock()
			order = append(order, string(body))
			mu.Unlock()
		}
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	clients := newClients(2, 5*time.Second)
	defer closeClients(clients)
	var ops []op
	var want []string
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf("%d", i)
		ops = append(ops, op{ingest: i%3 != 0, body: []byte(body)})
		if i%3 != 0 {
			want = append(want, body)
		}
	}
	sched := make([]time.Duration, len(ops))
	res := runOpen(&load{clients: clients, base: srv.URL}, ops, sched, time.Minute)
	for i, r := range res {
		if r.failed || r.latency < 2*time.Millisecond {
			t.Fatalf("arrival %d: failed=%v latency=%v", i, r.failed, r.latency)
		}
	}
	if got := maxInflight.Load(); got != 1 {
		t.Errorf("%d ingests in flight at once, want 1", got)
	}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("ingests arrived in order %v, want %v", order, want)
	}
	if maxTotal.Load() < 2 {
		t.Errorf("never more than one request in flight: the second connection went unused")
	}
}

func TestPoissonScheduleDeterministicAndAtRate(t *testing.T) {
	const rate = 200.0
	d := 50 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(7)), rate, d)
	b := poissonSchedule(rand.New(rand.NewSource(7)), rate, d)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not monotonic at %d", i)
		}
		if a[i] >= d {
			t.Fatalf("arrival %d at %v past the phase end", i, a[i])
		}
	}
	// 10,000 expected arrivals: the count's standard deviation is 100.
	if n := float64(len(a)); math.Abs(n-rate*d.Seconds()) > 400 {
		t.Errorf("%v arrivals, want about %v", n, rate*d.Seconds())
	}
	c := poissonSchedule(rand.New(rand.NewSource(8)), rate, d)
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds gave the same schedule")
	}
}

func TestPromDelta(t *testing.T) {
	before := mustParse(t, `# HELP tagdm_requests_total r
# TYPE tagdm_requests_total counter
tagdm_requests_total{endpoint="analyze"} 10
tagdm_requests_total{endpoint="actions"} 4
# HELP tagdm_matrix_bytes b
# TYPE tagdm_matrix_bytes gauge
tagdm_matrix_bytes 100
# HELP tagdm_wal_append_wait_seconds w
# TYPE tagdm_wal_append_wait_seconds histogram
tagdm_wal_append_wait_seconds_bucket{le="0.01"} 1
tagdm_wal_append_wait_seconds_bucket{le="+Inf"} 2
tagdm_wal_append_wait_seconds_sum 0.5
tagdm_wal_append_wait_seconds_count 2
`)
	after := mustParse(t, `# HELP tagdm_requests_total r
# TYPE tagdm_requests_total counter
tagdm_requests_total{endpoint="analyze"} 25
tagdm_requests_total{endpoint="actions"} 9
# HELP tagdm_matrix_bytes b
# TYPE tagdm_matrix_bytes gauge
tagdm_matrix_bytes 60
# HELP tagdm_wal_append_wait_seconds w
# TYPE tagdm_wal_append_wait_seconds histogram
tagdm_wal_append_wait_seconds_bucket{le="0.01"} 3
tagdm_wal_append_wait_seconds_bucket{le="+Inf"} 6
tagdm_wal_append_wait_seconds_sum 0.9
tagdm_wal_append_wait_seconds_count 6
`)
	d := diffProm(before, after)
	for key, want := range map[string]float64{
		`tagdm_requests_total{endpoint="analyze"}`: 15,
		`tagdm_requests_total{endpoint="actions"}`: 5,
		`tagdm_matrix_bytes`:                       60, // gauges read the second scrape
		`tagdm_wal_append_wait_seconds_count`:      4,
	} {
		if got := d[key]; got != want {
			t.Errorf("delta[%s] = %v, want %v", key, got, want)
		}
	}
	if got := d.sum("tagdm_requests_total"); got != 20 {
		t.Errorf("sum over labels = %v, want 20", got)
	}
	if got := d.sum("tagdm_wal_append_wait_seconds_sum"); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("histogram sum delta = %v, want 0.4", got)
	}
	// A prefix of another metric's name must not be summed into it.
	if got := d.sum("tagdm_requests"); got != 0 {
		t.Errorf("prefix sum = %v, want 0", got)
	}
}

func mustParse(t *testing.T, text string) *obs.PromText {
	t.Helper()
	p, err := obs.ParsePrometheus([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSpanLayersCriticalPath(t *testing.T) {
	tree := &obs.SpanTree{Name: "analyze", WallMs: 100, Children: []*obs.SpanTree{
		{Name: "parse", WallMs: 1},
		{Name: "cache", WallMs: 0.5},
		{Name: "solve", WallMs: 90, Children: []*obs.SpanTree{
			{Name: "shard", WallMs: 60, Children: []*obs.SpanTree{{Name: "greedy", WallMs: 50}}},
			{Name: "shard", WallMs: 80, Children: []*obs.SpanTree{
				{Name: "scope", WallMs: 10},
				{Name: "greedy", WallMs: 40},
				{Name: "local_search", WallMs: 20},
			}},
		}},
		{Name: "encode", WallMs: 2},
	}}
	got := spanLayers(tree)
	want := map[string]float64{
		"query.parse_ms":             1,
		"server.cache_lookup_ms":     0.5,
		"server.gather_ms":           10, // solve minus the slowest shard
		"server.scope_ms":            10,
		"core.stage_ms.greedy":       40,
		"core.stage_ms.local_search": 20,
		"server.queue_wait_ms":       10, // slowest shard's self time
		// The rest, the encode span included: the tree is snapshotted
		// while encode is open, so the server's encode cost is not in it.
		"server.handler_other_ms": 8.5,
	}
	var total float64
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
		total += v
	}
	if math.Abs(total-tree.WallMs) > 1e-9 {
		t.Errorf("layers sum to %v, want the root's %v", total, tree.WallMs)
	}
}

// TestTimingAtReferenceSpeed pins the host-speed correction: on a host
// twice as slow as the reference, a time halves and a rate doubles, the
// raw figures stay in the record, and a figure outside endToEnd never
// reaches the result line.
func TestTimingAtReferenceSpeed(t *testing.T) {
	rep := newReport(false)
	rep.timing(2, "analyze_p50_ms", 6, "ms")
	rep.timing(2, "saturated_rps", 100, "1/s")
	rep.timing(2, "analyze_p95_ms", 10, "ms")
	if got := rep.metrics["analyze_p50_ms"].Value; got != 3 {
		t.Errorf("analyze_p50_ms = %v, want 3", got)
	}
	if got := rep.metrics["saturated_rps"].Value; got != 200 {
		t.Errorf("saturated_rps = %v, want 200", got)
	}
	if got := rep.infos["raw.analyze_p50_ms"].Value; got != 6 {
		t.Errorf("raw.analyze_p50_ms = %v, want 6", got)
	}
	if _, ok := rep.metrics["analyze_p95_ms"]; ok {
		t.Error("analyze_p95_ms is not an end-to-end metric but reached the result line")
	}
	if got := rep.infos["analyze_p95_ms"].Value; got != 5 {
		t.Errorf("record analyze_p95_ms = %v, want 5", got)
	}
}

// TestProbeSlowdown pins the slowdown factor to the mean of the kernel
// parts' median times over their references.
func TestProbeSlowdown(t *testing.T) {
	sp := newSpeed()
	sp.probe()
	if len(sp.sorts) != probeReps || len(sp.lookups) != probeReps || sp.spent <= 0 {
		t.Fatalf("one probe kept %d+%d times over %v, want %d each", len(sp.sorts), len(sp.lookups), sp.spent, probeReps)
	}
	sp.sorts = []float64{refSortMs, 3 * refSortMs, 2 * refSortMs}
	sp.lookups = []float64{4 * refLookupMs}
	if got := sp.slowdown(); got != 3 {
		t.Errorf("slowdown = %v, want 3", got)
	}
	if sp.sorts[0] != refSortMs {
		t.Error("slowdown reordered the probe times")
	}
}

// TestBenchmarkManifestMatchesMetrics pins BENCHMARK.json to the metrics
// the runs emit: the end-to-end list of untraced runs and the per-layer
// list (with units) of traced ones.
func TestBenchmarkManifestMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, runs emit %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, runs emit %s", i, e.Name, endToEnd[i])
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, traced runs emit %d", len(m.PerLayer), len(perLayer))
	}
	for i, l := range m.PerLayer {
		if l.Name != perLayer[i].name || l.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, traced runs emit %s/%s", i, l.Name, l.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestScopeFiltersHaveGroups pins the workloads' scope mix: on the
// generated corpora of many seeds, every filter scopeFilters offers holds
// at least one describable group, so no scoped statement is refused with
// 422, and the broad values (those carried by at least a quarter of the
// actions, such as a gender) are offered too.
func TestScopeFiltersHaveGroups(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		w, err := datagen.Generate(smallCorpus(seed))
		if err != nil {
			t.Fatal(err)
		}
		ds := w.Dataset
		st, err := store.New(ds)
		if err != nil {
			t.Fatal(err)
		}
		filters, err := scopeFilters(ds)
		if err != nil {
			t.Fatal(err)
		}
		offered := map[string]bool{}
		for _, f := range filters {
			offered[f] = true
			attr, value, _ := strings.Cut(f, "=")
			pred, err := st.ParsePredicate(map[string]string{attr: strings.Trim(value, "'")})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, f, err)
			}
			gs := (&groups.Enumerator{Store: st, MinTuples: serverMinTuples, Within: st.Eval(pred)}).FullyDescribed()
			if len(gs) == 0 {
				t.Errorf("seed %d: filter %s holds no describable group", seed, f)
			}
		}
		counts := map[string]int{}
		for _, a := range ds.Actions {
			for _, side := range []struct {
				schema *model.Schema
				tuple  []model.ValueCode
			}{{ds.UserSchema, ds.Users[a.User].Attrs}, {ds.ItemSchema, ds.Items[a.Item].Attrs}} {
				for i := 0; i < side.schema.Len(); i++ {
					attr := side.schema.Attr(i)
					counts[fmt.Sprintf("%s='%s'", attr.Name, attr.Value(side.tuple[i]))]++
				}
			}
		}
		for f, n := range counts {
			if 4*n >= len(ds.Actions) && !offered[f] {
				t.Errorf("seed %d: broad filter %s (%d of %d actions) not offered", seed, f, n, len(ds.Actions))
			}
		}
	}
}
