package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"tagdm/internal/obs"
)

// perLayer lists every per-layer metric of a traced run with its unit.
// Times are means per request of the class they belong to (per analyze,
// per ingest, per solve), so the layers of one class add up to its mean
// latency.
var perLayer = []struct{ name, unit string }{
	{"query.parse_ms", "ms"},
	{"server.cache_lookup_ms", "ms"},
	{"server.scope_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.gather_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.handler_other_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"core.stage_ms.matrix", "ms"},
	{"core.stage_ms.enumerate", "ms"},
	{"core.stage_ms.lsh_build", "ms"},
	{"core.stage_ms.bucket_scan", "ms"},
	{"core.stage_ms.greedy", "ms"},
	{"core.stage_ms.local_search", "ms"},
	{"core.matrix_builds", "count"},
	{"core.matrix_rebuilds", "count"},
	{"core.matrix_hits", "count"},
	{"core.matrix_lazy", "count"},
	{"core.matrix_mb", "MiB"},
	{"core.prune_ratio", "ratio"},
	{"core.candidates_per_solve", "count"},
	{"mining.build_ms.users", "ms"},
	{"mining.build_ms.items", "ms"},
	{"mining.build_ms.tags", "ms"},
	{"mining.rebuild_ms.tags", "ms"},
	{"incremental.insert_us", "us"},
	{"incremental.snapshot_ms", "ms"},
	{"incremental.replicate_ms", "ms"},
	{"incremental.retained_mb_per_epoch", "MiB"},
	{"wal.append_wait_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.appends_per_fsync", "ratio"},
	{"wal.replay_append_ms", "ms"},
	{"store.eval_ms", "ms"},
	{"store.union_count_us", "us"},
	{"groups.enumerate_ms", "ms"},
	{"signature.summarize_ms", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.unaccounted_ms", "ms"},
	{"bench.analyze_accounted_frac", "ratio"},
	{"bench.analyze_remainder_ms", "ms"},
	{"bench.ingest_accounted_frac", "ratio"},
	{"bench.ingest_remainder_ms", "ms"},
	{"bench.failed_frac", "ratio"},
}

// layerUnits maps each per-layer metric to its unit.
var layerUnits = func() map[string]string {
	m := map[string]string{}
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()

func layerUnit(name string) string {
	u, ok := layerUnits[name]
	if !ok {
		panic("tagdmbench: unlisted per-layer metric " + name)
	}
	return u
}

// completeLayers reports every per-layer metric the workload did not
// measure as 0, with the reason in the record.
func (r *report) completeLayers() {
	for _, l := range perLayer {
		if _, ok := r.metrics[l.name]; ok {
			continue
		}
		r.metrics[l.name] = metric{0, l.unit}
		if _, ok := r.naWhy[l.name]; !ok {
			r.naWhy[l.name] = "layer not exercised by this workload"
		}
	}
}

// spanLayers splits one analyze span tree into per-layer wall times along
// its critical path: the root's direct phases, the solve span's self time
// (the gather and merge), and within the slowest shard its scope, its
// solver stages and its self time (queue wait plus resolve).
func spanLayers(t *obs.SpanTree) map[string]float64 {
	out := map[string]float64{}
	var children float64
	for _, c := range t.Children {
		children += c.WallMs
		switch c.Name {
		case "parse":
			out["query.parse_ms"] += c.WallMs
		case "cache":
			out["server.cache_lookup_ms"] += c.WallMs
		case "solve":
			var crit *obs.SpanTree
			for _, sh := range c.Children {
				if sh.Name == "shard" && (crit == nil || sh.WallMs > crit.WallMs) {
					crit = sh
				}
			}
			if crit == nil {
				out["server.gather_ms"] += c.WallMs
				continue
			}
			out["server.gather_ms"] += c.WallMs - crit.WallMs
			var inner float64
			for _, st := range crit.Children {
				inner += st.WallMs
				if st.Name == "scope" {
					out["server.scope_ms"] += st.WallMs
				} else {
					out["core.stage_ms."+st.Name] += st.WallMs
				}
			}
			out["server.queue_wait_ms"] += crit.WallMs - inner
		default:
			out["server.handler_other_ms"] += c.WallMs
		}
	}
	out["server.handler_other_ms"] += t.WallMs - children
	return out
}

// layers computes a traced server run's per-layer metrics from the span
// trees of its traced analyzes, the /metrics deltas across the fixed-rate
// phase, and the in-process replay of the same inputs.
func layers(rep *report, w *serverWorkload, dir string, fixed []result, before, after *obs.PromText, ref *replay) {
	d := diffProm(before, after)
	shards := w.shards

	// Span trees and client latency of the traced analyzes.
	sums := map[string]float64{}
	var tracedLat, plainLat, tracedLate []float64
	var analyzeLat, ingestLat []float64
	var ingestBodies [][]byte
	var late []float64
	failed := 0
	for i := range fixed {
		r := &fixed[i]
		if r.failed {
			failed++
			continue
		}
		late = append(late, ms(r.late))
		if r.op.ingest {
			ingestLat = append(ingestLat, ms(r.latency))
			ingestBodies = append(ingestBodies, r.op.body)
			continue
		}
		analyzeLat = append(analyzeLat, ms(r.latency))
		if !r.op.traced {
			plainLat = append(plainLat, ms(r.latency))
			continue
		}
		tracedLat = append(tracedLat, ms(r.latency))
		tracedLate = append(tracedLate, ms(r.late))
		var ar analyzeResp
		if err := json.Unmarshal(r.body, &ar); err != nil || ar.Trace == nil {
			rep.fail("traced analyze returned no span tree")
			continue
		}
		for k, v := range spanLayers(ar.Trace) {
			sums[k] += v
		}
	}
	nTraced := float64(len(tracedLat))
	accounted := mean(tracedLate)
	for k, v := range sums {
		m := v / math.Max(nTraced, 1)
		accounted += m
		if _, listed := layerUnits[k]; listed {
			rep.layer(k, m)
		}
	}
	if len(plainLat) > 0 && len(tracedLat) > 0 {
		rep.layer("obs.trace_overhead_frac", mean(tracedLat)/mean(plainLat)-1)
	}
	rep.layer("bench.gen_lag_p99_ms", percentile(late, 0.99))
	rep.layer("bench.failed_frac", ratio(float64(failed), float64(len(fixed))))
	srvAnalyze := 1000 * ratio(d[`tagdm_request_seconds_sum{endpoint="analyze"}`], d[`tagdm_request_seconds_count{endpoint="analyze"}`])
	rep.layer("bench.unaccounted_ms", mean(analyzeLat)-srvAnalyze)

	// /metrics deltas.
	hits, misses := d.sum("tagdm_cache_hits_total"), d.sum("tagdm_cache_misses_total")
	rep.layer("server.cache_hit_ratio", ratio(hits, hits+misses))
	rep.layer("server.rejected", d.sum("tagdm_rejected_total"))
	rep.layer("server.timeouts", d.sum("tagdm_solve_timeouts_total"))
	rep.layer("core.matrix_builds", d.sum("tagdm_matrix_builds_total"))
	rep.layer("core.matrix_rebuilds", d.sum("tagdm_matrix_rebuilds_total"))
	rep.layer("core.matrix_hits", d.sum("tagdm_matrix_cache_hits_total"))
	rep.layer("core.matrix_lazy", d.sum("tagdm_matrix_lazy_total"))
	rep.layer("core.matrix_mb", d.sum("tagdm_matrix_bytes")/(1<<20))
	examined, pruned := d.sum("tagdm_candidates_examined_total"), d.sum("tagdm_candidates_pruned_total")
	rep.layer("core.candidates_per_solve", ratio(examined, d.sum("tagdm_solves_total")))
	rep.layer("core.prune_ratio", ratio(pruned, examined+pruned))
	rep.na("core.prune_ratio", "the server runs no Exact solve; 0 means no pruning happened")
	rep.na("core.stage_ms.enumerate", "Exact stage; the server answers with SM-LSH and DV-FDP")
	rep.na("store.union_count_us", "Exact support-union kernel; paper-batch only")
	rep.layer("wal.append_wait_ms", 1000*ratio(d.sum("tagdm_wal_append_wait_seconds_sum"), d.sum("tagdm_wal_append_wait_seconds_count")))
	rep.layer("wal.fsync_ms", 1000*ratio(d.sum("tagdm_wal_fsync_seconds_sum"), d.sum("tagdm_wal_fsync_seconds_count")))
	rep.layer("wal.appends_per_fsync", ratio(d.sum("tagdm_wal_appends_total"), d.sum("tagdm_wal_fsync_seconds_count")))

	// In-process replay of the same inputs. The first matrix builds are
	// what -prewarm pays before /healthz answers.
	for _, dim := range []string{"users", "items", "tags"} {
		rep.layer("mining.build_ms."+dim, ref.mean("mining.build_ms."+dim))
	}
	if len(ingestBodies) > maxReplayIngest {
		ingestBodies = ingestBodies[:maxReplayIngest]
	}
	retained, err := ref.replayIngest(ingestBodies, shards, filepath.Join(dir, "replay-wal"))
	if err != nil {
		rep.fail("ingest replay: %v", err)
	}
	rep.layer("incremental.insert_us", ref.mean("incremental.insert_us"))
	rep.layer("incremental.snapshot_ms", ref.mean("incremental.snapshot_ms"))
	rep.layer("incremental.retained_mb_per_epoch", retained)
	rep.layer("incremental.replicate_ms", ref.mean("incremental.replicate_ms"))
	rep.layer("mining.rebuild_ms.tags", ref.mean("mining.rebuild_ms.tags"))
	rep.layer("wal.replay_append_ms", ref.mean("wal.replay_append_ms"))
	// Ingest accounting: WAL wait as the server measured it, plus the
	// replayed insert, snapshot, replication and, as -prewarm pays them
	// before the ingest answers, the matrix rebuilds of the new epoch.
	acc := rep.metrics["wal.append_wait_ms"].Value + ref.mean("incremental.insert_us")/1000 +
		ref.mean("incremental.snapshot_ms") + ref.mean("incremental.replicate_ms") + ref.mean("mining.rebuild_ms.all")
	rep.layer("bench.ingest_accounted_frac", ratio(acc, mean(ingestLat)))
	rep.layer("bench.ingest_remainder_ms", mean(ingestLat)-acc)

	// Scoped statements: replay the distinct scoped statements the run
	// sent, timing predicate eval, group enumeration and signatures, and
	// the JSON encoding of every replayed answer.
	seen := map[int]bool{}
	var stmts []string
	for i := range fixed {
		o := fixed[i].op
		if o == nil || o.ingest || seen[o.stmt] || !strings.Contains(string(o.body), " WHERE ") {
			continue
		}
		seen[o.stmt] = true
		var q struct {
			Query string `json:"query"`
		}
		if json.Unmarshal(o.body, &q) == nil {
			stmts = append(stmts, q.Query)
		}
	}
	sort.Strings(stmts)
	if len(stmts) > maxReplayScopes {
		stmts = stmts[:maxReplayScopes]
	}
	for _, s := range stmts {
		if _, err := ref.solve(s, shards); err != nil {
			rep.fail("scoped replay: %v", err)
		}
	}
	rep.layer("store.eval_ms", ref.mean("store.eval_ms"))
	rep.layer("groups.enumerate_ms", ref.mean("groups.enumerate_ms"))
	rep.layer("signature.summarize_ms", ref.mean("signature.summarize_ms"))
	rep.info("replay.scoped_statements", float64(len(stmts)), "count")

	// The server's encode span closes after the response is written but is
	// snapshotted into the tree before, so it reads near zero there; the
	// replay's encoding of the same answers stands in for it.
	rep.layer("server.encode_ms", ref.mean("server.encode_ms"))
	accounted += ref.mean("server.encode_ms")
	if len(tracedLat) > 0 {
		rep.layer("bench.analyze_accounted_frac", ratio(accounted, mean(tracedLat)))
		rep.layer("bench.analyze_remainder_ms", mean(tracedLat)-accounted)
	}
}

// Replay bounds: enough calls for a stable mean, few enough that the
// replay stays a small share of a run.
const (
	maxReplayIngest = 8
	maxReplayScopes = 12
)
