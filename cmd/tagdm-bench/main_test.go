package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tagdm/internal/datagen"
	"tagdm/internal/experiments"
)

// decodeRecords runs emit against an emitter writing to a buffer and
// decodes the JSON lines it wrote.
func decodeRecords(t *testing.T, emit func(*jsonEmitter)) []benchRecord {
	t.Helper()
	var buf bytes.Buffer
	emit(&jsonEmitter{enc: json.NewEncoder(&buf), scale: "fast"})
	var recs []benchRecord
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r benchRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Scale != "fast" {
			t.Fatalf("record %+v lost the scale", r)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestBnBRecords pins the -bnb -json record: one line per sweep row,
// carrying its support floor, the serial/parallel mode as the algorithm,
// the examined/pruned split and the wall time per examined candidate.
func TestBnBRecords(t *testing.T) {
	tab := experiments.BnBTable{Rows: []experiments.BnBRow{
		{Problem: "Problem 1", Support: 0.01, Variant: "pruning=off", Elapsed: time.Millisecond, Examined: 100, Found: true},
		{Problem: "Problem 1", Support: 0.02, Variant: "pruning=on", Parallel: true, Examined: 10, Pruned: 90},
	}}
	recs := decodeRecords(t, func(e *jsonEmitter) { e.bnbTable(tab) })
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	for i, want := range []struct {
		algo      string
		support   float64
		cand, pru int64
		found     bool
	}{{"Exact", 0.01, 100, 0, true}, {"Exact-parallel", 0.02, 10, 90, false}} {
		r := recs[i]
		if r.Bench != "bnb" || r.Algorithm != want.algo || r.Support != want.support ||
			r.Candidates != want.cand || r.Pruned != want.pru || r.Found == nil || *r.Found != want.found {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	if recs[0].Millis != 1 {
		t.Fatalf("millis = %v, want 1", recs[0].Millis)
	}
	// 1 ms over 100 examined candidates.
	if recs[0].NsPerCandidate != 10000 {
		t.Fatalf("ns_per_candidate = %v, want 10000", recs[0].NsPerCandidate)
	}
	if recs[1].NsPerCandidate != 0 {
		t.Fatalf("ns_per_candidate = %v for a row with no elapsed time, want 0", recs[1].NsPerCandidate)
	}
}

// TestEmittersTagRecords checks that every other timed artifact writes one
// record per row under its bench name.
func TestEmittersTagRecords(t *testing.T) {
	cases := []struct {
		bench string
		rows  int
		emit  func(*jsonEmitter)
	}{
		{"fig3", 1, func(e *jsonEmitter) {
			e.table("fig3", experiments.Table{Rows: []experiments.Row{{Problem: "Problem 1", Algorithm: "Exact"}}})
		}},
		{"fig7", 1, func(e *jsonEmitter) {
			e.binTable("fig7", experiments.BinTable{Rows: []experiments.BinRow{{Tuples: 5, NumGroups: 3}}})
		}},
		{"ablation", 1, func(e *jsonEmitter) {
			e.ablationTable(experiments.AblationTable{Rows: []experiments.AblationRow{{Sweep: "L", Variant: "2"}}})
		}},
		{"trace", 1, func(e *jsonEmitter) {
			e.stageTable(experiments.StageTraceTable{Rows: []experiments.StageRow{{Problem: "Problem 1", Stage: "enumerate"}}})
		}},
		{"ksweep", 3, func(e *jsonEmitter) {
			e.ksweepTable(experiments.KSweepTable{Rows: []experiments.KSweepRow{{K: 2, Candidates: 10, ApproxAlgo: "DV-FDP"}}})
		}},
	}
	for _, c := range cases {
		recs := decodeRecords(t, c.emit)
		if len(recs) != c.rows {
			t.Fatalf("%s: records = %d, want %d", c.bench, len(recs), c.rows)
		}
		for _, r := range recs {
			if r.Bench != c.bench {
				t.Fatalf("%s: record tagged %q", c.bench, r.Bench)
			}
		}
	}
}

// TestSnapshotCost runs the -snapshot measurement on datagen.Small and
// checks the record carries the corpus size, a time and retained bytes.
func TestSnapshotCost(t *testing.T) {
	r, err := snapshotCost(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	if r.Tuples != datagen.Small().Actions+snapshotReps || r.NumGroups == 0 || r.Millis <= 0 || r.RetainedBytes <= 0 {
		t.Fatalf("snapshot record %+v", r)
	}
}
