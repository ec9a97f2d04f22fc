package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/incremental"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/query"
	"tagdm/internal/server"
	"tagdm/internal/signature"
	"tagdm/internal/wal"
)

// replay re-runs a workload's inputs in process, timing each call into a
// module's public functions. It mirrors the server's read path (frequency
// signatures over the frozen vocabulary, SM-LSH-Fo / DV-FDP-Fo with the
// server's default LSH seed, groups of at least 5 actions) so that its
// answers are the reference the server's must equal.
type replay struct {
	ds    *model.Dataset
	maint *incremental.Maintainer
	snap  *incremental.Snapshot
	opts  core.SolveOptions
	// times holds the samples of each timed call, in the unit its metric
	// name carries (_ms or _us).
	times map[string][]float64
}

// serverMinTuples and serverSeed are tagdm-serve's defaults for
// -min-group-tuples and -seed, which the server workloads keep.
const (
	serverMinTuples = 5
	serverSeed      = 1
)

func newReplay(corpusPath string) (*replay, error) {
	f, err := os.Open(corpusPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := model.ReadJSON(f)
	if err != nil {
		return nil, err
	}
	maint, err := incremental.New(ds, serverMinTuples, signature.FrequencyOfSize(ds.Vocab.Size()))
	if err != nil {
		return nil, err
	}
	snap, err := maint.Snapshot()
	if err != nil {
		return nil, err
	}
	return &replay{
		ds: ds, maint: maint, snap: snap,
		opts: core.SolveOptions{
			LSH: core.LSHOptions{Seed: serverSeed, Mode: core.Fold},
			FDP: core.FDPOptions{Mode: core.Fold},
		},
		times: map[string][]float64{},
	}, nil
}

// timed runs f and files its duration under name (a _us name in
// microseconds, anything else in milliseconds).
func (r *replay) timed(name string, f func()) {
	t := time.Now()
	f()
	d := time.Since(t)
	v := float64(d) / 1e6
	if strings.HasSuffix(name, "_us") {
		v = float64(d) / 1e3
	}
	r.times[name] = append(r.times[name], v)
}

func (r *replay) mean(name string) float64 { return mean(r.times[name]) }

var dimNames = map[mining.Dimension]string{mining.Users: "users", mining.Items: "items", mining.Tags: "tags"}

// buildMatrices times the first build of every pair matrix, as -prewarm
// pays it at boot: both measures of each dimension.
func (r *replay) buildMatrices() {
	for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
		r.timed("mining.build_ms."+dimNames[dim], func() {
			r.snap.Engine.PairMatrix(dim, mining.Similarity)
			r.snap.Engine.PairMatrix(dim, mining.Diversity)
		})
	}
}

// solve answers one statement the way the server does with the given
// shard count: parse, scope (predicate eval, group enumeration, frequency
// signatures), one partial solve per shard, merge.
func (r *replay) solve(stmt string, shards int) (*analyzeResp, error) {
	var req *query.Request
	var err error
	r.timed("query.parse_ms", func() { req, err = query.Parse(stmt) })
	if err != nil {
		return nil, err
	}
	st := r.snap.Store
	eng, n := r.snap.Engine, st.Len()
	if len(req.Where) > 0 {
		pred, err := st.ParsePredicate(req.Where)
		if err != nil {
			return nil, err
		}
		var scopeCount int
		var gs []*groups.Group
		r.timed("store.eval_ms", func() {
			bm := st.Eval(pred)
			scopeCount = bm.Count()
			if scopeCount > 0 {
				r.timed("groups.enumerate_ms", func() {
					gs = (&groups.Enumerator{Store: st, MinTuples: serverMinTuples, Within: bm}).FullyDescribed()
				})
			}
		})
		if len(gs) == 0 {
			return nil, fmt.Errorf("statement %q: empty scope", stmt)
		}
		var sigs []signature.Signature
		r.timed("signature.summarize_ms", func() {
			sigs = signature.SummarizeAll(signature.FrequencyOfSize(r.snap.VocabSize), st, gs)
		})
		if eng, err = core.NewEngine(st, gs, sigs); err != nil {
			return nil, err
		}
		n = scopeCount
	}
	spec, err := req.Resolve(n)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([]core.Partial, shards)
	for i := range parts {
		r.timed("core.solve_partial_ms", func() {
			parts[i], err = eng.SolvePartial(context.Background(), spec, r.opts, i, shards)
		})
		if err != nil {
			return nil, err
		}
	}
	var res core.Result
	r.timed("core.merge_ms", func() { res, err = eng.MergePartials(spec, parts, start) })
	if err != nil {
		return nil, err
	}
	out := &analyzeResp{Found: res.Found, Algorithm: res.Algorithm, Objective: res.Objective, Support: res.Support}
	wire := server.AnalyzeResponse{Query: stmt, Found: res.Found, Algorithm: res.Algorithm,
		Objective: res.Objective, Support: res.Support, SolveMillis: float64(res.Elapsed) / 1e6}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, struct {
			Description string `json:"description"`
			Size        int    `json:"size"`
		}{g.Describe(st), g.Size()})
		wire.Groups = append(wire.Groups, server.GroupResult{Description: g.Describe(st), Size: g.Size()})
	}
	r.timed("server.encode_ms", func() { json.NewEncoder(io.Discard).Encode(wire) })
	return out, nil
}

// ackedIngest is an ingest body the server acknowledged, with the epoch
// it published.
type ackedIngest struct {
	epoch int64
	body  []byte
}

// decodeIngest turns an ingest body into the tagging actions it carries.
func (r *replay) decodeIngest(body []byte) ([]model.TaggingAction, error) {
	var req struct {
		Actions []ingestAction `json:"actions"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	out := make([]model.TaggingAction, len(req.Actions))
	for i, a := range req.Actions {
		ids := make([]model.TagID, len(a.Tags))
		for j, t := range a.Tags {
			ids[j] = r.ds.Vocab.ID(t)
		}
		out[i] = model.TaggingAction{User: a.User, Item: a.Item, Rating: a.Rating, Tags: ids}
	}
	return out, nil
}

// checkAnswers re-solves a sample of the server's first answers and
// requires each to be identical. It samples, by rng, nUnscoped unscoped
// and nScoped scoped answers among those given at epoch 0 or at an epoch
// one of ingests published. The reference starts from the corpus (epoch
// 0), applies ingests in order, and snapshots at each sampled epoch, so
// answers given after any number of ingests are checked, not only the
// first ones.
func (r *replay) checkAnswers(rep *report, answers *answerLog, ingests []ackedIngest, rng *rand.Rand, nUnscoped, nScoped int) error {
	known := map[int64]bool{0: true}
	for _, in := range ingests {
		known[in.epoch] = true
	}
	var cands []answerKey
	for _, k := range answers.order {
		if known[k.epoch] {
			cands = append(cands, k)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	var picked []answerKey
	scoped := 0
	for _, k := range cands {
		if strings.Contains(k.stmt, " WHERE ") {
			if scoped < nScoped {
				scoped++
				picked = append(picked, k)
			}
		} else if len(picked)-scoped < nUnscoped {
			picked = append(picked, k)
		}
	}
	sort.SliceStable(picked, func(i, j int) bool { return picked[i].epoch < picked[j].epoch })

	applied := 0
	for _, k := range picked {
		if applied < len(ingests) && ingests[applied].epoch <= k.epoch {
			for ; applied < len(ingests) && ingests[applied].epoch <= k.epoch; applied++ {
				acts, err := r.decodeIngest(ingests[applied].body)
				if err != nil {
					return err
				}
				for _, a := range acts {
					if err := r.maint.Insert(a); err != nil {
						return err
					}
				}
			}
			snap, err := r.maint.Snapshot()
			if err != nil {
				return err
			}
			r.snap = snap
		}
		want, err := r.solve(k.stmt, 1)
		if err != nil {
			rep.fail("reference solve of %q at epoch %d: %v", k.stmt, k.epoch, err)
			continue
		}
		if got := answers.first[k]; got.fingerprint() != want.fingerprint() {
			rep.fail("statement %q at epoch %d: server answered\n  %s\nreference solve gives\n  %s", k.stmt, k.epoch, got.fingerprint(), want.fingerprint())
		}
	}
	add := func(name string, v float64) { rep.info(name, rep.infos[name].Value+v, "count") }
	add("reference_checked", float64(len(picked)))
	add("reference_checked_scoped", float64(scoped))
	if len(picked) > 0 {
		rep.info("reference_max_epoch", math.Max(rep.infos["reference_max_epoch"].Value, float64(picked[len(picked)-1].epoch)), "count")
	}
	return nil
}

// replayIngest applies ingest bodies through the maintainer the way the
// server's write path does with -refresh-every 1: insert, snapshot,
// replicate for each extra shard, then rebuild every pair matrix of the
// new epoch from the carried one (what -prewarm pays at publish, and
// otherwise the next solve). All snapshots stay referenced, so the heap
// growth per epoch is what each retained epoch costs. It also appends the
// same bodies to a fresh write-ahead log with fsync always.
func (r *replay) replayIngest(bodies [][]byte, shards int, walDir string) (retainedMB float64, err error) {
	// Each replayed epoch rebuilds from a predecessor whose matrices are
	// all built, as under -prewarm.
	for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
		r.snap.Engine.PairMatrix(dim, mining.Similarity)
		r.snap.Engine.PairMatrix(dim, mining.Diversity)
	}
	var kept []*incremental.Snapshot
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, body := range bodies {
		acts, err := r.decodeIngest(body)
		if err != nil {
			return 0, err
		}
		for _, a := range acts {
			r.timed("incremental.insert_us", func() { err = r.maint.Insert(a) })
			if err != nil {
				return 0, err
			}
		}
		var snap *incremental.Snapshot
		r.timed("incremental.snapshot_ms", func() { snap, err = r.maint.Snapshot() })
		if err != nil {
			return 0, err
		}
		r.timed("incremental.replicate_ms", func() {
			for i := 1; i < shards && err == nil; i++ {
				_, err = snap.Replicate()
			}
		})
		if err != nil {
			return 0, err
		}
		r.timed("mining.rebuild_ms.all", func() {
			r.timed("mining.rebuild_ms.tags", func() {
				snap.Engine.PairMatrix(mining.Tags, mining.Similarity)
				snap.Engine.PairMatrix(mining.Tags, mining.Diversity)
			})
			for _, dim := range []mining.Dimension{mining.Users, mining.Items} {
				snap.Engine.PairMatrix(dim, mining.Similarity)
				snap.Engine.PairMatrix(dim, mining.Diversity)
			}
		})
		kept = append(kept, snap)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	retainedMB = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(kept)) / (1 << 20)
	runtime.KeepAlive(kept)

	l, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	for _, body := range bodies {
		r.timed("wal.replay_append_ms", func() { err = l.Enqueue(body).Wait() })
		if err != nil {
			l.Close()
			return 0, err
		}
	}
	return retainedMB, l.Close()
}
