package incremental

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/model"
)

// This file pins the epoch carry-over property end to end: a snapshot
// engine whose matrix cache shares the maintainer's carry (dirty-row
// rebuilds from whichever epoch's matrix is newest, shared clean rows)
// must answer every solver family bit-identically to a virgin engine built
// from the very same frozen store, groups and signatures — across many
// epochs of random inserts, late solves on older snapshots, and (in the
// budgeted variant) forced eviction.

// carryWorld builds a randomized ingest universe: a handful of users and
// items over small attribute domains plus a tag pool, so random actions
// keep activating new groups and growing old ones across epochs.
func carryWorld(t *testing.T, rng *rand.Rand) (*model.Dataset, []int32, []int32, []model.TagID) {
	t.Helper()
	d := model.NewDataset(model.NewSchema("gender", "age"), model.NewSchema("genre"))
	genders := []string{"m", "f"}
	ages := []string{"teen", "adult"}
	genres := []string{"action", "drama", "comedy"}
	var users []int32
	for i := 0; i < 6; i++ {
		id, err := d.AddUser(map[string]string{
			"gender": genders[rng.Intn(len(genders))],
			"age":    ages[rng.Intn(len(ages))],
		})
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, id)
	}
	var items []int32
	for i := 0; i < 5; i++ {
		id, err := d.AddItem(map[string]string{"genre": genres[rng.Intn(len(genres))]})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, id)
	}
	tagNames := []string{"gun", "fight", "tears", "deep", "funny", "dry", "moving", "loud"}
	tags := make([]model.TagID, len(tagNames))
	for i, name := range tagNames {
		tags[i] = d.Vocab.ID(name)
	}
	// Seed a few actions so the maintainer starts with vocabulary and at
	// least one near-threshold group.
	for i := 0; i < 4; i++ {
		if err := d.AddActionIDs(users[0], items[0], 0, []model.TagID{tags[i%len(tags)]}); err != nil {
			t.Fatal(err)
		}
	}
	return d, users, items, tags
}

func carrySpecs() []core.ProblemSpec {
	return []core.ProblemSpec{
		{
			KLo: 1, KHi: 3,
			Objectives:  []core.Objective{{Dim: mining.Tags, Meas: mining.Similarity, Weight: 1}},
			Constraints: []core.Constraint{{Dim: mining.Users, Meas: mining.Similarity, Threshold: 0}},
			Name:        "carry-sim",
		},
		{
			KLo: 1, KHi: 3,
			Objectives:  []core.Objective{{Dim: mining.Tags, Meas: mining.Diversity, Weight: 1}},
			Constraints: []core.Constraint{{Dim: mining.Items, Meas: mining.Diversity, Threshold: 0}},
			Name:        "carry-div",
		},
	}
}

func assertSameResult(t *testing.T, label string, want, got core.Result) {
	t.Helper()
	if want.Found != got.Found {
		t.Fatalf("%s: found %v vs %v", label, got.Found, want.Found)
	}
	if !want.Found {
		return
	}
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("%s: set size %d vs %d", label, len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if want.Groups[i].ID != got.Groups[i].ID {
			t.Fatalf("%s: group %d is %d vs %d", label, i, got.Groups[i].ID, want.Groups[i].ID)
		}
	}
	if math.Float64bits(want.Objective) != math.Float64bits(got.Objective) {
		t.Fatalf("%s: objective %v vs %v", label, got.Objective, want.Objective)
	}
	if want.Support != got.Support {
		t.Fatalf("%s: support %d vs %d", label, got.Support, want.Support)
	}
}

// solveEpoch runs every applicable (family, spec) pair of specs on the
// carried snapshot engine and on a virgin scratch engine over the same
// frozen inputs, asserting bit-identity. Returns the rebuild count
// observed on the carried engine.
func solveEpoch(t *testing.T, label string, snap *Snapshot, scratch *core.Engine, specs []core.ProblemSpec) int {
	t.Helper()
	ctx := context.Background()
	rebuilds := 0
	for _, spec := range specs {
		want, err := scratch.Exact(ctx, spec, core.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Engine.Exact(ctx, spec, core.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, label+"/"+spec.Name+"/exact", want, got)
		rebuilds += got.MatrixRebuilds

		if spec.Objectives[0].Meas == mining.Similarity {
			opts := core.LSHOptions{DPrime: 6, L: 2, Seed: 9, Mode: core.Fold}
			want, err := scratch.SMLSH(ctx, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := snap.Engine.SMLSH(ctx, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, label+"/"+spec.Name+"/smlsh", want, got)
			rebuilds += got.MatrixRebuilds
		} else {
			want, err := scratch.DVFDP(ctx, spec, core.FDPOptions{Mode: core.Fold})
			if err != nil {
				t.Fatal(err)
			}
			got, err := snap.Engine.DVFDP(ctx, spec, core.FDPOptions{Mode: core.Fold})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, label+"/"+spec.Name+"/dvfdp", want, got)
			rebuilds += got.MatrixRebuilds
		}
	}
	return rebuilds
}

// carryEpoch is one published snapshot with its scratch reference.
type carryEpoch struct {
	label   string
	snap    *Snapshot
	scratch *core.Engine
}

// runCarryProperty publishes six epochs of random inserts. Each new
// snapshot solves one random spec, so its other spec's bindings stay
// unbuilt; then a late solve on one of the last three snapshots solves
// every spec. Returns the rebuilds observed, and separately those of the
// late solves.
func runCarryProperty(t *testing.T, seed int64, budget bool) (totalRebuilds, lateRebuilds int) {
	rng := rand.New(rand.NewSource(seed))
	var kept []carryEpoch // the last three snapshots, oldest first
	d, users, items, tags := carryWorld(t, rng)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	specs := carrySpecs()
	for epoch := 0; epoch < 6; epoch++ {
		inserts := 8 + rng.Intn(8)
		for i := 0; i < inserts; i++ {
			a := model.TaggingAction{
				User: users[rng.Intn(len(users))],
				Item: items[rng.Intn(len(items))],
				Tags: []model.TagID{tags[rng.Intn(len(tags))]},
			}
			if err := m.Insert(a); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		n := len(snap.Groups)
		if n < 2 {
			continue
		}
		if budget {
			// Room for roughly one matrix: every epoch's solves churn
			// through eviction, and carry must survive losing entries.
			snap.Engine.SetMatrixBudget(int64(n*(n-1)/2) * 8)
		}
		scratch, err := core.NewEngine(snap.Store, snap.Groups, snap.Engine.Sigs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed=%d budget=%v epoch=%d n=%d", seed, budget, epoch, n)
		now := specs[rng.Intn(len(specs)):][:1]
		totalRebuilds += solveEpoch(t, label, snap, scratch, now)

		// Solve twice: the second pass must be all cache hits and still
		// identical.
		totalRebuilds += solveEpoch(t, label+" warm", snap, scratch, now)

		// Out of order: a late solve on a random older snapshot builds
		// its unbuilt bindings from whatever the carry holds now, which
		// may be a newer, larger matrix than its own universe.
		if len(kept) > 0 {
			old := kept[rng.Intn(len(kept))]
			late := solveEpoch(t, old.label+" late", old.snap, old.scratch, specs)
			totalRebuilds += late
			lateRebuilds += late
		}
		kept = append(kept, carryEpoch{label, snap, scratch})
		if len(kept) > 3 {
			kept = kept[1:]
		}
	}
	return totalRebuilds, lateRebuilds
}

// TestCarryOverMatchesScratchAcrossEpochs is the randomized multi-epoch
// property: inserts and snapshots across 6 epochs, each followed by a late
// solve on one of the last three snapshots, all solver families
// byte-identical to scratch engines, with the carried (rebuild) path
// provably exercised.
func TestCarryOverMatchesScratchAcrossEpochs(t *testing.T) {
	rebuilds, late := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		r, l := runCarryProperty(t, seed, false)
		rebuilds += r
		late += l
	}
	if rebuilds == 0 {
		t.Fatal("no dirty-row rebuild was ever exercised — the carry is broken")
	}
	if late == 0 {
		t.Fatal("no late solve on an older snapshot rebuilt from the carry")
	}
}

// TestCarryOverMatchesScratchUnderEviction re-runs the property with a
// matrix budget of roughly one matrix, so eviction constantly races the
// carry chain; answers must not move.
func TestCarryOverMatchesScratchUnderEviction(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runCarryProperty(t, seed, true)
	}
}

// TestReplicateCarriesPairFuncOverrides is the regression for the silent
// override drop: Snapshot.Replicate used to hand replicas a fresh engine
// with default measures, so a sharded solve over replicas disagreed with a
// serial solve on the base engine whenever SetPairFunc was in play. The
// replica now shares the base cache, overrides included.
func TestReplicateCarriesPairFuncOverrides(t *testing.T) {
	d, male, f, action := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	gun := d.Vocab.ID("gun")
	gory := d.Vocab.ID("gory")
	for i := 0; i < 4; i++ {
		if err := m.Insert(model.TaggingAction{User: male, Item: action, Tags: []model.TagID{gun}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert(model.TaggingAction{User: f, Item: action, Tags: []model.TagID{gory}}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Groups) < 2 {
		t.Fatalf("world produced %d groups", len(snap.Groups))
	}
	// A distinctive overridden measure: no default measure produces these
	// values, so any replica falling back to defaults changes the answer.
	override := func(g1, g2 *groups.Group) float64 {
		return 1 / (1 + math.Abs(float64(g1.ID-g2.ID)))
	}
	snap.Engine.SetPairFunc(mining.Tags, mining.Similarity, override)

	spec := core.ProblemSpec{
		KLo: 2, KHi: 2,
		Objectives: []core.Objective{{Dim: mining.Tags, Meas: mining.Similarity, Weight: 1}},
		Name:       "override-regression",
	}
	ctx := context.Background()
	opts := core.SolveOptions{LSH: core.LSHOptions{DPrime: 6, L: 2, Seed: 9, Mode: core.Fold}}
	want, err := snap.Engine.Solve(ctx, spec, opts)
	if err != nil {
		t.Fatal(err)
	}

	engines := []*core.Engine{snap.Engine}
	for i := 0; i < 2; i++ {
		rep, err := snap.Replicate()
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Engine.PairFunc(mining.Tags, mining.Similarity)(snap.Groups[0], snap.Groups[1])
		if got != override(snap.Groups[0], snap.Groups[1]) {
			t.Fatalf("replica %d pair func returned %v — override dropped", i, got)
		}
		engines = append(engines, rep.Engine)
	}
	start := time.Now()
	parts := make([]core.Partial, len(engines))
	for i, eng := range engines {
		if parts[i], err = eng.SolvePartial(ctx, spec, opts, i, len(engines)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := snap.Engine.MergePartials(spec, parts, start)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "sharded-with-override", want, got)
}
