package incremental

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// world builds a dataset where one (profile, item) pair already clears the
// threshold, one sits just below it, and head-room exists to add more.
func world(t *testing.T) (*model.Dataset, int32, int32, int32) {
	t.Helper()
	d := model.NewDataset(model.NewSchema("gender"), model.NewSchema("genre"))
	m, err := d.AddUser(map[string]string{"gender": "male"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.AddUser(map[string]string{"gender": "female"})
	if err != nil {
		t.Fatal(err)
	}
	action, err := d.AddItem(map[string]string{"genre": "action"})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// male-action: 3 tuples (active at threshold 3).
	for i := 0; i < 3; i++ {
		must(d.AddAction(m, action, 0, "gun"))
	}
	// female-action: 2 tuples (pending at threshold 3).
	for i := 0; i < 2; i++ {
		must(d.AddAction(f, action, 0, "violence"))
	}
	return d, m, f, action
}

func newSummarizer(t *testing.T, d *model.Dataset) signature.Summarizer {
	t.Helper()
	st, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return signature.NewFrequency(st)
}

func TestNewSeedsExistingGroups(t *testing.T) {
	d, _, _, _ := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ActiveGroups != 1 {
		t.Fatalf("active = %d, want 1", st.ActiveGroups)
	}
	if st.PendingGroups != 1 {
		t.Fatalf("pending = %d, want 1", st.PendingGroups)
	}
	if st.DirtyGroups != 0 {
		t.Fatalf("dirty after construction = %d", st.DirtyGroups)
	}
}

func TestMinTuplesValidation(t *testing.T) {
	d, _, _, _ := world(t)
	if _, err := New(d, 0, newSummarizer(t, d)); err == nil {
		t.Fatal("minTuples 0 accepted")
	}
}

func TestInsertActivatesPendingGroup(t *testing.T) {
	d, _, f, action := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	tagID := d.Vocab.ID("gory")
	// Third female-action tuple crosses the threshold.
	if err := m.Insert(model.TaggingAction{User: f, Item: action, Tags: []model.TagID{tagID}}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ActiveGroups != 2 {
		t.Fatalf("active = %d, want 2", st.ActiveGroups)
	}
	if st.Inserts != 1 {
		t.Fatalf("inserts = %d", st.Inserts)
	}
	// The activated group must be queryable in the next snapshot.
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng := snap.Engine
	if len(eng.Groups) != 2 {
		t.Fatalf("engine groups = %d", len(eng.Groups))
	}
	for i, g := range eng.Groups {
		if g.ID != i {
			t.Fatalf("group %d has ID %d", i, g.ID)
		}
	}
}

func TestInsertNewCombinationCreatesGroup(t *testing.T) {
	d, male, _, _ := world(t)
	comedy, err := d.AddItem(map[string]string{"genre": "comedy"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(d, 2, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats().ActiveGroups
	funny := d.Vocab.ID("funny")
	for i := 0; i < 2; i++ {
		if err := m.Insert(model.TaggingAction{User: male, Item: comedy, Tags: []model.TagID{funny}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().ActiveGroups; got != before+1 {
		t.Fatalf("active = %d, want %d", got, before+1)
	}
}

func TestInsertMarksDirtyAndSnapshotClears(t *testing.T) {
	d, male, _, action := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	gun := d.Vocab.ID("gun")
	if err := m.Insert(model.TaggingAction{User: male, Item: action, Tags: []model.TagID{gun}}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().DirtyGroups != 1 {
		t.Fatalf("dirty = %d", m.Stats().DirtyGroups)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().DirtyGroups != 0 {
		t.Fatal("snapshot did not clear the dirty count")
	}
}

func TestSignaturesTrackInserts(t *testing.T) {
	d, male, _, action := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng := snap.Engine
	gun := d.Vocab.ID("gun")
	var gunWeightBefore float64
	if before := eng.Sigs[0].Dense(); int(gun) < len(before) {
		gunWeightBefore = before[gun]
	}
	for i := 0; i < 3; i++ {
		if err := m.Insert(model.TaggingAction{User: male, Item: action, Tags: []model.TagID{gun}}); err != nil {
			t.Fatal(err)
		}
	}
	snap2, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap2.Engine.Sigs[0].Dense()[gun]; got <= gunWeightBefore {
		t.Fatalf("gun weight did not grow: %v -> %v", gunWeightBefore, got)
	}
}

func TestMaintainerMatchesRebuild(t *testing.T) {
	// After a batch of inserts, the maintainer's group universe must be
	// identical (same descriptions, same sizes) to a from-scratch
	// enumeration of the same data.
	d, male, f, action := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	gun := d.Vocab.ID("gun")
	gory := d.Vocab.ID("gory")
	for i := 0; i < 4; i++ {
		for _, a := range []model.TaggingAction{
			{User: male, Item: action, Tags: []model.TagID{gun}},
			{User: f, Item: action, Tags: []model.TagID{gory}},
		} {
			if err := m.Insert(a); err != nil {
				t.Fatal(err)
			}
			// Mirror into the dataset so the from-scratch rebuild sees
			// the same data.
			if err := d.AddActionIDs(a.User, a.Item, a.Rating, a.Tags); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	want := (&groups.Enumerator{Store: fresh, MinTuples: 3}).FullyDescribed()
	got := m.ActiveGroups()
	if len(got) != len(want) {
		t.Fatalf("maintainer has %d groups, rebuild has %d", len(got), len(want))
	}
	wantSizes := map[string]int{}
	for _, g := range want {
		wantSizes[fresh.Describe(g.Pred)] = g.Size()
	}
	for _, g := range got {
		desc := m.Store().Describe(g.Pred)
		if wantSizes[desc] != g.Size() {
			t.Fatalf("group %s: maintainer size %d, rebuild size %d",
				desc, g.Size(), wantSizes[desc])
		}
	}
}

func TestRefreshEngineSolves(t *testing.T) {
	d, male, f, action := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	gory := d.Vocab.ID("gory")
	gun := d.Vocab.ID("gun")
	for i := 0; i < 3; i++ {
		if err := m.Insert(model.TaggingAction{User: f, Item: action, Tags: []model.TagID{gory}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert(model.TaggingAction{User: male, Item: action, Tags: []model.TagID{gun}}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng := snap.Engine
	// Problem 6 on the maintained universe: same items, diverse tags.
	spec, err := core.PaperProblem(6, 2, 4, 0.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("null result on maintained engine")
	}
	if res.Objective < 0.9 {
		t.Fatalf("objective = %v; male/female action tags should be disjoint", res.Objective)
	}
}

func TestInsertRejectsUnknownReferences(t *testing.T) {
	d, _, _, _ := world(t)
	m, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(model.TaggingAction{User: 99, Item: 0}); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestVersionBumpsPerInsert(t *testing.T) {
	d, m, _, action := world(t)
	maint, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if maint.Version() != 0 {
		t.Fatalf("initial version = %d", maint.Version())
	}
	for i := 1; i <= 3; i++ {
		if err := maint.Insert(model.TaggingAction{User: m, Item: action}); err != nil {
			t.Fatal(err)
		}
		if maint.Version() != int64(i) {
			t.Fatalf("version after %d inserts = %d", i, maint.Version())
		}
	}
}

func TestSnapshotIsolatedFromLaterInserts(t *testing.T) {
	d, m, f, action := world(t)
	maint, err := New(d, 3, newSummarizer(t, d))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := maint.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 0 || len(snap.Groups) != 1 || snap.Store.Len() != 5 {
		t.Fatalf("snapshot = version %d, %d groups, %d tuples", snap.Version, len(snap.Groups), snap.Store.Len())
	}
	sizeBefore := snap.Groups[0].Size()

	// Grow the maintained universe: female-action activates, male-action
	// grows. The frozen snapshot must see none of it.
	for i := 0; i < 4; i++ {
		if err := maint.Insert(model.TaggingAction{User: f, Item: action}); err != nil {
			t.Fatal(err)
		}
		if err := maint.Insert(model.TaggingAction{User: m, Item: action}); err != nil {
			t.Fatal(err)
		}
	}
	if len(snap.Groups) != 1 || snap.Groups[0].Size() != sizeBefore || snap.Store.Len() != 5 {
		t.Fatalf("snapshot mutated by later inserts: %d groups, size %d, %d tuples",
			len(snap.Groups), snap.Groups[0].Size(), snap.Store.Len())
	}

	// And a fresh snapshot sees everything.
	snap2, err := maint.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version != 8 || len(snap2.Groups) != 2 || snap2.Store.Len() != 13 {
		t.Fatalf("fresh snapshot = version %d, %d groups, %d tuples", snap2.Version, len(snap2.Groups), snap2.Store.Len())
	}

	// The frozen engine still answers queries.
	spec, err := core.PaperProblem(1, 2, 1, 0.0, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Engine.Solve(context.Background(), spec, core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
}

// checkpointDataset reconstructs the dataset a checkpoint persists: the
// live users/items/vocabulary plus the actions read back out of the store
// in insert order (Maintainer.Insert grows the store, not Dataset.Actions).
func checkpointDataset(d *model.Dataset, st *store.Store) *model.Dataset {
	out := &model.Dataset{
		UserSchema: d.UserSchema,
		ItemSchema: d.ItemSchema,
		Vocab:      d.Vocab,
		Users:      d.Users,
		Items:      d.Items,
	}
	for i := 0; i < st.Len(); i++ {
		out.Actions = append(out.Actions, model.TaggingAction{
			User:   st.TupleUser(i),
			Item:   st.TupleItem(i),
			Tags:   st.TupleTags(i),
			Rating: st.TupleRating(i),
		})
	}
	return out
}

// TestRestoreReproducesActivationOrder is the recovery-order invariant: a
// group activated by ingest gets an ID reflecting when it crossed the
// threshold, which a fresh enumeration (sorted by size) would not assign.
// Restore with the recorded keys must reproduce the live order exactly.
func TestRestoreReproducesActivationOrder(t *testing.T) {
	d, male, f, action := world(t)
	sum := newSummarizer(t, d)
	m, err := New(d, 3, sum)
	if err != nil {
		t.Fatal(err)
	}
	// Activate female-action by ingest (1 more tuple -> 3), then bulk up
	// male-action so size order disagrees with activation order.
	gory := d.Vocab.ID("gory")
	if err := m.Insert(model.TaggingAction{User: f, Item: action, Tags: []model.TagID{gory}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Insert(model.TaggingAction{User: f, Item: action, Tags: []model.TagID{gory}}); err != nil {
			t.Fatal(err)
		}
	}
	_ = male
	keys := m.ActiveKeys()
	if len(keys) != 2 {
		t.Fatalf("ActiveKeys = %d entries, want 2", len(keys))
	}
	version := m.Version()

	ckpt := checkpointDataset(d, m.Store())
	r, err := Restore(ckpt, 3, sum, keys, version)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := r.ActiveKeys(); len(got) != len(keys) {
		t.Fatalf("restored ActiveKeys = %d entries, want %d", len(got), len(keys))
	} else {
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("restored key %d = %q, want %q", i, got[i], keys[i])
			}
		}
	}
	if r.Version() != version {
		t.Fatalf("restored version = %d, want %d", r.Version(), version)
	}
	// A fresh New over the same data must NOT match the live order here —
	// that mismatch is the reason Restore exists. female-action (7 tuples)
	// outranks male-action (3) by size, but activated second.
	fresh, err := New(checkpointDataset(d, m.Store()), 3, sum)
	if err != nil {
		t.Fatal(err)
	}
	if fk := fresh.ActiveKeys(); fk[0] == keys[0] {
		t.Fatalf("test is vacuous: fresh enumeration order %v matches activation order %v", fk, keys)
	}
	// Tuple membership must agree group-by-group.
	for i, g := range r.ActiveGroups() {
		want := m.ActiveGroups()[i]
		if g.Size() != want.Size() {
			t.Fatalf("group %d size = %d, want %d", i, g.Size(), want.Size())
		}
		if len(g.Members) != len(want.Members) {
			t.Fatalf("group %d members = %d, want %d", i, len(g.Members), len(want.Members))
		}
		for j := range g.Members {
			if g.Members[j] != want.Members[j] {
				t.Fatalf("group %d member %d = %d, want %d", i, j, g.Members[j], want.Members[j])
			}
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	d, _, _, _ := world(t)
	sum := newSummarizer(t, d)
	m, err := New(d, 3, sum)
	if err != nil {
		t.Fatal(err)
	}
	keys := m.ActiveKeys()
	ckpt := checkpointDataset(d, m.Store())

	if _, err := Restore(ckpt, 3, sum, append(keys, "9/9/9|"), m.Version()); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := Restore(ckpt, 3, sum, append(keys, keys[0]), m.Version()); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := Restore(ckpt, 3, sum, nil, m.Version()); err == nil {
		t.Fatal("missing qualifying group accepted")
	}
}

// TestRestoreContinuesIngest: a restored maintainer must keep accepting
// inserts, activating groups and publishing snapshots like the original.
func TestRestoreContinuesIngest(t *testing.T) {
	d, _, f, action := world(t)
	sum := newSummarizer(t, d)
	m, err := New(d, 3, sum)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(checkpointDataset(d, m.Store()), 3, sum, m.ActiveKeys(), m.Version())
	if err != nil {
		t.Fatal(err)
	}
	gory := d.Vocab.ID("gory")
	if err := r.Insert(model.TaggingAction{User: f, Item: action, Tags: []model.TagID{gory}}); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().ActiveGroups; got != 2 {
		t.Fatalf("active after post-restore insert = %d, want 2", got)
	}
	if r.Version() != m.Version()+1 {
		t.Fatalf("version = %d, want %d", r.Version(), m.Version()+1)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != r.Version() {
		t.Fatalf("snapshot version = %d", snap.Version)
	}
}

// TestSnapshotSchemasFrozen: a snapshot's attribute dictionaries must not
// grow when the live dataset later interns unseen values. SM-LSH-Fo sizes
// its one-hot blocks, and so its plane draw, from them, so its answer on
// the snapshot must stay byte-identical to one computed before the ingest.
func TestSnapshotSchemasFrozen(t *testing.T) {
	w, err := datagen.Generate(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Dataset
	m, err := New(ds, 5, signature.FrequencyOfSize(ds.Vocab.Size()))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	userCard, itemCard := snap.Store.UserSchema.TotalCardinality(), snap.Store.ItemSchema.TotalCardinality()
	spec, err := core.PaperProblem(1, 3, 15, 0.5, 0.5) // folds user and item similarity
	if err != nil {
		t.Fatal(err)
	}
	opts := core.LSHOptions{DPrime: 10, L: 2, Seed: 1, Mode: core.Fold}
	answer := func(e *core.Engine) string {
		r, err := e.SMLSH(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %v %x %d %d", r.Found, r.Describe(snap.Store), math.Float64bits(r.Objective), r.Support, r.CandidatesExamined)
	}
	// The reference solves on a second engine over the same snapshot, so
	// the snapshot's own engine is still cold when the ingest lands.
	ref, err := core.NewEngine(snap.Store, snap.Groups, snap.Engine.Sigs)
	if err != nil {
		t.Fatal(err)
	}
	want := answer(ref)

	unseen := func(s *model.Schema) map[string]string {
		attrs := make(map[string]string, s.Len())
		for _, name := range s.Names() {
			attrs[name] = "unseen-" + name
		}
		return attrs
	}
	if _, err := ds.AddUser(unseen(ds.UserSchema)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddItem(unseen(ds.ItemSchema)); err != nil {
		t.Fatal(err)
	}
	if got := ds.UserSchema.TotalCardinality(); got == userCard {
		t.Fatalf("live user schema did not grow (%d values)", got)
	}
	if got := snap.Store.UserSchema.TotalCardinality(); got != userCard {
		t.Fatalf("snapshot user schema grew from %d to %d values", userCard, got)
	}
	if got := snap.Store.ItemSchema.TotalCardinality(); got != itemCard {
		t.Fatalf("snapshot item schema grew from %d to %d values", itemCard, got)
	}
	if got := answer(snap.Engine); got != want {
		t.Fatalf("SM-LSH-Fo answer after live ingest of unseen values:\n got %s\nwant %s", got, want)
	}
}
