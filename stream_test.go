package tagdm

import (
	"context"
	"math"
	"testing"

	"tagdm/internal/core"
)

func streamWorld(t *testing.T) (*Dataset, int32, int32, int32) {
	t.Helper()
	ds := NewDataset(NewSchema("gender"), NewSchema("genre"))
	male, err := ds.AddUser(map[string]string{"gender": "male"})
	if err != nil {
		t.Fatal(err)
	}
	female, err := ds.AddUser(map[string]string{"gender": "female"})
	if err != nil {
		t.Fatal(err)
	}
	item, err := ds.AddItem(map[string]string{"genre": "action"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"gun", "violence"} {
		ds.Vocab.ID(tag)
	}
	for i := 0; i < 5; i++ {
		if err := ds.AddAction(male, item, 0, "gun"); err != nil {
			t.Fatal(err)
		}
	}
	return ds, male, female, item
}

func TestMaintainerValidation(t *testing.T) {
	ds, _, _, _ := streamWorld(t)
	if _, err := NewMaintainer(ds, Options{Within: map[string]string{"gender": "male"}, Signatures: SignatureFrequency}); err == nil {
		t.Fatal("Within accepted for a stream")
	}
	if _, err := NewMaintainer(ds, Options{Signatures: SignatureLDA}); err == nil {
		t.Fatal("LDA without custom summarizer accepted")
	}
}

func TestMaintainerInsertAndSolve(t *testing.T) {
	ds, _, female, item := streamWorld(t)
	m, err := NewMaintainer(ds, Options{Signatures: SignatureFrequency, MinGroupTuples: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumGroups() != 1 || m.NumActions() != 5 {
		t.Fatalf("initial state: %d groups, %d actions", m.NumGroups(), m.NumActions())
	}
	spec, err := Problem(6, 2, 5, 0.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.Insert(female, item, 0, "violence"); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumGroups() != 2 {
		t.Fatalf("groups after stream = %d", m.NumGroups())
	}
	res, err := m.Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Groups) != 2 {
		t.Fatalf("found=%v groups=%d", res.Found, len(res.Groups))
	}
	if res.Objective < 0.9 {
		t.Fatalf("disjoint tag sets should be near-fully diverse, got %v", res.Objective)
	}
	descs := m.Describe(res)
	if len(descs) != 2 {
		t.Fatal("describe mismatch")
	}

	// One more action grows a group: the next Solve takes a new snapshot
	// whose matrices rebuild that group's rows from the previous epoch's,
	// and answers as a scratch engine over the same snapshot does.
	if err := m.Insert(female, item, 0, "violence"); err != nil {
		t.Fatal(err)
	}
	res2, err := m.Solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MatrixRebuilds == 0 {
		t.Fatalf("second Solve carried no matrix: %d builds, %d rebuilds, %d hits",
			res2.MatrixBuilds, res2.MatrixRebuilds, res2.MatrixHits)
	}
	if m.snap.Version != m.Epoch() {
		t.Fatalf("solved snapshot at version %d, maintainer at %d", m.snap.Version, m.Epoch())
	}
	scratch, err := core.NewEngine(m.snap.Store, m.snap.Groups, m.snap.Engine.Sigs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.Solve(context.Background(), spec, core.SolveOptions{
		LSH: core.LSHOptions{Seed: m.opts.Seed, Mode: core.Fold},
		FDP: core.FDPOptions{Mode: core.Fold},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.Found != res2.Found || len(want.Groups) != len(res2.Groups) ||
		math.Float64bits(want.Objective) != math.Float64bits(res2.Objective) || want.Support != res2.Support {
		t.Fatalf("carried answer %+v, scratch answer %+v", res2, want)
	}
	for i := range want.Groups {
		if want.Groups[i].ID != res2.Groups[i].ID {
			t.Fatalf("group %d: carried %d, scratch %d", i, res2.Groups[i].ID, want.Groups[i].ID)
		}
	}
}

func TestMaintainerRejectsUnknownUser(t *testing.T) {
	ds, _, _, item := streamWorld(t)
	m, err := NewMaintainer(ds, Options{Signatures: SignatureFrequency, MinGroupTuples: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(99, item, 0, "x"); err == nil {
		t.Fatal("unknown user accepted")
	}
}
