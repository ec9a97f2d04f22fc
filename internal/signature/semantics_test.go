package signature

import (
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/store"
)

func semanticsWorld(t *testing.T) (*store.Store, []*groups.Group) {
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
	it, err := d.AddItem(map[string]string{"genre": "action"})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Male group uses "movie"/"film" (synonyms) + violence-flavored tags.
	must(d.AddAction(m, it, 0, "movie", "gunfight"))
	must(d.AddAction(m, it, 0, "film", "gun-battle"))
	// Female group uses "flick" + humor tags.
	must(d.AddAction(f, it, 0, "flick", "hilarious"))
	must(d.AddAction(f, it, 0, "flick", "so-funny"))
	s, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 2}).FullyDescribed()
	if len(gs) != 2 {
		t.Fatalf("got %d groups", len(gs))
	}
	return s, gs
}

func TestCategoryMapper(t *testing.T) {
	s, gs := semanticsWorld(t)
	mapper := NewCategoryMapper([]CategoryRule{
		{Category: "violence", Substrings: []string{"gun"}},
		{Category: "humor", Exact: []string{"hilarious"}, Substrings: []string{"funny"}},
		{Category: "medium", Exact: []string{"movie", "film", "flick"}},
	})
	if mapper.Dim() != 4 { // three rules + other
		t.Fatalf("Dim = %d", mapper.Dim())
	}
	cats := mapper.Categories()
	if cats[len(cats)-1] != CategoryOther {
		t.Fatal("other bucket not last")
	}
	// Categorize specifics.
	if cats[mapper.Categorize("GUNFIGHT")] != "violence" {
		t.Fatal("substring match failed (case)")
	}
	if cats[mapper.Categorize("movie")] != "medium" {
		t.Fatal("exact match failed")
	}
	if cats[mapper.Categorize("unrelated")] != CategoryOther {
		t.Fatal("fallback failed")
	}
	// Signatures: both groups share the medium category; they differ on
	// violence vs humor.
	sigA := mapper.Summarize(s, gs[0])
	sigB := mapper.Summarize(s, gs[1])
	c := sigA.Cosine(sigB)
	if c <= 0.2 || c >= 0.9 {
		t.Fatalf("category cosine = %v, want partial overlap", c)
	}
	if mapper.Name() != "category-mapper" {
		t.Fatal("name")
	}
}

func TestSynonymTable(t *testing.T) {
	table := NewSynonymTable([][]string{
		{"movie", "film", "flick"},
		{"funny", "hilarious", "so-funny"},
		{"movie", "cinema"}, // overlapping synset: first mapping wins
	})
	if table.Canonical("FILM") != "movie" {
		t.Fatal("synonym not canonicalized")
	}
	if table.Canonical("cinema") != "movie" {
		t.Fatal("overlapping synset head not propagated")
	}
	if table.Canonical("gun") != "gun" {
		t.Fatal("unclaimed tag should map to itself")
	}
}

func TestSynonymFrequency(t *testing.T) {
	s, gs := semanticsWorld(t)
	table := NewSynonymTable([][]string{
		{"movie", "film", "flick"},
		{"funny", "hilarious", "so-funny"},
	})
	sum := NewSynonymFrequency(s, table)
	plain := NewFrequency(s)

	// Plain frequency sees "movie", "film" and "flick" as unrelated, so
	// the two groups look almost orthogonal; synonym folding makes both
	// load on the shared "movie" dimension.
	pA := plain.Summarize(s, gs[0])
	pB := plain.Summarize(s, gs[1])
	sA := sum.Summarize(s, gs[0])
	sB := sum.Summarize(s, gs[1])
	before := pA.Cosine(pB)
	after := sA.Cosine(sB)
	if after <= before {
		t.Fatalf("synonym folding did not raise similarity: %v -> %v", before, after)
	}
	if sum.Dim() >= plain.Dim() {
		t.Fatalf("folded dim %d should be below raw dim %d", sum.Dim(), plain.Dim())
	}
	if sum.Name() != "synonym-frequency" {
		t.Fatal("name")
	}
	// Mass is conserved: total weight equals the group's tag count.
	var mass float64
	for _, w := range sA.Values() {
		mass += w
	}
	bag := groups.TagBag(s, gs[0])
	var want int
	for _, n := range bag {
		want += n
	}
	if mass != float64(want) {
		t.Fatalf("mass %v, want %d", mass, want)
	}
}
