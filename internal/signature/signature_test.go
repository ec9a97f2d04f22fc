package signature

import (
	"math"
	"slices"
	"strings"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/store"
)

// testWorld builds a store with two clearly-themed group populations:
// action movies tagged from {gun, fight, explosions} and comedies tagged
// from {funny, witty, hilarious}. Every (user, item-genre) profile repeats
// enough to form groups.
func testWorld(t *testing.T) (*store.Store, []*groups.Group) {
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
	comedy, err := d.AddItem(map[string]string{"genre": "comedy"})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	actionTags := []string{"gun", "fight", "explosions"}
	comedyTags := []string{"funny", "witty", "hilarious"}
	for i := 0; i < 6; i++ {
		must(d.AddAction(m, action, 0, actionTags[i%3], actionTags[(i+1)%3]))
		must(d.AddAction(f, action, 0, actionTags[i%3]))
		must(d.AddAction(m, comedy, 0, comedyTags[i%3], comedyTags[(i+1)%3]))
		must(d.AddAction(f, comedy, 0, comedyTags[i%3]))
	}
	// One extra "gun" action so action-group tag counts are not uniform
	// (exercises tag-cloud size bucketing).
	must(d.AddAction(m, action, 0, "gun"))
	s, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 3}).FullyDescribed()
	if len(gs) != 4 {
		t.Fatalf("expected 4 groups, got %d", len(gs))
	}
	return s, gs
}

// groupGenre returns "action" or "comedy" for a test group.
func groupGenre(s *store.Store, g *groups.Group) string {
	desc := g.Describe(s)
	if strings.Contains(desc, "genre=action") {
		return "action"
	}
	return "comedy"
}

func TestFrequencySummarizer(t *testing.T) {
	s, gs := testWorld(t)
	sum := NewFrequency(s)
	if sum.Dim() != s.Vocab.Size() {
		t.Fatalf("Dim = %d", sum.Dim())
	}
	sig := sum.Summarize(s, gs[0])
	if sig.Dim() != s.Vocab.Size() {
		t.Fatalf("signature dim = %d", sig.Dim())
	}
	var total float64
	for _, w := range sig.Values() {
		total += w
	}
	bag := groups.TagBag(s, gs[0])
	var want int
	for _, n := range bag {
		want += n
	}
	if total != float64(want) {
		t.Fatalf("frequency mass = %v, want %d", total, want)
	}
	if sum.Name() != "frequency" {
		t.Fatal("name")
	}
}

func TestFrequencyCosineSeparatesThemes(t *testing.T) {
	s, gs := testWorld(t)
	sum := NewFrequency(s)
	sigs := SummarizeAll(sum, s, gs)
	for i := range gs {
		for j := i + 1; j < len(gs); j++ {
			c := sigs[i].Cosine(sigs[j])
			sameTheme := groupGenre(s, gs[i]) == groupGenre(s, gs[j])
			if sameTheme && c < 0.5 {
				t.Errorf("same-theme groups %d,%d cosine %v", i, j, c)
			}
			if !sameTheme && c > 0.1 {
				t.Errorf("cross-theme groups %d,%d cosine %v", i, j, c)
			}
		}
	}
}

func TestTFIDF(t *testing.T) {
	s, gs := testWorld(t)
	sum := FitTFIDF(s, gs)
	sigs := SummarizeAll(sum, s, gs)
	// Theme separation must survive tf*idf weighting.
	for i := range gs {
		for j := i + 1; j < len(gs); j++ {
			c := sigs[i].Cosine(sigs[j])
			sameTheme := groupGenre(s, gs[i]) == groupGenre(s, gs[j])
			if sameTheme && c < 0.5 {
				t.Errorf("same-theme tfidf cosine %v", c)
			}
			if !sameTheme && c > 0.1 {
				t.Errorf("cross-theme tfidf cosine %v", c)
			}
		}
	}
	if sum.Name() != "tfidf" {
		t.Fatal("name")
	}
	// idf of a tag in every group must be lower than idf of a rarer tag.
	// "gun" appears in action groups only; nothing appears everywhere, so
	// compare a present tag against an unused dimension (idf max).
	gun, _ := s.Vocab.Lookup("gun")
	if sum.idf[gun] >= math.Log(float64(1+len(gs)))+1 {
		t.Fatal("idf of used tag should be below max")
	}
}

func TestLDASummarizer(t *testing.T) {
	s, gs := testWorld(t)
	sum, err := TrainLDA(s, gs, 2, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Dim() != 2 {
		t.Fatalf("Dim = %d", sum.Dim())
	}
	sigs := SummarizeAll(sum, s, gs)
	for i, sig := range sigs {
		var sumw float64
		for _, w := range sig.Values() {
			sumw += w
		}
		if math.Abs(sumw-1) > 1e-9 {
			t.Fatalf("group %d theta sums to %v", i, sumw)
		}
	}
	for i := range gs {
		for j := i + 1; j < len(gs); j++ {
			c := sigs[i].Cosine(sigs[j])
			sameTheme := groupGenre(s, gs[i]) == groupGenre(s, gs[j])
			if sameTheme && c < 0.8 {
				t.Errorf("same-theme lda cosine %v between %q and %q",
					c, gs[i].Describe(s), gs[j].Describe(s))
			}
			if !sameTheme && c > 0.5 {
				t.Errorf("cross-theme lda cosine %v between %q and %q",
					c, gs[i].Describe(s), gs[j].Describe(s))
			}
		}
	}
}

func TestLDADeterministicPerGroup(t *testing.T) {
	s, gs := testWorld(t)
	sum, err := TrainLDA(s, gs, 2, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := sum.Summarize(s, gs[0])
	b := sum.Summarize(s, gs[0])
	if !slices.Equal(a.Dense(), b.Dense()) {
		t.Fatal("summarize not deterministic")
	}
}

func TestCloud(t *testing.T) {
	s, gs := testWorld(t)
	// Find an action group; its cloud must be dominated by action tags.
	var g *groups.Group
	for _, cand := range gs {
		if groupGenre(s, cand) == "action" {
			g = cand
			break
		}
	}
	entries := Cloud(s, g, 10)
	if len(entries) == 0 {
		t.Fatal("empty cloud")
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Count < entries[i].Count {
			t.Fatal("cloud not sorted by count")
		}
	}
	if entries[0].Size != 5 {
		t.Fatalf("top entry size = %d", entries[0].Size)
	}
	for _, e := range entries {
		switch e.Tag {
		case "gun", "fight", "explosions":
		default:
			t.Fatalf("unexpected tag %q in action cloud", e.Tag)
		}
		if e.Size < 1 || e.Size > 5 {
			t.Fatalf("size %d out of range", e.Size)
		}
	}
	text := RenderCloud(entries)
	if !strings.Contains(text, "(") {
		t.Fatalf("render = %q", text)
	}
	// TopN truncation.
	if got := Cloud(s, g, 1); len(got) != 1 {
		t.Fatalf("topN=1 returned %d", len(got))
	}
}

func TestCloudUniformCounts(t *testing.T) {
	// When all counts are equal the span is zero; every entry gets the
	// middle bucket.
	d := model.NewDataset(model.NewSchema("g"), model.NewSchema("i"))
	u, _ := d.AddUser(map[string]string{"g": "x"})
	it, _ := d.AddItem(map[string]string{"i": "y"})
	for _, tag := range []string{"a", "b", "c"} {
		if err := d.AddAction(u, it, 0, tag); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 1}).FullyDescribed()
	entries := Cloud(s, gs[0], 0)
	for _, e := range entries {
		if e.Size != 3 {
			t.Fatalf("uniform cloud size = %d, want 3", e.Size)
		}
	}
}
