package mining

import (
	"math"
	"testing"
	"testing/quick"

	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// frequencyView summarizes gs by tag frequency and returns the sparse view
// the tag measure reads.
func frequencyView(t *testing.T, s *store.Store, gs []*groups.Group) *signature.Sparse {
	t.Helper()
	v, err := signature.NewSparse(signature.SummarizeAll(signature.NewFrequency(s), s, gs), nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func world(t *testing.T) (*store.Store, []*groups.Group) {
	t.Helper()
	d := model.NewDataset(
		model.NewSchema("gender", "age"),
		model.NewSchema("genre", "director"),
	)
	type up struct{ g, a string }
	usersSpec := []up{
		{"male", "teen"}, {"male", "teen"},
		{"female", "teen"},
		{"male", "young"},
	}
	var uids []int32
	for _, u := range usersSpec {
		id, err := d.AddUser(map[string]string{"gender": u.g, "age": u.a})
		if err != nil {
			t.Fatal(err)
		}
		uids = append(uids, id)
	}
	type ip struct{ g, dir string }
	itemsSpec := []ip{
		{"action", "cameron"}, {"action", "spielberg"}, {"comedy", "allen"},
	}
	var iids []int32
	for _, it := range itemsSpec {
		id, err := d.AddItem(map[string]string{"genre": it.g, "director": it.dir})
		if err != nil {
			t.Fatal(err)
		}
		iids = append(iids, id)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Group A: male teens on cameron-action (3 tuples, gun/fight tags).
	must(d.AddAction(uids[0], iids[0], 0, "gun", "fight"))
	must(d.AddAction(uids[1], iids[0], 0, "gun"))
	must(d.AddAction(uids[0], iids[0], 0, "fight"))
	// Group B: male teens on spielberg-action (2 tuples, gun tags).
	must(d.AddAction(uids[0], iids[1], 0, "gun"))
	must(d.AddAction(uids[1], iids[1], 0, "gun", "war"))
	// Group C: female teens on allen-comedy (2 tuples, funny tags).
	must(d.AddAction(uids[2], iids[2], 0, "funny"))
	must(d.AddAction(uids[2], iids[2], 0, "funny", "witty"))
	// Group D: young males on allen-comedy (2 tuples, witty tags).
	must(d.AddAction(uids[3], iids[2], 0, "witty"))
	must(d.AddAction(uids[3], iids[2], 0, "witty", "dry"))
	s, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 2}).FullyDescribed()
	if len(gs) != 4 {
		t.Fatalf("got %d groups", len(gs))
	}
	return s, gs
}

func findByDesc(t *testing.T, s *store.Store, gs []*groups.Group, substr string) *groups.Group {
	t.Helper()
	for _, g := range gs {
		if contains(g.Describe(s), substr) {
			return g
		}
	}
	t.Fatalf("no group matching %q", substr)
	return nil
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestStructuralUserSimilarity(t *testing.T) {
	s, gs := world(t)
	sim := StructuralUser(s)
	a := findByDesc(t, s, gs, "director=cameron")
	b := findByDesc(t, s, gs, "director=spielberg")
	c := findByDesc(t, s, gs, "gender=female")
	// A and B have identical user descriptions (male, teen) -> 1.0.
	if got := sim(a, b); got != 1.0 {
		t.Fatalf("sim(A,B) = %v, want 1", got)
	}
	// A (male, teen) vs C (female, teen): share age only -> 0.5.
	if got := sim(a, c); got != 0.5 {
		t.Fatalf("sim(A,C) = %v, want 0.5", got)
	}
	div := Inverse(sim)
	if got := div(a, c); got != 0.5 {
		t.Fatalf("div(A,C) = %v", got)
	}
	if got := div(a, b); got != 0 {
		t.Fatalf("div(A,B) = %v", got)
	}
}

func TestStructuralItemSimilarity(t *testing.T) {
	s, gs := world(t)
	sim := StructuralItem(s)
	a := findByDesc(t, s, gs, "director=cameron")
	b := findByDesc(t, s, gs, "director=spielberg")
	// Same genre, different director -> 0.5.
	if got := sim(a, b); got != 0.5 {
		t.Fatalf("sim(A,B) items = %v, want 0.5", got)
	}
}

func TestJaccard(t *testing.T) {
	s, gs := world(t)
	itemJ := JaccardItems(s, gs)
	userJ := JaccardUsers(s, gs)
	a := findByDesc(t, s, gs, "director=cameron")
	b := findByDesc(t, s, gs, "director=spielberg")
	c := findByDesc(t, s, gs, "gender=female")
	// A tags item0 only, B tags item1 only -> Jaccard 0.
	if got := itemJ(a, b); got != 0 {
		t.Fatalf("itemJ(A,B) = %v", got)
	}
	// A users {0,1}, B users {0,1} -> 1.
	if got := userJ(a, b); got != 1 {
		t.Fatalf("userJ(A,B) = %v", got)
	}
	// A users {0,1}, C users {2} -> 0.
	if got := userJ(a, c); got != 0 {
		t.Fatalf("userJ(A,C) = %v", got)
	}
}

func TestTagCosinePair(t *testing.T) {
	s, gs := world(t)
	sigs := frequencyView(t, s, gs)
	pair := TagCosine(sigs)
	a := findByDesc(t, s, gs, "director=cameron")   // gun x2, fight x2
	b := findByDesc(t, s, gs, "director=spielberg") // gun x2, war x1
	c := findByDesc(t, s, gs, "gender=female")      // funny x2, witty x1
	if got := pair(a, b); got <= 0.3 {
		t.Fatalf("tag cosine A,B = %v, want high", got)
	}
	if got := pair(a, c); got != 0 {
		t.Fatalf("tag cosine A,C = %v, want 0", got)
	}
}

func TestFuncEvalAggregation(t *testing.T) {
	s, gs := world(t)
	f := For(s, nil, Users, Similarity)
	if got := f.Eval(gs[:1]); got != 0 {
		t.Fatalf("singleton Eval = %v", got)
	}
	a := findByDesc(t, s, gs, "director=cameron")
	b := findByDesc(t, s, gs, "director=spielberg")
	c := findByDesc(t, s, gs, "gender=female")
	set := []*groups.Group{a, b, c}
	// pairs: (a,b)=1, (a,c)=0.5, (b,c)=0.5 -> mean = 2/3.
	if got := f.Eval(set); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("mean Eval = %v", got)
	}
	fmin := Func{Dim: Users, Meas: Similarity, Pair: StructuralUser(s), Agg: Min}
	if got := fmin.Eval(set); got != 0.5 {
		t.Fatalf("min Eval = %v", got)
	}
	if f.String() != "similarity(users)" {
		t.Fatalf("String = %q", f.String())
	}
}

func TestForBindsAllDimensions(t *testing.T) {
	s, gs := world(t)
	sigs := frequencyView(t, s, gs)
	for _, dim := range []Dimension{Users, Items, Tags} {
		for _, meas := range []Measure{Similarity, Diversity} {
			f := For(s, sigs, dim, meas)
			v := f.Eval(gs)
			if v < 0 || v > 1 {
				t.Fatalf("%s out of range: %v", f, v)
			}
		}
	}
}

func TestMeasureInvert(t *testing.T) {
	if Similarity.Invert() != Diversity || Diversity.Invert() != Similarity {
		t.Fatal("Invert broken")
	}
	if Users.String() != "users" || Items.String() != "items" || Tags.String() != "tags" {
		t.Fatal("Dimension.String broken")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"new york", "newark", 3},
		{"same", "same", 0},
		{"héllo", "hello", 1}, // unicode-aware
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestStringSimilarity(t *testing.T) {
	if StringSimilarity("", "") != 1 {
		t.Fatal("empty strings should be identical")
	}
	if StringSimilarity("abc", "abc") != 1 {
		t.Fatal("equal strings similarity != 1")
	}
	if got := StringSimilarity("abc", "xyz"); got != 0 {
		t.Fatalf("disjoint similarity = %v", got)
	}
}

// Property: similarity + inverse-diversity always sum to 1 for any pair.
func TestQuickInverseComplement(t *testing.T) {
	s, gs := world(t)
	sim := StructuralUser(s)
	div := Inverse(sim)
	for i := range gs {
		for j := range gs {
			if math.Abs(sim(gs[i], gs[j])+div(gs[i], gs[j])-1) > 1e-12 {
				t.Fatalf("sim+div != 1 for pair %d,%d", i, j)
			}
		}
	}
}

// Property: edit distance is a metric on random short strings: symmetry,
// identity, triangle inequality.
func TestQuickEditDistanceMetric(t *testing.T) {
	trim := func(s string) string {
		r := []rune(s)
		if len(r) > 8 {
			r = r[:8]
		}
		return string(r)
	}
	f := func(a, b, c string) bool {
		a, b, c = trim(a), trim(b), trim(c)
		dab := EditDistance(a, b)
		dba := EditDistance(b, a)
		dbc := EditDistance(b, c)
		dac := EditDistance(a, c)
		if dab != dba {
			return false
		}
		if (a == b) != (dab == 0) {
			return false
		}
		return dac <= dab+dbc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
