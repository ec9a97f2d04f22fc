package store

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tagdm/internal/model"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	for _, id := range []int{0, 63, 64, 129} {
		b.Set(id)
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	for _, id := range []int{0, 63, 64, 129} {
		if !b.Contains(id) {
			t.Fatalf("missing %d", id)
		}
	}
	if b.Contains(1) || b.Contains(-1) || b.Contains(1000) {
		t.Fatal("spurious membership")
	}
	if got := b.Slice(); !reflect.DeepEqual(got, []int{0, 63, 64, 129}) {
		t.Fatalf("Slice = %v", got)
	}
}

func TestBitmapSetOps(t *testing.T) {
	a := NewBitmap(100)
	b := NewBitmap(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	and := a.Clone()
	and.And(b)
	if and.Count() != 17 { // multiples of 6 below 100: 0..96
		t.Fatalf("And count = %d, want 17", and.Count())
	}
	or := a.Clone()
	or.Or(b)
	// |A|=50, |B|=34, |A∩B|=17 -> union 67
	if or.Count() != 67 {
		t.Fatalf("Or count = %d, want 67", or.Count())
	}
	if got := UnionCount([]*Bitmap{a, b}); got != 67 {
		t.Fatalf("UnionCount = %d", got)
	}
	if UnionCount(nil) != 0 {
		t.Fatal("UnionCount(nil) != 0")
	}
}

func TestBitmapGrowAndForEachStop(t *testing.T) {
	b := NewBitmap(10)
	b.Set(3)
	b.Grow(200)
	b.Set(150)
	if !b.Contains(3) || !b.Contains(150) {
		t.Fatal("grow lost bits")
	}
	seen := 0
	b.ForEach(func(id int) bool {
		seen++
		return false // stop after first
	})
	if seen != 1 {
		t.Fatalf("ForEach did not stop, saw %d", seen)
	}
}

func buildTestStore(t *testing.T) (*model.Dataset, *Store) {
	t.Helper()
	d := model.NewDataset(
		model.NewSchema("gender", "age"),
		model.NewSchema("genre", "director"),
	)
	users := []map[string]string{
		{"gender": "male", "age": "teen"},
		{"gender": "female", "age": "teen"},
		{"gender": "male", "age": "young"},
		{"gender": "female", "age": "old"},
	}
	for _, u := range users {
		if _, err := d.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	items := []map[string]string{
		{"genre": "action", "director": "cameron"},
		{"genre": "action", "director": "spielberg"},
		{"genre": "comedy", "director": "allen"},
	}
	for _, it := range items {
		if _, err := d.AddItem(it); err != nil {
			t.Fatal(err)
		}
	}
	actions := []struct {
		u, i int32
		tags []string
	}{
		{0, 0, []string{"gun", "effects"}},
		{1, 0, []string{"violence"}},
		{2, 1, []string{"war", "history"}},
		{0, 1, []string{"war"}},
		{3, 2, []string{"funny"}},
		{2, 2, []string{"witty", "funny"}},
	}
	for _, a := range actions {
		if err := d.AddAction(a.u, a.i, 0, a.tags...); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestStorePredicates(t *testing.T) {
	_, s := buildTestStore(t)
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	p, err := s.ParsePredicate(map[string]string{"gender": "male"})
	if err != nil {
		t.Fatal(err)
	}
	// male users: u0 (tuples 0, 3), u2 (tuples 2, 5)
	if got := s.Eval(p).Slice(); !reflect.DeepEqual(got, []int{0, 2, 3, 5}) {
		t.Fatalf("male tuples = %v", got)
	}
	p2, err := s.ParsePredicate(map[string]string{"gender": "male", "genre": "action"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(p2).Slice(); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("male+action tuples = %v", got)
	}
	if got := s.Count(p2); got != 3 {
		t.Fatalf("Count = %d", got)
	}
	// Empty predicate matches all tuples.
	if got := s.Eval(Predicate{}).Count(); got != 6 {
		t.Fatalf("empty predicate matched %d", got)
	}
}

func TestStoreUnknownValueMatchesNothing(t *testing.T) {
	_, s := buildTestStore(t)
	p, err := s.ParsePredicate(map[string]string{"director": "kubrick"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(p).Count(); got != 0 {
		t.Fatalf("absent value matched %d tuples", got)
	}
	if _, err := s.ParsePredicate(map[string]string{"height": "tall"}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestStoreDescribe(t *testing.T) {
	_, s := buildTestStore(t)
	p, err := s.ParsePredicate(map[string]string{"gender": "male"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Describe(p); got != "{gender=male}" {
		t.Fatalf("Describe = %q", got)
	}
}

func TestStoreTuplePayload(t *testing.T) {
	_, s := buildTestStore(t)
	if s.TupleUser(3) != 0 || s.TupleItem(3) != 1 {
		t.Fatalf("tuple 3 = (%d,%d)", s.TupleUser(3), s.TupleItem(3))
	}
	tags := s.TupleTags(2)
	if len(tags) != 2 {
		t.Fatalf("tuple 2 has %d tags", len(tags))
	}
	if s.Vocab.Tag(tags[0]) != "war" {
		t.Fatalf("tag = %q", s.Vocab.Tag(tags[0]))
	}
}

func TestStoreAppendMaintainsPostings(t *testing.T) {
	d, s := buildTestStore(t)
	before := s.Len()
	tagID := d.Vocab.ID("epic")
	err := s.Append(d, model.TaggingAction{User: 1, Item: 1, Tags: []model.TagID{tagID}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != before+1 {
		t.Fatalf("Len = %d", s.Len())
	}
	p, err := s.ParsePredicate(map[string]string{"gender": "female", "genre": "action"})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Eval(p).Slice()
	want := []int{1, before} // original tuple 1 plus the appended one
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after append, female+action = %v, want %v", got, want)
	}
	if err := s.Append(d, model.TaggingAction{User: 99, Item: 0}); err == nil {
		t.Fatal("append with unknown user accepted")
	}
}

func TestSupportDefinition(t *testing.T) {
	_, s := buildTestStore(t)
	pm, _ := s.ParsePredicate(map[string]string{"gender": "male"})
	pa, _ := s.ParsePredicate(map[string]string{"genre": "action"})
	g1 := s.Eval(pm) // {0,2,3,5}
	g2 := s.Eval(pa) // {0,1,2,3}
	if got := Support([]*Bitmap{g1, g2}); got != 5 {
		t.Fatalf("Support = %d, want 5", got)
	}
}

// Property: for random bit sets, bitmap set operations agree with map-based
// reference sets.
func TestQuickBitmapAgainstReference(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		const universe = 256
		a, b := NewBitmap(universe), NewBitmap(universe)
		ra, rb := map[int]bool{}, map[int]bool{}
		for _, x := range xs {
			a.Set(int(x))
			ra[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			rb[int(y)] = true
		}
		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		for i := 0; i < universe; i++ {
			if and.Contains(i) != (ra[i] && rb[i]) {
				return false
			}
			if or.Contains(i) != (ra[i] || rb[i]) {
				return false
			}
		}
		return and.Count() <= or.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eval on a random single-term predicate returns exactly the
// tuples whose column carries the value.
func TestQuickEvalMatchesScan(t *testing.T) {
	d, s := buildTestStore(t)
	_ = d
	rng := rand.New(rand.NewSource(11))
	cols := s.Columns()
	for trial := 0; trial < 100; trial++ {
		col := cols[rng.Intn(len(cols))]
		attr := s.ColumnAttr(col)
		if attr.Cardinality() == 0 {
			continue
		}
		val := model.ValueCode(1 + rng.Intn(attr.Cardinality()))
		bm := s.Eval(Predicate{Terms: []Term{{Col: col, Value: val}}})
		for tu := 0; tu < s.Len(); tu++ {
			want := s.Value(tu, col) == val
			if bm.Contains(tu) != want {
				t.Fatalf("col %v val %d tuple %d: bitmap %v scan %v",
					col, val, tu, bm.Contains(tu), want)
			}
		}
	}
}

func TestStoreCloneIsolation(t *testing.T) {
	d, s := buildTestStore(t)
	clone := s.Clone()
	if clone.Len() != s.Len() {
		t.Fatalf("clone Len = %d, want %d", clone.Len(), s.Len())
	}
	pred, err := clone.ParsePredicate(map[string]string{"genre": "action"})
	if err != nil {
		t.Fatal(err)
	}
	before := clone.Count(pred)

	// Appends to the original must not leak into the clone: not the tuple
	// count, not the posting lists, not the column vectors.
	for i := 0; i < 3; i++ {
		if err := s.Append(d, model.TaggingAction{User: 0, Item: 0, Tags: []model.TagID{0}}); err != nil {
			t.Fatal(err)
		}
	}
	if clone.Len() != 6 {
		t.Fatalf("clone grew with the original: Len = %d", clone.Len())
	}
	if got := clone.Count(pred); got != before {
		t.Fatalf("clone postings changed: %d -> %d", before, got)
	}
	if s.Count(pred) == before {
		t.Fatal("original postings did not grow")
	}
	if got := clone.Value(0, Column{SideUser, 0}); got != s.Value(0, Column{SideUser, 0}) {
		t.Fatal("clone column data differs from original prefix")
	}
}
