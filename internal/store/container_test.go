package store

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tagdm/internal/model"
)

// checkShape asserts the container invariants every bitmap keeps: keys
// sorted and unique, no empty container, cached cardinality exact, arrays
// sorted and at most the ceiling when the last writer was a kernel
// (fitted), bitsets no longer than their span, and no id outside the
// universe. Set may leave a bitset under the ceiling, so fitted also
// demands that bitsets sit above it.
func checkShape(t *testing.T, label string, b *Bitmap, fitted bool) {
	t.Helper()
	for i := range b.ctrs {
		c := &b.ctrs[i]
		if i > 0 && b.ctrs[i-1].key >= c.key {
			t.Fatalf("%s: container keys out of order at %d", label, i)
		}
		if c.card == 0 {
			t.Fatalf("%s: empty container %d", label, c.key)
		}
		max, span := b.shape(c.key)
		if c.isArr {
			if int(c.card) != len(c.arr) {
				t.Fatalf("%s: array card %d, len %d", label, c.card, len(c.arr))
			}
			for j := 1; j < len(c.arr); j++ {
				if c.arr[j-1] >= c.arr[j] {
					t.Fatalf("%s: array not strictly sorted", label)
				}
			}
			if int(c.card) > max {
				t.Fatalf("%s: array of %d ids above the ceiling %d", label, c.card, max)
			}
			if last := int(c.key)<<chunkBits + int(c.arr[len(c.arr)-1]); last >= b.n {
				t.Fatalf("%s: id %d outside universe %d", label, last, b.n)
			}
			continue
		}
		if len(c.bits) > span {
			t.Fatalf("%s: bitset of %d words, span %d", label, len(c.bits), span)
		}
		n := 0
		for _, w := range c.bits {
			n += bits.OnesCount64(w)
		}
		if n != int(c.card) {
			t.Fatalf("%s: bitset card %d, popcount %d", label, c.card, n)
		}
		if fitted && n <= max {
			t.Fatalf("%s: bitset of %d ids at or under the ceiling %d", label, n, max)
		}
		if lim := b.n - int(c.key)<<chunkBits; lim < len(c.bits)*wordBits {
			if c.bits[lim/wordBits]>>(lim%wordBits) != 0 {
				t.Fatalf("%s: bitset holds ids past universe %d", label, b.n)
			}
		}
	}
}

// refOf returns the sorted id list of a map reference.
func refOf(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// assertIDs checks a bitmap's count, contents and universe against a
// sorted reference.
func assertIDs(t *testing.T, label string, b *Bitmap, want []int, universe int) {
	t.Helper()
	if b.Universe() != universe {
		t.Fatalf("%s: universe %d, want %d", label, b.Universe(), universe)
	}
	if b.Count() != len(want) {
		t.Fatalf("%s: count %d, want %d", label, b.Count(), len(want))
	}
	if got := b.Slice(); len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ids differ from the reference", label)
	}
}

// buildBitmap makes a bitmap over universe n holding ids, either set over
// the final universe (sparse chunks become arrays) or grown one id at a
// time as incremental ingest does (every chunk a bitset, tails short).
func buildBitmap(n int, ids []int, grown bool) *Bitmap {
	if !grown {
		b := NewBitmap(n)
		for _, id := range ids {
			b.Set(id)
		}
		return b
	}
	b := NewBitmap(0)
	for _, id := range ids {
		b.Grow(id + 1)
		b.Set(id)
	}
	b.Grow(n)
	return b
}

// TestOrStaleUniverseRegression pins the headline bugfix: unioning in a
// bitmap whose larger universe still fits the receiver's word count (60 ->
// 64 ids, same single word) must grow Universe, or Contains denies ids
// that are present — silently corrupting incremental group maintenance
// after small appends.
func TestOrStaleUniverseRegression(t *testing.T) {
	b := NewBitmap(60)
	b.Set(3)
	other := NewBitmap(64)
	other.Set(63)
	b.Or(other)
	if got := b.Universe(); got != 64 {
		t.Fatalf("Universe after same-word-count Or = %d, want 64", got)
	}
	if !b.Contains(63) {
		t.Fatal("Contains(63) = false after Or set bit 63")
	}
	if got := b.Slice(); !reflect.DeepEqual(got, []int{3, 63}) {
		t.Fatalf("Slice = %v, want [3 63]", got)
	}

	// Grow-then-Or, the incremental callers' order, must agree with Or's
	// own growth.
	g := NewBitmap(60)
	g.Set(3)
	g.Grow(64)
	g.Or(other)
	if g.Universe() != b.Universe() || g.Count() != b.Count() {
		t.Fatalf("Grow-then-Or (%d ids, universe %d) disagrees with Or growth (%d, %d)",
			g.Count(), g.Universe(), b.Count(), b.Universe())
	}
}

// TestUnionCountMixedUniverses pins the spec UnionCount inherits for >2
// maps when maps[0] has the smallest universe: Clone+Or growth must
// preserve every operand's ids, whatever order universes come in,
// including universes on both sides of a chunk boundary.
func TestUnionCountMixedUniverses(t *testing.T) {
	build := func(n int, ids ...int) *Bitmap { return buildBitmap(n, ids, false) }
	cases := []struct {
		name string
		maps []*Bitmap
		want int
	}{
		{"first smallest, same word", []*Bitmap{
			build(10, 1, 2), build(40, 30), build(64, 63),
		}, 4},
		{"first smallest, more words", []*Bitmap{
			build(10, 1), build(200, 150, 199), build(500, 1, 450),
		}, 4},
		{"descending universes", []*Bitmap{
			build(500, 450), build(200, 150), build(10, 1),
		}, 3},
		{"middle smallest with overlap", []*Bitmap{
			build(300, 10, 20), build(15, 10, 14), build(300, 20, 299),
		}, 4},
		{"four maps interleaved", []*Bitmap{
			build(64, 0), build(130, 128), build(65, 64), build(700, 650),
		}, 4},
		{"across the chunk boundary", []*Bitmap{
			build(10, 1), build(chunkSize, 1, chunkSize-1), build(70000, chunkSize, 69999),
		}, 4},
	}
	for _, tc := range cases {
		if got := UnionCount(tc.maps); got != tc.want {
			t.Errorf("%s: UnionCount = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// randomIDs draws about density*n distinct ids below n.
func randomIDs(rng *rand.Rand, n int, density float64) []int {
	target := int(float64(n) * density)
	if target < 1 {
		target = 1
	}
	ids := make([]int, target)
	for i := range ids {
		ids[i] = rng.Intn(n)
	}
	return ids
}

func refSet(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// TestKernelEquivalenceRandomPairs is the property-style kernel audit:
// every kernel, on random pairs with universes below, at and above 2^16,
// mismatched universes, densities on both sides of the array ceiling and
// both build paths (full-universe and grown), must match a map reference —
// including Or's universe growth and CopyFrom's exact-universe clamp — and
// leave every container in shape.
func TestKernelEquivalenceRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	densities := []float64{0.0005, 0.003, 0.01, 0.2, 0.9}
	universes := []int{1, 60, 1500, 33322, chunkSize - 1, chunkSize, chunkSize + 1, 200_000}
	for trial := 0; trial < 120; trial++ {
		na := universes[rng.Intn(len(universes))]
		nb := universes[rng.Intn(len(universes))]
		if trial%3 == 0 {
			na, nb = 1+rng.Intn(200_000), 1+rng.Intn(200_000)
		}
		idsA := randomIDs(rng, na, densities[trial%len(densities)])
		idsB := randomIDs(rng, nb, densities[(trial+2)%len(densities)])
		refA, refB := refSet(idsA), refSet(idsB)
		a := buildBitmap(na, idsA, trial%4 == 1)
		b := buildBitmap(nb, idsB, trial%4 == 2)
		nmax := max(na, nb)
		label := func(op string) string { return fmt.Sprintf("trial %d (%d vs %d ids): %s", trial, na, nb, op) }

		union, inter := map[int]bool{}, map[int]bool{}
		for id := range refA {
			union[id] = true
			if refB[id] {
				inter[id] = true
			}
		}
		for id := range refB {
			union[id] = true
		}
		wantU, wantI := refOf(union), refOf(inter)

		assertIDs(t, label("a"), a, refOf(refA), na)
		checkShape(t, label("a"), a, false)
		for probe := 0; probe < 50; probe++ {
			id := rng.Intn(nmax+10) - 5
			if got := a.Contains(id); got != refA[id] {
				t.Fatalf("trial %d: Contains(%d) = %v, want %v", trial, id, got, refA[id])
			}
		}
		if got := a.OrCount(b); got != len(wantU) {
			t.Fatalf("trial %d: OrCount = %d, want %d", trial, got, len(wantU))
		}
		if got := b.OrCount(a); got != len(wantU) {
			t.Fatalf("trial %d: OrCount reversed = %d, want %d", trial, got, len(wantU))
		}

		// UnionCountInto into a dirty reused dst of the exact and of a
		// larger universe, then the in-place accumulator alias.
		for _, extra := range []int{0, 7, chunkSize} {
			dst := NewBitmap(nmax + extra)
			dst.Set(0)
			dst.Set(nmax + extra - 1) // stale content a correct kernel must clear
			if got := a.UnionCountInto(b, dst); got != len(wantU) {
				t.Fatalf("trial %d: UnionCountInto = %d, want %d", trial, got, len(wantU))
			}
			assertIDs(t, label("UnionCountInto"), dst, wantU, nmax+extra)
			checkShape(t, label("UnionCountInto"), dst, true)
			if got := dst.UnionCountInto(b, dst); got != len(wantU) {
				t.Fatalf("trial %d: aliased UnionCountInto = %d, want %d", trial, got, len(wantU))
			}
			assertIDs(t, label("aliased UnionCountInto"), dst, wantU, nmax+extra)
		}

		or := a.Clone()
		or.Or(b)
		assertIDs(t, label("Or"), or, wantU, nmax)
		checkShape(t, label("Or"), or, false)

		and := a.Clone()
		and.And(b)
		assertIDs(t, label("And"), and, wantI, na)
		checkShape(t, label("And"), and, false)

		var clamped []int
		for _, id := range refOf(refB) {
			if id < na {
				clamped = append(clamped, id)
			}
		}
		cp := a.Clone()
		cp.CopyFrom(b)
		assertIDs(t, label("CopyFrom"), cp, clamped, na)
		checkShape(t, label("CopyFrom"), cp, true)
	}
}

// TestCopyFromClampsToExactUniverse pins the documented CopyFrom contract
// at id granularity: ids of other beyond b's universe are dropped even
// when they land inside b's final word or final chunk.
func TestCopyFromClampsToExactUniverse(t *testing.T) {
	cases := []struct {
		n    int
		src  *Bitmap
		want []int
	}{
		{60, buildBitmap(300, []int{3, 62, 290}, false), []int{3}},
		{60, buildBitmap(300, []int{3, 62, 290}, true), []int{3}},
		{chunkSize + 100, buildBitmap(200_000, []int{5, chunkSize + 99, chunkSize + 100, 150_000}, false),
			[]int{5, chunkSize + 99}},
	}
	for _, tc := range cases {
		b := NewBitmap(tc.n)
		b.CopyFrom(tc.src)
		assertIDs(t, "CopyFrom", b, tc.want, tc.n)
		checkShape(t, "CopyFrom", b, true)
	}
}

// TestContainerPromotionDemotion walks one chunk across its array ceiling
// in both directions, in a full chunk (ceiling 256) and in a 1,500-id
// universe (24 words, ceiling 6).
func TestContainerPromotionDemotion(t *testing.T) {
	for _, n := range []int{chunkSize, 1500} {
		max, _ := NewBitmap(n).shape(0)
		b := NewBitmap(n)
		for i := 0; i < max; i++ {
			b.Set(i * 2)
		}
		if len(b.ctrs) != 1 || !b.ctrs[0].isArr {
			t.Fatalf("n=%d: at %d ids the container must still be an array", n, max)
		}
		b.Set(max * 2) // one past the ceiling: promote
		if b.ctrs[0].isArr {
			t.Fatalf("n=%d: container must promote past %d ids", n, max)
		}
		if got := b.Count(); got != max+1 {
			t.Fatalf("n=%d: Count after promotion = %d, want %d", n, got, max+1)
		}

		// Drop id 0: at the ceiling again, the container demotes.
		rest := NewBitmap(n)
		for i := 1; i <= max; i++ {
			rest.Set(i * 2)
		}
		b.And(rest)
		if len(b.ctrs) != 1 || !b.ctrs[0].isArr || b.Count() != max {
			t.Fatalf("n=%d: And to %d ids must demote to an array", n, max)
		}
		one := NewBitmap(n)
		one.Set(0)

		// Union past the ceiling promotes again.
		b.Or(one)
		b.Set(1)
		if b.ctrs[0].isArr || b.Count() != max+2 {
			t.Fatalf("n=%d: Or past the ceiling must leave a bitset", n)
		}
		checkShape(t, "promoted", b, true)

		keep := NewBitmap(n)
		for i := 0; i < max/2; i++ {
			keep.Set(i * 2)
		}
		b.And(keep)
		if len(b.ctrs) != 1 || !b.ctrs[0].isArr || b.Count() != max/2 {
			t.Fatalf("n=%d: And to %d ids must demote to an array", n, max/2)
		}

		// Draining a chunk entirely must drop its container.
		b.And(NewBitmap(n))
		if len(b.ctrs) != 0 || b.Count() != 0 {
			t.Fatalf("n=%d: empty intersection left %d containers, %d ids", n, len(b.ctrs), b.Count())
		}
	}
}

// TestArrayCeilingPolicy pins the shape rule's two inputs: the clamped
// span of each chunk inside the universe and the quarter-of-span array
// ceiling derived from it.
func TestArrayCeilingPolicy(t *testing.T) {
	cases := []struct {
		n         int
		key       int32
		max, span int
	}{
		{60, 0, 0, 1},
		{1500, 0, 6, 24},
		{33322, 0, 130, 521},
		{chunkSize, 0, 256, chunkWords},
		{2*chunkSize + 100, 1, 256, chunkWords},
		{2*chunkSize + 100, 2, 0, 2},
	}
	for _, tc := range cases {
		max, span := NewBitmap(tc.n).shape(tc.key)
		if max != tc.max || span != tc.span {
			t.Errorf("n=%d chunk %d: ceiling %d span %d, want %d and %d",
				tc.n, tc.key, max, span, tc.max, tc.span)
		}
	}
	// Under a one-word universe no container can be an array.
	b := NewBitmap(60)
	b.Set(5)
	if b.ctrs[0].isArr || len(b.ctrs[0].bits) != 1 {
		t.Fatalf("60-id universe: want a one-word bitset, got %+v", b.ctrs[0])
	}
}

// TestGrowTailAndAcrossChunk grows a bitmap inside its tail word, past
// its tail bitset and into a new chunk, and checks that every kernel
// reads the short tail bitset as zero-padded against a full-universe
// operand.
func TestGrowTailAndAcrossChunk(t *testing.T) {
	b := NewBitmap(100)
	b.Set(99)
	b.Grow(120) // within the tail bitset's second word
	b.Set(119)
	b.Grow(1000) // past the tail bitset
	if got := len(b.ctrs[0].bits); got != 2 {
		t.Fatalf("Grow moved words: tail bitset has %d words, want 2", got)
	}
	b.Set(999)
	b.Grow(chunkSize + 10) // into a new chunk
	b.Set(chunkSize + 9)
	want := []int{99, 119, 999, chunkSize + 9}
	assertIDs(t, "grown", b, want, chunkSize+10)
	checkShape(t, "grown", b, false)

	full := NewBitmap(chunkSize + 10)
	for id := 0; id < 2000; id += 3 {
		full.Set(id)
	}
	ref := map[int]bool{}
	for id := 0; id < 2000; id += 3 {
		ref[id] = true
	}
	for _, id := range want {
		ref[id] = true
	}
	if got := b.OrCount(full); got != len(ref) {
		t.Fatalf("OrCount = %d, want %d", got, len(ref))
	}
	dst := NewBitmap(chunkSize + 10)
	if got := full.UnionCountInto(b, dst); got != len(ref) {
		t.Fatalf("UnionCountInto = %d, want %d", got, len(ref))
	}
	assertIDs(t, "union", dst, refOf(ref), chunkSize+10)
	b.Or(full)
	assertIDs(t, "Or", b, refOf(ref), chunkSize+10)
	checkShape(t, "Or", b, false)
}

// TestSetOutsideUniversePanics pins that Set rejects every id outside
// [0, n), including one in the slack of the last word (60..63 for n=60)
// that a word-granular bitset could hold but Contains would deny.
func TestSetOutsideUniversePanics(t *testing.T) {
	for _, tc := range []struct{ n, id int }{
		{60, -1}, {60, 60}, {60, 62}, {60, 63},
		{chunkSize + 1, chunkSize + 1}, {chunkSize + 1, chunkSize + 63},
		{0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBitmap(%d).Set(%d) did not panic", tc.n, tc.id)
				}
			}()
			NewBitmap(tc.n).Set(tc.id)
		}()
	}
	b := NewBitmap(60)
	b.Set(59)
	if b.Count() != 1 || !b.Contains(59) {
		t.Fatal("Set(59) in a 60-id universe failed")
	}
}

// TestStoreEvalAcrossChunks builds a store of more than 2^16 tuples, so
// posting lists span several chunks and rare values' Eval results are
// arrays, and demands Eval agree with a column scan before and after an
// Append.
func TestStoreEvalAcrossChunks(t *testing.T) {
	d := model.NewDataset(model.NewSchema("u"), model.NewSchema("g"))
	vals := []string{"common", "rare", "mid"}
	for _, v := range vals {
		if _, err := d.AddUser(map[string]string{"u": v}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddItem(map[string]string{"g": v}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	pick := func() int32 {
		switch r := rng.Intn(1000); {
		case r < 3:
			return 1 // rare
		case r < 100:
			return 2
		default:
			return 0
		}
	}
	for i := 0; i < chunkSize+5000; i++ {
		if err := d.AddAction(pick(), pick(), 0); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		for _, u := range vals {
			for _, g := range vals {
				p, err := s.ParsePredicate(map[string]string{"u": u, "g": g})
				if err != nil {
					t.Fatal(err)
				}
				bm := s.Eval(p)
				var want []int
				for tu := 0; tu < s.Len(); tu++ {
					if s.UserSchema.Attr(0).Value(s.Value(tu, Column{SideUser, 0})) == u &&
						s.ItemSchema.Attr(0).Value(s.Value(tu, Column{SideItem, 0})) == g {
						want = append(want, tu)
					}
				}
				assertIDs(t, label+" "+u+"/"+g, bm, want, s.Len())
				checkShape(t, label+" "+u+"/"+g, bm, true)
			}
		}
	}
	check("built")
	if err := s.Append(d, model.TaggingAction{User: 1, Item: 1}); err != nil {
		t.Fatal(err)
	}
	check("appended")
}
