package store

import (
	"encoding/binary"
	"sort"
	"testing"
)

// Native fuzz targets for the four bitmap kernels reusable buffers lean on
// (Or, And, UnionCountInto, CopyFrom), checked against a map-based
// reference model over every operand shape the fuzzer can reach: array and
// bitset containers, bitsets shorter than their span, equal and mismatched
// universes, universes straddling the 2^16 container-chunk boundary, and
// empty sets. The seed corpus under testdata/fuzz pins the shapes that
// mattered historically (the stale-universe Or and word-granular CopyFrom
// bugs); CI runs each target briefly with -fuzztime as a smoke step, and
// plain `go test` always replays the corpus.

// decodeBitmapPair derives two bitmaps plus their reference sets from raw
// fuzz bytes: header = universeA (uint16, scaled to cross the 2^16 chunk
// boundary), universeB, flag byte (bit0 grow a id by id, bit1 grow b, as
// incremental ingest does, so their chunks are bitsets with short tails;
// bit2 give UnionCountInto's dst a universe a chunk larger than needed);
// body = 3-byte big-endian ids dealt alternately to a and b, reduced mod
// the owner's universe.
func decodeBitmapPair(data []byte) (a, b *Bitmap, refA, refB map[int]bool, flags byte, ok bool) {
	if len(data) < 5 {
		return nil, nil, nil, nil, 0, false
	}
	uA := 1 + int(binary.LittleEndian.Uint16(data[0:2]))*2%(1<<17)
	uB := 1 + int(binary.LittleEndian.Uint16(data[2:4]))*2%(1<<17)
	flags = data[4]
	var idsA, idsB []int
	rest := data[5:]
	for i := 0; i+3 <= len(rest); i += 3 {
		id := int(rest[i])<<16 | int(rest[i+1])<<8 | int(rest[i+2])
		if (i/3)%2 == 0 {
			idsA = append(idsA, id%uA)
		} else {
			idsB = append(idsB, id%uB)
		}
	}
	a, b = buildBitmap(uA, idsA, flags&1 != 0), buildBitmap(uB, idsB, flags&2 != 0)
	return a, b, refSet(idsA), refSet(idsB), flags, true
}

// assertBitmapEquals checks a bitmap against a reference id set: count,
// universe, sorted contents, per-id membership and container shape.
func assertBitmapEquals(t *testing.T, label string, bm *Bitmap, ref map[int]bool, universe int) {
	t.Helper()
	checkShape(t, label, bm, false)
	if bm.Universe() != universe {
		t.Fatalf("%s: universe %d, want %d", label, bm.Universe(), universe)
	}
	if got, want := bm.Count(), len(ref); got != want {
		t.Fatalf("%s: count %d, want %d", label, got, want)
	}
	want := make([]int, 0, len(ref))
	for id := range ref {
		if id >= universe {
			t.Fatalf("%s: reference id %d outside universe %d (test bug)", label, id, universe)
		}
		want = append(want, id)
	}
	sort.Ints(want)
	got := bm.Slice()
	if len(got) != len(want) {
		t.Fatalf("%s: slice has %d ids, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// fuzzSeeds is the shared in-code seed set: equal universes, grown
// operands, mismatched universes in both directions, the 60->64 id append
// shape behind the stale-universe Or bug, and chunk-boundary universes.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	seed := func(uA, uB uint16, flags byte, ids ...byte) {
		b := make([]byte, 0, 5+len(ids))
		b = append(b, byte(uA), byte(uA>>8), byte(uB), byte(uB>>8), flags)
		f.Add(append(b, ids...))
	}
	seed(100, 100, 0, 0, 0, 1, 0, 0, 2, 0, 0, 90)
	seed(30, 32, 0, 0, 0, 29, 0, 0, 31)              // the 60->64-style small append
	seed(500, 80, 1, 0, 1, 200, 0, 0, 70, 0, 1, 194) // grown a, larger universe (id 450)
	seed(80, 500, 2, 0, 0, 70, 0, 1, 200)            // grown b, larger universe
	seed(40000, 40000, 3, 0, 200, 0, 0, 100, 7)      // both grown, chunk 1 vs 0
	seed(33000, 50, 7, 0, 129, 10, 0, 0, 12)         // ~66000-id universe crosses 2^16
}

// FuzzBitmapOr checks in-place union: b grows to the larger universe and
// holds exactly the union of both reference sets, whatever the shapes.
func FuzzBitmapOr(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, refA, refB, _, ok := decodeBitmapPair(data)
		if !ok {
			return
		}
		union := make(map[int]bool, len(refA)+len(refB))
		for id := range refA {
			union[id] = true
		}
		for id := range refB {
			union[id] = true
		}
		wantU := a.Universe()
		if b.Universe() > wantU {
			wantU = b.Universe()
		}
		a.Or(b)
		assertBitmapEquals(t, "a|b", a, union, wantU)
		assertBitmapEquals(t, "b untouched", b, refB, b.Universe())
	})
}

// FuzzBitmapAnd checks in-place intersection: b keeps its universe, ids
// beyond the other operand's universe are dropped (absent by definition).
func FuzzBitmapAnd(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, refA, refB, _, ok := decodeBitmapPair(data)
		if !ok {
			return
		}
		inter := make(map[int]bool)
		for id := range refA {
			if refB[id] {
				inter[id] = true
			}
		}
		a.And(b)
		assertBitmapEquals(t, "a&b", a, inter, a.Universe())
	})
}

// FuzzBitmapUnionCountInto checks the one-pass union-with-count against
// the model, including that a dirty reused destination buffer never leaks
// bits from a previous pass and that OrCount agrees without materializing.
func FuzzBitmapUnionCountInto(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, refA, refB, flags, ok := decodeBitmapPair(data)
		if !ok {
			return
		}
		union := make(map[int]bool, len(refA)+len(refB))
		for id := range refA {
			union[id] = true
		}
		for id := range refB {
			union[id] = true
		}
		uDst := a.Universe()
		if b.Universe() > uDst {
			uDst = b.Universe()
		}
		if flags&4 != 0 {
			uDst += chunkSize
		}
		dst := NewBitmap(uDst)
		// Pre-soil the buffer: UnionCountInto must fully overwrite it.
		dst.Set(0)
		dst.Set(uDst - 1)
		dst.Set(uDst / 2)
		count := a.UnionCountInto(b, dst)
		if count != len(union) {
			t.Fatalf("UnionCountInto = %d, want %d", count, len(union))
		}
		assertBitmapEquals(t, "dst", dst, union, uDst)
		if got := a.OrCount(b); got != len(union) {
			t.Fatalf("OrCount = %d, want %d", got, len(union))
		}
		assertBitmapEquals(t, "a untouched", a, refA, a.Universe())
		assertBitmapEquals(t, "b untouched", b, refB, b.Universe())
	})
}

// FuzzBitmapCopyFrom checks the buffer-reset kernel: the receiver keeps
// its universe and holds exactly the source ids that fit, at id (not word)
// granularity.
func FuzzBitmapCopyFrom(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, refA, refB, _, ok := decodeBitmapPair(data)
		if !ok {
			return
		}
		_ = refA
		want := make(map[int]bool)
		for id := range refB {
			if id < a.Universe() {
				want[id] = true
			}
		}
		a.CopyFrom(b)
		assertBitmapEquals(t, "a<-b", a, want, a.Universe())
		assertBitmapEquals(t, "b untouched", b, refB, b.Universe())
	})
}
