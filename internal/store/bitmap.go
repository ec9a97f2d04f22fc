// Package store provides an in-memory columnar store over expanded tagging
// action tuples r = <user attrs..., item attrs..., tags> (paper Section 2).
// Conjunctive predicates evaluate by intersecting per-(attribute, value)
// bitmap posting lists, and group support (Definition 1) is the cardinality
// of a union of group bitmaps. Every bitmap has one physical form: sorted
// per-2^16-chunk containers (see Bitmap).
package store

import (
	"math/bits"
	"slices"
)

const (
	wordBits   = 64
	chunkBits  = 16
	chunkSize  = 1 << chunkBits       // ids per container
	chunkWords = chunkSize / wordBits // words in a full chunk's bitset

	// arrShift sets the array ceiling: a container is an array only while
	// its cardinality is at most its bitset's word count >> arrShift. A
	// pure-Go array merge costs a few ns per id against about 1 ns per
	// word of OR+popcount, and the measured crossover sits at 256 ids per
	// 1,024 words, hence a quarter.
	arrShift = 2
)

// Bitmap is a set of tuple ids over the universe [0, n), kept roaring
// style: the id space splits into 2^16-id chunks, and each chunk holding
// at least one id owns a container, either a sorted []uint16 array of the
// ids' low 16 bits or a bitset. Two rules, both derived from the universe,
// fix the shape:
//
//   - Clamped bitset: a bitset holds at most the words its chunk spans
//     inside [0, n), so a universe under 2^16 costs ceil(n/64) words per
//     pass, not 1,024. A bitset may be shorter than that span (after Grow,
//     or when copied from a smaller universe); absent words are zero.
//   - Chunk-relative array ceiling: a container is an array only while its
//     cardinality is at most a quarter of that span's word count (6 ids
//     at 1,500 ids, 256 for a full chunk). Every kernel's output follows
//     the rule; Set promotes a full array but never demotes, and Grow
//     changes no shape.
//
// Every container caches its cardinality, so Count is a sum over
// containers and a chunk present on one side of a union contributes in
// O(1).
type Bitmap struct {
	n    int
	ctrs []container // sorted by key, none empty
}

// container holds one chunk's ids in the shape isArr selects. The
// inactive slice keeps its capacity, so reused buffers (DFS union levels,
// scorer scratch) stop allocating once warm.
type container struct {
	key   int32 // chunk index: ids [key<<16, (key+1)<<16)
	card  int32
	isArr bool
	arr   []uint16 // sorted low bits, len == card, when isArr
	bits  []uint64 // bitset, len <= the chunk's span, when !isArr
}

// NewBitmap returns an empty bitmap over a universe of n tuple ids.
func NewBitmap(n int) *Bitmap { return &Bitmap{n: n} }

// Universe returns the size of the id universe.
func (b *Bitmap) Universe() int { return b.n }

// spanWords is the number of words chunk key spans inside [0, n).
func spanWords(key int32, n int) int {
	return min((n-int(key)<<chunkBits+wordBits-1)>>6, chunkWords)
}

// shape returns the array ceiling and bitset span of chunk key in b.
func (b *Bitmap) shape(key int32) (max, span int) {
	span = spanWords(key, b.n)
	return span >> arrShift, span
}

// Set marks id as present. It panics when id lies outside [0, Universe()).
func (b *Bitmap) Set(id int) {
	if id < 0 || id >= b.n {
		panic("store: Bitmap.Set id outside the universe")
	}
	key := int32(id >> chunkBits)
	var c *container
	if last := len(b.ctrs) - 1; last >= 0 && b.ctrs[last].key == key {
		c = &b.ctrs[last] // ascending appends hit the last container
	} else {
		idx, ok := b.find(key)
		if !ok {
			b.insertAt(idx, key)
		}
		c = &b.ctrs[idx]
	}
	max, span := b.shape(key)
	c.set(uint16(id), max, span)
}

// Contains reports whether id is present.
func (b *Bitmap) Contains(id int) bool {
	if id < 0 || id >= b.n {
		return false
	}
	idx, ok := b.find(int32(id >> chunkBits))
	return ok && b.ctrs[idx].contains(uint16(id))
}

// Count returns the number of ids present.
func (b *Bitmap) Count() int {
	c := 0
	for i := range b.ctrs {
		c += int(b.ctrs[i].card)
	}
	return c
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{n: b.n, ctrs: make([]container, len(b.ctrs))}
	for i := range b.ctrs {
		copyInto(&out.ctrs[i], &b.ctrs[i])
	}
	return out
}

// cloneForAppend returns a copy of b for a writer that will only Grow it
// and Set ids at or past b's universe, leaving b as it is for the readers
// that share it. Such ids land in the chunk holding id b.n or in later
// ones, so the copy owns its container slice and that one chunk's
// container, and shares every earlier container's storage with b. It is
// the copy-on-write step of append-only postings (Store.Clone).
func (b *Bitmap) cloneForAppend() *Bitmap {
	out := &Bitmap{n: b.n, ctrs: make([]container, len(b.ctrs), len(b.ctrs)+1)}
	copy(out.ctrs, b.ctrs)
	if last := len(out.ctrs) - 1; last >= 0 && out.ctrs[last].key == int32(b.n>>chunkBits) {
		out.ctrs[last] = container{}
		copyInto(&out.ctrs[last], &b.ctrs[last])
	}
	return out
}

// Grow extends the universe to at least n ids, preserving contents. It
// moves no words: containers exist only where ids do, and a tail bitset
// shorter than its new span reads as zero-padded.
func (b *Bitmap) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// Or unions other into b in place. If other covers a larger universe, b
// grows to match (supports incremental appends).
func (b *Bitmap) Or(other *Bitmap) { b.orCount(other) }

// orCount is Or returning the union's cardinality.
func (b *Bitmap) orCount(other *Bitmap) int {
	if other.n > b.n {
		b.n = other.n
	}
	i, total := 0, 0
	for j := range other.ctrs {
		o := &other.ctrs[j]
		for ; i < len(b.ctrs) && b.ctrs[i].key < o.key; i++ {
			total += int(b.ctrs[i].card)
		}
		max, span := b.shape(o.key)
		if i < len(b.ctrs) && b.ctrs[i].key == o.key {
			b.ctrs[i].or(o, max, span)
		} else {
			b.insertAt(i, o.key)
			copyInto(&b.ctrs[i], o)
		}
		c := &b.ctrs[i]
		c.fit(max, span)
		total += int(c.card)
		i++
	}
	for ; i < len(b.ctrs); i++ {
		total += int(b.ctrs[i].card)
	}
	return total
}

// And intersects other into b in place. b keeps its universe; ids other
// cannot hold are absent from it by definition. Surviving containers are
// swapped down rather than copied over emptied ones, so every slot's
// storage stays unique and takeSlot can revive it later.
func (b *Bitmap) And(other *Bitmap) {
	k, j := 0, 0
	for i := range b.ctrs {
		c := &b.ctrs[i]
		for j < len(other.ctrs) && other.ctrs[j].key < c.key {
			j++
		}
		if j == len(other.ctrs) || other.ctrs[j].key != c.key {
			continue
		}
		if c.and(&other.ctrs[j]); c.card == 0 {
			continue
		}
		c.fit(b.shape(c.key))
		b.ctrs[k], b.ctrs[i] = b.ctrs[i], b.ctrs[k]
		k++
	}
	b.ctrs = b.ctrs[:k]
}

// ForEach calls fn for every id in ascending order. Iteration stops if fn
// returns false.
func (b *Bitmap) ForEach(fn func(id int) bool) {
	for i := range b.ctrs {
		c := &b.ctrs[i]
		base := int(c.key) << chunkBits
		if c.isArr {
			for _, v := range c.arr {
				if !fn(base + int(v)) {
					return
				}
			}
			continue
		}
		for wi, w := range c.bits {
			for w != 0 {
				if !fn(base + wi*wordBits + bits.TrailingZeros64(w)) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Slice returns all ids in ascending order.
func (b *Bitmap) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// CopyFrom overwrites b's contents with other's, keeping b's universe. Ids
// of other beyond b's universe are dropped, so Count never reports ids
// outside [0, Universe()). It is the reset step of reusable-buffer
// pipelines (incremental support unions, predicate evaluation) that would
// otherwise Clone per use.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	b.ctrs = b.ctrs[:0]
	for i := range other.ctrs {
		src := &other.ctrs[i]
		base := int(src.key) << chunkBits
		if base >= b.n {
			break
		}
		slot := b.takeSlot()
		copyInto(slot, src)
		max, span := b.shape(src.key)
		slot.clampTo(b.n-base, span)
		if slot.card == 0 {
			b.ctrs = b.ctrs[:len(b.ctrs)-1]
			continue
		}
		slot.fit(max, span)
	}
}

// OrCount returns |b OR other| in one pass without materializing the
// union: the two-set support check without a Clone. A chunk present on
// one side only contributes its cached cardinality without a scan.
func (b *Bitmap) OrCount(other *Bitmap) int {
	i, j, total := 0, 0, 0
	for i < len(b.ctrs) && j < len(other.ctrs) {
		switch x, y := &b.ctrs[i], &other.ctrs[j]; {
		case x.key < y.key:
			total += int(x.card)
			i++
		case x.key > y.key:
			total += int(y.card)
			j++
		default:
			total += orCountCtr(x, y)
			i++
			j++
		}
	}
	for ; i < len(b.ctrs); i++ {
		total += int(b.ctrs[i].card)
	}
	for ; j < len(other.ctrs); j++ {
		total += int(other.ctrs[j].card)
	}
	return total
}

// UnionCountInto sets dst = b OR other and returns the resulting
// cardinality, reusing dst's container storage (no allocation once warm).
// dst must cover a universe at least as large as both operands'; it panics
// otherwise, since a smaller dst would drop ids and under-count support.
// dst may alias b or other, which is how an accumulator unions in place:
// acc.UnionCountInto(next, acc). It is the push step of incremental
// support maintenance: each union level of a depth-first search derives
// from its parent without a Clone.
func (b *Bitmap) UnionCountInto(other, dst *Bitmap) int {
	if dst.n < b.n || dst.n < other.n {
		panic("store: UnionCountInto dst universe smaller than an operand")
	}
	switch dst {
	case b:
		return dst.orCount(other)
	case other:
		return dst.orCount(b)
	}
	dst.ctrs = dst.ctrs[:0]
	i, j, total := 0, 0, 0
	for i < len(b.ctrs) || j < len(other.ctrs) {
		slot := dst.takeSlot()
		switch {
		case j == len(other.ctrs) || (i < len(b.ctrs) && b.ctrs[i].key < other.ctrs[j].key):
			copyInto(slot, &b.ctrs[i])
			i++
		case i == len(b.ctrs) || other.ctrs[j].key < b.ctrs[i].key:
			copyInto(slot, &other.ctrs[j])
			j++
		default:
			max, span := dst.shape(b.ctrs[i].key)
			unionInto(slot, &b.ctrs[i], &other.ctrs[j], span)
			slot.fit(max, span)
			total += int(slot.card)
			i++
			j++
			continue
		}
		slot.fit(dst.shape(slot.key))
		total += int(slot.card)
	}
	return total
}

// UnionCount returns the cardinality of the union of the given bitmaps.
// It implements group support: Support = |{r : exists g in G, r in g}|.
// The one- and two-set cases — the bulk of support checks for small k —
// avoid materializing anything.
func UnionCount(maps []*Bitmap) int {
	switch len(maps) {
	case 0:
		return 0
	case 1:
		return maps[0].Count()
	case 2:
		return maps[0].OrCount(maps[1])
	}
	u := maps[0].Clone()
	for _, m := range maps[1:] {
		u.Or(m)
	}
	return u.Count()
}

// find locates the container for key; when absent, idx is its insertion
// point.
func (b *Bitmap) find(key int32) (idx int, ok bool) {
	lo, hi := 0, len(b.ctrs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.ctrs[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.ctrs) && b.ctrs[lo].key == key
}

// insertAt opens an empty array container for key at position idx.
func (b *Bitmap) insertAt(idx int, key int32) {
	b.ctrs = append(b.ctrs, container{})
	copy(b.ctrs[idx+1:], b.ctrs[idx:])
	b.ctrs[idx] = container{key: key, isArr: true}
}

// takeSlot extends b.ctrs by one slot, reviving spare container storage
// when the backing array still holds it.
func (b *Bitmap) takeSlot() *container {
	if len(b.ctrs) < cap(b.ctrs) {
		b.ctrs = b.ctrs[:len(b.ctrs)+1]
	} else {
		b.ctrs = append(b.ctrs, container{})
	}
	return &b.ctrs[len(b.ctrs)-1]
}

// --- containers ---

// words returns s resized to n words, reusing capacity; contents are
// unspecified.
func words(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// extendBits zero-pads c's bitset to n words, preserving its contents.
func (c *container) extendBits(n int) {
	if m := len(c.bits); m < n {
		c.bits = append(c.bits, make([]uint64, n-m)...)
	}
}

func (c *container) contains(lo uint16) bool {
	if c.isArr {
		_, ok := slices.BinarySearch(c.arr, lo)
		return ok
	}
	w := int(lo / wordBits)
	return w < len(c.bits) && c.bits[w]&(1<<(lo%wordBits)) != 0
}

// set adds lo, promoting a full array (max ids) to a bitset of span words.
func (c *container) set(lo uint16, max, span int) {
	if !c.isArr {
		w, m := int(lo/wordBits), uint64(1)<<(lo%wordBits)
		c.extendBits(w + 1)
		if c.bits[w]&m == 0 {
			c.bits[w] |= m
			c.card++
		}
		return
	}
	i := len(c.arr)
	if i > 0 && c.arr[i-1] >= lo {
		var ok bool
		if i, ok = slices.BinarySearch(c.arr, lo); ok {
			return
		}
	}
	if len(c.arr) >= max {
		c.toBits(span)
		c.set(lo, max, span)
		return
	}
	c.arr = append(c.arr, 0)
	copy(c.arr[i+1:], c.arr[i:])
	c.arr[i] = lo
	c.card++
}

// toBits converts an array container to a bitset of span words; the
// array keeps its capacity as spare storage.
func (c *container) toBits(span int) {
	c.bits = words(c.bits, span)
	clear(c.bits)
	for _, v := range c.arr {
		c.bits[v/wordBits] |= 1 << (v % wordBits)
	}
	c.isArr = false
	c.arr = c.arr[:0]
}

// toArr converts a bitset container to an array.
func (c *container) toArr() {
	if cap(c.arr) < int(c.card) {
		c.arr = make([]uint16, 0, c.card)
	}
	c.arr = c.arr[:0]
	for wi, w := range c.bits {
		for w != 0 {
			c.arr = append(c.arr, uint16(wi*wordBits+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	c.isArr = true
	c.bits = c.bits[:0]
}

// fit applies the array ceiling to a container a kernel just wrote. The
// check inlines; only a shape change leaves the caller.
func (c *container) fit(max, span int) {
	if c.isArr != (int(c.card) <= max) {
		c.reshape(span)
	}
}

func (c *container) reshape(span int) {
	if c.isArr {
		c.toBits(span)
	} else {
		c.toArr()
	}
}

// recount refreshes the cached cardinality of a bitset container.
func (c *container) recount() {
	n := 0
	for _, w := range c.bits {
		n += bits.OnesCount64(w)
	}
	c.card = int32(n)
}

// copyInto overwrites dst with src, reusing dst's storage.
func copyInto(dst, src *container) {
	dst.key, dst.card, dst.isArr = src.key, src.card, src.isArr
	if src.isArr {
		dst.arr = append(dst.arr[:0], src.arr...)
		dst.bits = dst.bits[:0]
		return
	}
	dst.bits = words(dst.bits, len(src.bits))
	copy(dst.bits, src.bits)
	dst.arr = dst.arr[:0]
}

// clampTo drops ids at or past lim (chunk-relative) and trims the bitset
// to span words, recounting only when something was dropped.
func (c *container) clampTo(lim, span int) {
	if c.isArr {
		if n := len(c.arr); n > 0 && int(c.arr[n-1]) >= lim {
			i, _ := slices.BinarySearch(c.arr, uint16(lim)) // lim <= c.arr[n-1]
			c.arr = c.arr[:i]
			c.card = int32(i)
		}
		return
	}
	dropped := len(c.bits) > span
	if dropped {
		c.bits = c.bits[:span]
	}
	if w := lim / wordBits; w < len(c.bits) {
		if past := c.bits[w] >> (lim % wordBits); past != 0 {
			c.bits[w] &= 1<<(lim%wordBits) - 1
			dropped = true
		}
	}
	if dropped {
		c.recount()
	}
}

// --- container-pair kernels ---

// b2i is the branchless bool->int the merge kernels lean on.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// andCountArr counts the ids two sorted arrays share. The cursor advances
// are data dependencies (SETcc+ADD), not branches, so random ids cannot
// mispredict.
func andCountArr(x, y []uint16) int {
	i, j, c := 0, 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i], y[j]
		c += b2i(a == b)
		i += b2i(a <= b)
		j += b2i(b <= a)
	}
	return c
}

// andCountArrBits counts the array ids set in a (possibly short) bitset.
func andCountArrBits(arr []uint16, bs []uint64) int {
	c := 0
	for _, v := range arr {
		w := int(v / wordBits)
		if w >= len(bs) {
			break // sorted: the rest lie past the bitset too
		}
		c += int(bs[w] >> (v % wordBits) & 1)
	}
	return c
}

// orCountCtr returns |a OR b| for two containers of one key.
func orCountCtr(a, b *container) int {
	switch {
	case a.isArr && b.isArr:
		return len(a.arr) + len(b.arr) - andCountArr(a.arr, b.arr)
	case !a.isArr && !b.isArr:
		long, short := a.bits, b.bits
		if len(long) < len(short) {
			long, short = short, long
		}
		head := long[:len(short)]
		c := 0
		for i, w := range short {
			c += bits.OnesCount64(w | head[i])
		}
		for _, w := range long[len(short):] {
			c += bits.OnesCount64(w)
		}
		return c
	}
	arr, bs := a, b
	if !a.isArr {
		arr, bs = b, a
	}
	return int(bs.card) + len(arr.arr) - andCountArrBits(arr.arr, bs.bits)
}

// unionInto writes a OR b (same key) into dst, which is distinct from
// both; a bitset result has span words. The caller fits the shape.
func unionInto(dst, a, b *container, span int) {
	dst.key = a.key
	if a.isArr && b.isArr {
		// Merge into an array sized by the len(a)+len(b) bound; the caller
		// promotes it if the true union outgrew the ceiling.
		x, y := a.arr, b.arr
		if cap(dst.arr) < len(x)+len(y) {
			dst.arr = make([]uint16, len(x)+len(y))
		}
		out := dst.arr[:len(x)+len(y)]
		i, j, k := 0, 0, 0
		for i < len(x) && j < len(y) {
			u, v := x[i], y[j]
			out[k] = min(u, v)
			k++
			i += b2i(u <= v)
			j += b2i(v <= u)
		}
		k += copy(out[k:], x[i:])
		k += copy(out[k:], y[j:])
		dst.arr, dst.card, dst.isArr = out[:k], int32(k), true
		dst.bits = dst.bits[:0]
		return
	}
	dst.isArr = false
	dst.bits = words(dst.bits, span)
	out := dst.bits
	if !a.isArr && !b.isArr {
		long, short := a.bits, b.bits
		if len(long) < len(short) {
			long, short = short, long
		}
		head, dh := long[:len(short)], out[:len(short)]
		c := 0
		for i, w := range short {
			u := w | head[i]
			dh[i] = u
			c += bits.OnesCount64(u)
		}
		if len(long) > len(short) || len(out) > len(long) {
			// Mixed universes: copy the longer operand's tail, zero the rest.
			for _, w := range long[len(short):] {
				c += bits.OnesCount64(w)
			}
			copy(out[len(short):], long[len(short):])
			clear(out[len(long):])
		}
		dst.card = int32(c)
		dst.arr = dst.arr[:0]
		return
	}
	arr, bs := a, b
	if !a.isArr {
		arr, bs = b, a
	}
	copy(out, bs.bits)
	clear(out[len(bs.bits):])
	c := int(bs.card)
	for _, v := range arr.arr {
		w, m := v/wordBits, uint64(1)<<(v%wordBits)
		c += int(^out[w] >> (v % wordBits) & 1)
		out[w] |= m
	}
	dst.card = int32(c)
	dst.arr = dst.arr[:0]
}

// or unions o (same key) into c in place; max and span are c's bitmap's
// shape for the chunk. The caller fits the shape.
func (c *container) or(o *container, max, span int) {
	if c.isArr && o.isArr {
		if n := len(c.arr) + len(o.arr) - andCountArr(c.arr, o.arr); n <= max {
			c.mergeArr(o.arr, n)
			return
		}
	}
	if c.isArr {
		c.toBits(span)
	}
	if o.isArr {
		c.extendBits(span)
		n := int(c.card)
		for _, v := range o.arr {
			w := v / wordBits
			n += int(^c.bits[w] >> (v % wordBits) & 1)
			c.bits[w] |= 1 << (v % wordBits)
		}
		c.card = int32(n)
		return
	}
	c.extendBits(len(o.bits))
	head := c.bits[:len(o.bits)]
	n := 0
	for i, w := range o.bits {
		u := head[i] | w
		head[i] = u
		n += bits.OnesCount64(u)
	}
	for _, w := range c.bits[len(o.bits):] {
		n += bits.OnesCount64(w)
	}
	c.card = int32(n)
}

// mergeArr merges the sorted ids of o into array container c, whose union
// with o has n ids, by a backward merge in c's grown array.
func (c *container) mergeArr(o []uint16, n int) {
	i, j := len(c.arr)-1, len(o)-1
	if cap(c.arr) < n {
		grown := make([]uint16, len(c.arr), n)
		copy(grown, c.arr)
		c.arr = grown
	}
	c.arr = c.arr[:n]
	for k := n - 1; j >= 0; k-- {
		if i >= 0 && c.arr[i] > o[j] {
			c.arr[k] = c.arr[i]
			i--
			continue
		}
		if i >= 0 && c.arr[i] == o[j] {
			i--
		}
		c.arr[k] = o[j]
		j--
	}
	c.card = int32(n)
}

// and intersects c with o (same key) in place. The caller drops an empty
// result and fits the shape.
func (c *container) and(o *container) {
	switch {
	case c.isArr && o.isArr:
		k, i, j := 0, 0, 0
		for i < len(c.arr) && j < len(o.arr) {
			x, y := c.arr[i], o.arr[j]
			c.arr[k] = x
			k += b2i(x == y)
			i += b2i(x <= y)
			j += b2i(y <= x)
		}
		c.arr = c.arr[:k]
	case c.isArr:
		c.filterArr(o.bits)
	case o.isArr:
		bs := c.bits
		c.arr = c.arr[:0]
		for _, v := range o.arr {
			if w := int(v / wordBits); w < len(bs) && bs[w]&(1<<(v%wordBits)) != 0 {
				c.arr = append(c.arr, v)
			}
		}
		c.isArr = true
		c.bits = bs[:0]
	default:
		if len(c.bits) > len(o.bits) {
			c.bits = c.bits[:len(o.bits)]
		}
		ob := o.bits[:len(c.bits)]
		for i := range c.bits {
			c.bits[i] &= ob[i]
		}
		c.recount()
		return
	}
	c.card = int32(len(c.arr))
}

// filterArr keeps the array ids whose bit is set in bs (zero past its
// end).
func (c *container) filterArr(bs []uint64) {
	k := 0
	for _, v := range c.arr {
		if w := int(v / wordBits); w < len(bs) && bs[w]&(1<<(v%wordBits)) != 0 {
			c.arr[k] = v
			k++
		}
	}
	c.arr = c.arr[:k]
}
