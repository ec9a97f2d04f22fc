// Package signature turns the tag multiset of a tagging action group into a
// group tag signature Trep(g) — a fixed-length weight vector over topic
// categories (paper Section 2.1.2). Three summarizers are provided:
//
//   - Frequency: one dimension per tag, weight = raw frequency. Suitable
//     when tags are editor-curated and the vocabulary is small.
//   - TFIDF: one dimension per tag, weight = tf(t, g) * idf(t), where idf is
//     computed over the collection of groups. Dampens ubiquitous tags.
//   - LDA: weight vector is the group's inferred topic distribution under a
//     model trained on the whole dataset (the configuration the paper's
//     experiments use, with 25 topics).
//
// All summarizers implement the Summarizer interface so the mining engine is
// agnostic to the choice, as the paper advocates.
//
// A Signature holds only its non-zero weights. Frequency and TFIDF build
// it from the group's tag bag in O(non-zeros); summarizers that compute a
// dense vector (LDA, the semantic aids, custom ones) convert it with
// FromDense. Dense turns a signature back into a vector at the edges that
// want one (persistence, topic-recovery evaluation).
package signature

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"tagdm/internal/groups"
	"tagdm/internal/lda"
	"tagdm/internal/model"
	"tagdm/internal/store"
)

// Signature is a group tag signature: a weight per topic category, held
// sparse as its dimension, the ascending positions of its non-zero weights,
// their values and its L2 norm (a frequency signature sets about a dozen
// of its vocabulary's coordinates). It is immutable; copies share its rows.
type Signature struct {
	dim  int
	pos  []int32
	val  []float64
	norm float64
}

// FromDense builds the signature of a dense weight vector, keeping every
// weight that is not ±0 (NaN and ±Inf included, for validation to report).
// A vector with no zero weight (an LDA topic mixture) shares its positions
// 0..len-1 with every other such signature instead of holding its own.
func FromDense(w []float64) Signature {
	nnz := 0
	for _, x := range w {
		if x != 0 {
			nnz++
		}
	}
	if nnz == len(w) {
		return newSignature(len(w), ascending(nnz), slices.Clone(w))
	}
	pos, val := make([]int32, 0, nnz), make([]float64, 0, nnz)
	for c, x := range w {
		if x != 0 {
			pos, val = append(pos, int32(c)), append(val, x)
		}
	}
	return newSignature(len(w), pos, val)
}

// fullRow holds 0, 1, ..., n-1 for the longest full row built so far.
var fullRow atomic.Pointer[[]int32]

// ascending returns the positions 0..n-1 of a full row, a capped prefix of
// fullRow (grown when n exceeds it), so that appending to it copies.
func ascending(n int) []int32 {
	p := fullRow.Load()
	if p == nil || len(*p) < n {
		r := make([]int32, n)
		for i := range r {
			r[i] = int32(i)
		}
		p = &r
		fullRow.Store(p)
	}
	return (*p)[:n:n]
}

// newSignature wraps ascending positions and their non-zero values. The
// norm sums the squares in ascending order: a left-out zero adds +0, so
// it is bit-identical to the dense vec.Norm.
func newSignature(dim int, pos []int32, val []float64) Signature {
	var sq float64
	for _, x := range val {
		sq += x * x
	}
	return Signature{dim: dim, pos: pos, val: val, norm: math.Sqrt(sq)}
}

// fromBag builds a dim-long signature from a group's tag bag: each tag
// below dim gets weight(tag, count), which must not be zero (a count and
// a tf-idf weight are positive).
func fromBag(dim int, bag map[model.TagID]int, weight func(model.TagID, int) float64) Signature {
	pos := make([]int32, 0, len(bag))
	for tag := range bag {
		if int(tag) < dim {
			pos = append(pos, int32(tag))
		}
	}
	slices.Sort(pos)
	val := make([]float64, len(pos))
	for k, c := range pos {
		val[k] = weight(model.TagID(c), bag[model.TagID(c)])
	}
	return newSignature(dim, pos, val)
}

// Dim returns the signature dimensionality.
func (s Signature) Dim() int { return s.dim }

// Nonzeros returns the ascending positions of the non-zero weights. The
// slice is shared and must not be modified.
func (s Signature) Nonzeros() []int32 { return s.pos }

// Values returns the non-zero weights, Values()[k] at Nonzeros()[k]. The
// slice is shared and must not be modified.
func (s Signature) Values() []float64 { return s.val }

// Norm returns the L2 norm.
func (s Signature) Norm() float64 { return s.norm }

// Dense returns the weights as a new dim-long vector.
func (s Signature) Dense() []float64 {
	w := make([]float64, s.dim)
	for k, c := range s.pos {
		w[c] = s.val[k]
	}
	return w
}

// Cosine returns the cosine similarity of two signatures of one dimension
// in [-1, 1], 0 when either is the zero vector — bit-identical to
// vec.Cosine over the dense weights when they are finite. The dot product
// adds the products at the positions both rows hold, in ascending order.
// The terms it leaves out are ±0, which never change the dense loop's
// running sum: it starts at +0 and round-to-nearest addition never yields
// -0 from it, so a skipped term meets +0 or a non-zero sum.
func (s Signature) Cosine(o Signature) float64 {
	if s.dim != o.dim {
		panic(fmt.Sprintf("signature: cosine of dim %d and %d", s.dim, o.dim))
	}
	if s.norm == 0 || o.norm == 0 {
		return 0
	}
	c := s.dot(o) / (s.norm * o.norm)
	if c > 1 { // rounding drift, clamped as vec.Cosine does
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// dot is Cosine's dot product. A row holding every position (an LDA
// topic mixture) is indexed by position while the other row is walked.
// Otherwise the rows are merged without branches the predictor would
// miss: every step adds its product masked to +0 unless the positions
// match, which by Cosine's argument leaves the sum unchanged.
func (s Signature) dot(o Signature) float64 {
	if len(s.pos) == s.dim {
		s, o = o, s
	}
	var dot float64
	if len(o.pos) == o.dim {
		for k, c := range s.pos {
			dot += s.val[k] * o.val[c]
		}
		return dot
	}
	a, b := s.pos, o.pos
	va, vb := s.val[:len(a)], o.val[:len(b)]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		pa, pb := a[i], b[j]
		var keep uint64
		var di, dj int
		if pa == pb {
			keep = ^uint64(0)
		}
		if pa <= pb {
			di = 1
		}
		if pb <= pa {
			dj = 1
		}
		dot += math.Float64frombits(math.Float64bits(va[i]*vb[j]) & keep)
		i, j = i+di, j+dj
	}
	return dot
}

// InvalidError reports a signature set that cannot be scored: a signature
// whose dimension differs from the first signature's, or a NaN or ±Inf
// weight.
type InvalidError struct {
	// Index is the offending signature's position in the set.
	Index int
	// Dim is its dimension and Want the set's (the first signature's).
	Dim, Want int
	// Coord is the position of the non-finite weight, -1 for a dimension
	// mismatch; Value is that weight.
	Coord int
	Value float64
}

func (e *InvalidError) Error() string {
	if e.Coord < 0 {
		return fmt.Sprintf("signature: signature %d has dim %d, want %d", e.Index, e.Dim, e.Want)
	}
	return fmt.Sprintf("signature: signature %d has weight %v at coordinate %d", e.Index, e.Value, e.Coord)
}

// Validate checks that sigs share one dimension and hold only finite
// weights, reporting the first offender in index order (its dimension,
// then its lowest non-finite position). It costs O(len(sigs)): a NaN or
// ±Inf weight makes the norm non-finite, so only a signature whose norm
// is not finite has its values scanned. One whose finite weights merely
// overflow the norm passes.
func Validate(sigs []Signature) error {
	if len(sigs) == 0 {
		return nil
	}
	want := sigs[0].dim
	for i, s := range sigs {
		if s.dim != want {
			return &InvalidError{Index: i, Dim: s.dim, Want: want, Coord: -1}
		}
		if s.norm-s.norm == 0 { // finite: NaN and ±Inf give NaN
			continue
		}
		for k, x := range s.val {
			if x-x != 0 {
				return &InvalidError{Index: i, Dim: s.dim, Want: want, Coord: int(s.pos[k]), Value: x}
			}
		}
	}
	return nil
}

// Summarizer produces a signature for a group of tagging actions.
type Summarizer interface {
	// Summarize returns the signature of group g in store s.
	Summarize(s *store.Store, g *groups.Group) Signature
	// Dim is the dimensionality of produced signatures.
	Dim() int
	// Name identifies the method in reports.
	Name() string
}

// Frequency summarizes a group as raw tag counts over the full vocabulary.
type Frequency struct {
	vocabSize int
}

// NewFrequency returns a frequency summarizer for a store's vocabulary.
func NewFrequency(s *store.Store) *Frequency {
	return &Frequency{vocabSize: s.Vocab.Size()}
}

// FrequencyOfSize returns a frequency summarizer over a fixed vocabulary
// size, for callers that have a vocabulary but no store yet (building a
// store just to read its vocabulary size doubles O(dataset) setup work).
func FrequencyOfSize(vocabSize int) *Frequency {
	return &Frequency{vocabSize: vocabSize}
}

// Summarize implements Summarizer.
func (f *Frequency) Summarize(s *store.Store, g *groups.Group) Signature {
	return fromBag(f.vocabSize, groups.TagBag(s, g), func(_ model.TagID, n int) float64 { return float64(n) })
}

// Dim implements Summarizer.
func (f *Frequency) Dim() int { return f.vocabSize }

// Name implements Summarizer.
func (f *Frequency) Name() string { return "frequency" }

// TFIDF summarizes a group as tf*idf weights. The idf table must be fitted
// over the collection of groups that will be compared, mirroring how idf is
// computed over a document collection.
type TFIDF struct {
	vocabSize int
	idf       []float64
}

// FitTFIDF computes idf(t) = ln((1+N)/(1+df(t))) + 1 over the given groups,
// where df counts groups containing the tag.
func FitTFIDF(s *store.Store, gs []*groups.Group) *TFIDF {
	v := s.Vocab.Size()
	df := make([]int, v)
	for _, g := range gs {
		for tag := range groups.TagBag(s, g) {
			if int(tag) < v {
				df[tag]++
			}
		}
	}
	idf := make([]float64, v)
	n := float64(len(gs))
	for t := range idf {
		idf[t] = math.Log((1+n)/(1+float64(df[t]))) + 1
	}
	return &TFIDF{vocabSize: v, idf: idf}
}

// Summarize implements Summarizer.
func (t *TFIDF) Summarize(s *store.Store, g *groups.Group) Signature {
	bag := groups.TagBag(s, g)
	var total int
	for _, n := range bag {
		total += n
	}
	return fromBag(t.vocabSize, bag, func(tag model.TagID, n int) float64 {
		tf := float64(n) / float64(total)
		return tf * t.idf[tag]
	})
}

// Dim implements Summarizer.
func (t *TFIDF) Dim() int { return t.vocabSize }

// Name implements Summarizer.
func (t *TFIDF) Name() string { return "tfidf" }

// LDA summarizes a group as its topic distribution under a trained model.
type LDA struct {
	Model *lda.Model
	// InferIterations is the Gibbs length for folding in a group (default 30).
	InferIterations int
	// Seed makes inference deterministic per group (group ID is mixed in).
	Seed int64
}

// TrainLDA fits an LDA model treating each group's tag multiset as one
// document. Returns the summarizer ready for use on the same store.
func TrainLDA(s *store.Store, gs []*groups.Group, topics, iterations int, seed int64) (*LDA, error) {
	docs := make([]lda.Document, len(gs))
	for i, g := range gs {
		var doc lda.Document
		for tag, n := range groups.TagBag(s, g) {
			for j := 0; j < n; j++ {
				doc = append(doc, int(tag))
			}
		}
		sort.Ints(doc) // map iteration order must not leak into training
		docs[i] = doc
	}
	m, err := lda.Train(lda.Corpus{Docs: docs, VocabSize: s.Vocab.Size()},
		lda.Config{Topics: topics, Iterations: iterations, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("signature: training LDA: %w", err)
	}
	return &LDA{Model: m, InferIterations: 30, Seed: seed}, nil
}

// Summarize implements Summarizer.
func (l *LDA) Summarize(s *store.Store, g *groups.Group) Signature {
	var doc lda.Document
	for tag, n := range groups.TagBag(s, g) {
		for j := 0; j < n; j++ {
			doc = append(doc, int(tag))
		}
	}
	sort.Ints(doc)
	theta := l.Model.Infer(doc, l.InferIterations, l.Seed+int64(g.ID)*7919)
	return FromDense(theta)
}

// Dim implements Summarizer.
func (l *LDA) Dim() int { return l.Model.K }

// Name implements Summarizer.
func (l *LDA) Name() string { return "lda" }

// SummarizeAll computes signatures for every group, indexed by group ID.
func SummarizeAll(sum Summarizer, s *store.Store, gs []*groups.Group) []Signature {
	out := make([]Signature, len(gs))
	for i, g := range gs {
		out[i] = sum.Summarize(s, g)
	}
	return out
}

// CloudEntry is one tag of a rendered tag cloud with its display size.
type CloudEntry struct {
	Tag   string
	Count int
	// Size is a display bucket in [1, 5]; 5 = most frequent.
	Size int
}

// Cloud computes a frequency-based tag cloud for the tuples of a group —
// the visualization of paper Figures 1 and 2 — limited to the topN most
// frequent tags.
func Cloud(s *store.Store, g *groups.Group, topN int) []CloudEntry {
	bag := groups.TagBag(s, g)
	entries := make([]CloudEntry, 0, len(bag))
	for tag, n := range bag {
		entries = append(entries, CloudEntry{Tag: s.Vocab.Tag(tag), Count: n})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Tag < entries[j].Tag
	})
	if topN > 0 && len(entries) > topN {
		entries = entries[:topN]
	}
	if len(entries) == 0 {
		return entries
	}
	max := float64(entries[0].Count)
	min := float64(entries[len(entries)-1].Count)
	span := max - min
	for i := range entries {
		if span == 0 {
			entries[i].Size = 3
			continue
		}
		entries[i].Size = 1 + int(4*(float64(entries[i].Count)-min)/span+0.5)
		if entries[i].Size > 5 {
			entries[i].Size = 5
		}
	}
	return entries
}

// RenderCloud renders a cloud as text, uppercasing the largest bucket and
// annotating counts, e.g. "WOODY(41) allen(39) drama(12) ...".
func RenderCloud(entries []CloudEntry) string {
	parts := make([]string, len(entries))
	for i, e := range entries {
		tag := e.Tag
		if e.Size >= 4 {
			tag = strings.ToUpper(tag)
		}
		parts[i] = fmt.Sprintf("%s(%d)", tag, e.Count)
	}
	return strings.Join(parts, " ")
}
