// Package mining implements the dual mining functions of the TagDM
// framework (paper Definitions 2 and 3): pair-wise comparison functions Fp
// over tagging action groups for each behavior dimension (users, items,
// tags) under each criterion (similarity, diversity), plus the pair-wise
// aggregation Fpa that lifts Fp to sets of groups.
//
// The paper emphasizes that no single measure is advocated; concrete
// measures plug in through the PairFunc type. This package supplies the
// measures used in the paper's experiments — structural attribute distance
// for users and items, Jaccard set distance as an alternative, and cosine
// over group tag signatures — all normalized into [0, 1].
package mining

import (
	"fmt"

	"tagdm/internal/groups"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Dimension is a tagging behavior dimension b (Definition 2).
type Dimension uint8

// The three tagging action components.
const (
	Users Dimension = iota
	Items
	Tags
)

func (d Dimension) String() string {
	switch d {
	case Users:
		return "users"
	case Items:
		return "items"
	default:
		return "tags"
	}
}

// Measure is a dual mining criterion m (Definition 2).
type Measure uint8

// The two opposing criteria.
const (
	Similarity Measure = iota
	Diversity
)

func (m Measure) String() string {
	if m == Similarity {
		return "similarity"
	}
	return "diversity"
}

// Invert returns the opposing measure.
func (m Measure) Invert() Measure {
	if m == Similarity {
		return Diversity
	}
	return Similarity
}

// PairFunc is a pair-wise comparison function Fp(g1, g2) in [0, 1]. Higher
// means "more" of whatever the function measures (similarity functions
// return high values for alike groups; diversity functions are typically
// 1 - similarity).
type PairFunc func(g1, g2 *groups.Group) float64

// Aggregator is Fa: it reduces the intermediate pair scores {s1, s2, ...}
// to one float (Definition 3). Mean is the paper's choice (average pairwise
// score); Min gives MAX-MIN-style semantics.
type Aggregator func(scores []float64) float64

// Mean averages the pair scores; of an empty slice it is 0.
func Mean(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	var s float64
	for _, x := range scores {
		s += x
	}
	return s / float64(len(scores))
}

// Min returns the minimum pair score; of an empty slice it is 0.
func Min(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	m := scores[0]
	for _, x := range scores[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Func is a concrete dual mining function F(G, b, m): a pair function for a
// dimension/measure binding plus an aggregator.
type Func struct {
	Dim  Dimension
	Meas Measure
	Pair PairFunc
	Agg  Aggregator
}

// Eval computes Fpa over all unordered pairs of gs. A singleton (or empty)
// set scores 0: there is no pair evidence.
func (f Func) Eval(gs []*groups.Group) float64 {
	if len(gs) < 2 {
		return 0
	}
	scores := make([]float64, 0, len(gs)*(len(gs)-1)/2)
	for i := 0; i < len(gs); i++ {
		for j := i + 1; j < len(gs); j++ {
			scores = append(scores, f.Pair(gs[i], gs[j]))
		}
	}
	agg := f.Agg
	if agg == nil {
		agg = Mean
	}
	return agg(scores)
}

// String renders the binding for reports, e.g. "similarity(users)".
func (f Func) String() string { return fmt.Sprintf("%s(%s)", f.Meas, f.Dim) }

// StructuralUser returns the structural pair similarity on the user
// dimension: the fraction of user attributes on which the two group
// descriptions agree (both constrained to the same value). It is the
// Fp(g1, g2, users, similarity) of Section 2.1.1 normalized to [0, 1].
func StructuralUser(s *store.Store) PairFunc {
	n := s.UserSchema.Len()
	return func(g1, g2 *groups.Group) float64 {
		if n == 0 {
			return 0
		}
		match := 0
		for i := 0; i < n; i++ {
			v1, v2 := g1.UserValue(i), g2.UserValue(i)
			if v1 != 0 && v1 == v2 {
				match++
			}
		}
		return float64(match) / float64(n)
	}
}

// StructuralItem is the structural pair similarity on the item dimension.
func StructuralItem(s *store.Store) PairFunc {
	n := s.ItemSchema.Len()
	return func(g1, g2 *groups.Group) float64 {
		if n == 0 {
			return 0
		}
		match := 0
		for i := 0; i < n; i++ {
			v1, v2 := g1.ItemValue(i), g2.ItemValue(i)
			if v1 != 0 && v1 == v2 {
				match++
			}
		}
		return float64(match) / float64(n)
	}
}

// Inverse converts a similarity pair function into the corresponding
// diversity function (1 - sim), as the paper defines diversity measures.
func Inverse(f PairFunc) PairFunc {
	return func(g1, g2 *groups.Group) float64 { return 1 - f(g1, g2) }
}

// JaccardItems returns the set-distance pair similarity of Section 2.1.1:
// |items(g1) ∩ items(g2)| / |items(g1) ∪ items(g2)|. Item sets are
// precomputed per group id for efficiency.
func JaccardItems(s *store.Store, gs []*groups.Group) PairFunc {
	sets := make([]map[int32]struct{}, len(gs))
	for i, g := range gs {
		sets[i] = groups.ItemSet(s, g)
	}
	return func(g1, g2 *groups.Group) float64 {
		return jaccard(sets[g1.ID], sets[g2.ID])
	}
}

// JaccardUsers is the analogous set distance over the groups' user sets.
func JaccardUsers(s *store.Store, gs []*groups.Group) PairFunc {
	sets := make([]map[int32]struct{}, len(gs))
	for i, g := range gs {
		sets[i] = groups.UserSet(s, g)
	}
	return func(g1, g2 *groups.Group) float64 {
		return jaccard(sets[g1.ID], sets[g2.ID])
	}
}

func jaccard(a, b map[int32]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for x := range a {
		if _, ok := b[x]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// TagCosine returns the pair similarity on the tag dimension: cosine between
// the groups' tag signatures (Section 2.1.2), clamped to [0, 1]. The
// signatures are indexed by group ID; Signature.Cosine is bit-identical to
// vec.Cosine over the dense weights.
func TagCosine(sigs []signature.Signature) PairFunc {
	return func(g1, g2 *groups.Group) float64 {
		c := sigs[g1.ID].Cosine(sigs[g2.ID])
		if c < 0 {
			c = 0
		}
		return c
	}
}

// For returns the standard pair function for a dimension/measure binding as
// used in the paper's experiments: structural distance on users and items,
// signature cosine on tags, with diversity as the inverse of similarity.
func For(s *store.Store, sigs []signature.Signature, dim Dimension, meas Measure) Func {
	var sim PairFunc
	switch dim {
	case Users:
		sim = StructuralUser(s)
	case Items:
		sim = StructuralItem(s)
	default:
		sim = TagCosine(sigs)
	}
	pair := sim
	if meas == Diversity {
		pair = Inverse(sim)
	}
	return Func{Dim: dim, Meas: meas, Pair: pair, Agg: Mean}
}

// EditDistance is the Levenshtein distance between two strings; the paper
// mentions it as a possible value-level similarity for structural
// comparison with free-text attribute values.
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// StringSimilarity converts edit distance to a similarity in [0, 1]:
// 1 - dist/maxLen. Equal strings score 1; disjoint strings approach 0.
func StringSimilarity(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	maxLen := len([]rune(a))
	if l := len([]rune(b)); l > maxLen {
		maxLen = l
	}
	return 1 - float64(EditDistance(a, b))/float64(maxLen)
}
