package signature

import (
	"sort"
	"strings"

	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/store"
)

// This file implements the two semantic summarization aids Section 2.1.2
// mentions beyond LDA:
//
//   - a category mapper in the style of OpenCalais: tags map to a small
//     set of predefined categories via a rule lexicon, and the signature
//     is the category histogram;
//   - a synonym normalizer in the style of WordNet: tags in the same
//     synset collapse onto a canonical form before counting, so "film"
//     and "movie" reinforce each other instead of splitting mass.
//
// Both are offline, rule-table-driven stand-ins for the web services the
// paper cites (see DESIGN.md substitution log); the interfaces are what a
// real integration would implement.

// Category is a predefined topic category label.
type Category string

// CategoryRule maps tags to a category, either by exact tag match or by
// substring (the common case for free-form tags like "great-action-scene").
type CategoryRule struct {
	Category Category
	// Exact tags claimed by this category.
	Exact []string
	// Substrings: a tag containing any of these maps to the category.
	Substrings []string
}

// CategoryMapper summarizes a group as a histogram over categories. Tags
// matching no rule fall into the reserved "other" category, so no tag mass
// is silently dropped.
type CategoryMapper struct {
	categories []Category // fixed order: rule order, then "other"
	index      map[Category]int
	exact      map[string]int
	substr     []struct {
		needle string
		cat    int
	}
}

// CategoryOther collects tags no rule claims.
const CategoryOther Category = "other"

// NewCategoryMapper compiles the rule set. Rule order fixes the signature
// dimension order; the "other" bucket is always appended last.
func NewCategoryMapper(rules []CategoryRule) *CategoryMapper {
	m := &CategoryMapper{index: make(map[Category]int), exact: make(map[string]int)}
	for _, r := range rules {
		ci, ok := m.index[r.Category]
		if !ok {
			ci = len(m.categories)
			m.index[r.Category] = ci
			m.categories = append(m.categories, r.Category)
		}
		for _, t := range r.Exact {
			m.exact[strings.ToLower(t)] = ci
		}
		for _, sub := range r.Substrings {
			m.substr = append(m.substr, struct {
				needle string
				cat    int
			}{strings.ToLower(sub), ci})
		}
	}
	m.index[CategoryOther] = len(m.categories)
	m.categories = append(m.categories, CategoryOther)
	return m
}

// Categorize maps one tag to its category index.
func (m *CategoryMapper) Categorize(tag string) int {
	t := strings.ToLower(tag)
	if ci, ok := m.exact[t]; ok {
		return ci
	}
	for _, s := range m.substr {
		if strings.Contains(t, s.needle) {
			return s.cat
		}
	}
	return m.index[CategoryOther]
}

// Categories returns the category labels in signature-dimension order.
func (m *CategoryMapper) Categories() []Category {
	out := make([]Category, len(m.categories))
	copy(out, m.categories)
	return out
}

// Summarize implements Summarizer.
func (m *CategoryMapper) Summarize(s *store.Store, g *groups.Group) Signature {
	w := make([]float64, len(m.categories))
	for tag, n := range groups.TagBag(s, g) {
		w[m.Categorize(s.Vocab.Tag(tag))] += float64(n)
	}
	return FromDense(w)
}

// Dim implements Summarizer.
func (m *CategoryMapper) Dim() int { return len(m.categories) }

// Name implements Summarizer.
func (m *CategoryMapper) Name() string { return "category-mapper" }

// SynonymTable groups tags into synsets; all members count as the
// canonical (first-listed) form.
type SynonymTable struct {
	canon map[string]string
}

// NewSynonymTable builds a table from synsets; the first entry of each
// synset is the canonical form. Later synsets do not override earlier
// mappings, so overlapping synsets resolve deterministically.
func NewSynonymTable(synsets [][]string) *SynonymTable {
	t := &SynonymTable{canon: make(map[string]string)}
	for _, set := range synsets {
		if len(set) == 0 {
			continue
		}
		head := strings.ToLower(set[0])
		for _, w := range set {
			lw := strings.ToLower(w)
			if _, taken := t.canon[lw]; !taken {
				t.canon[lw] = head
			}
		}
	}
	return t
}

// Canonical returns the canonical form of tag (itself when no synset
// claims it).
func (t *SynonymTable) Canonical(tag string) string {
	if c, ok := t.canon[strings.ToLower(tag)]; ok {
		return c
	}
	return tag
}

// SynonymFrequency is a frequency summarizer that collapses synonyms
// before counting. Its dimension space is the canonical-tag vocabulary,
// assigned deterministically (sorted canonical names).
type SynonymFrequency struct {
	table *SynonymTable
	dims  map[string]int
}

// NewSynonymFrequency prepares the summarizer over a store's vocabulary.
func NewSynonymFrequency(s *store.Store, table *SynonymTable) *SynonymFrequency {
	canonSet := make(map[string]struct{})
	for id := 0; id < s.Vocab.Size(); id++ {
		canonSet[table.Canonical(s.Vocab.Tag(model.TagID(id)))] = struct{}{}
	}
	names := make([]string, 0, len(canonSet))
	for c := range canonSet {
		names = append(names, c)
	}
	sort.Strings(names)
	dims := make(map[string]int, len(names))
	for i, n := range names {
		dims[n] = i
	}
	return &SynonymFrequency{table: table, dims: dims}
}

// Summarize implements Summarizer.
func (f *SynonymFrequency) Summarize(s *store.Store, g *groups.Group) Signature {
	w := make([]float64, len(f.dims))
	for tag, n := range groups.TagBag(s, g) {
		canon := f.table.Canonical(s.Vocab.Tag(tag))
		if di, ok := f.dims[canon]; ok {
			w[di] += float64(n)
		}
	}
	return FromDense(w)
}

// Dim implements Summarizer.
func (f *SynonymFrequency) Dim() int { return len(f.dims) }

// Name implements Summarizer.
func (f *SynonymFrequency) Name() string { return "synonym-frequency" }
