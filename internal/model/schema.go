// Package model defines the core data model of the TagDM framework: users,
// items, tags, tagging actions, and the attribute schemas that make groups
// of tagging actions "describable" (Das et al., PVLDB 2012, Section 2).
//
// All attribute values are dictionary-encoded: a Schema maps each attribute
// to a dense integer code space so that predicates, group keys and one-hot
// vector encodings are cheap. The string form of every value is retained for
// rendering descriptions such as {gender=male, state=new york}.
package model

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ValueCode is the dictionary-encoded form of an attribute value. Code 0 is
// reserved for "unknown"; real values start at 1.
type ValueCode int32

// Unknown is the value code used when an entity does not define a value for
// an attribute.
const Unknown ValueCode = 0

// Attribute is one named column of a Schema together with its value
// dictionary. The dictionary is safe for concurrent use: interning new
// values (Code) may race with rendering and predicate parsing when a
// server ingests entities while analyses read group descriptions.
type Attribute struct {
	Name string

	mu     sync.RWMutex
	values []string // index = int(code)-1
	codes  map[string]ValueCode
}

// NewAttribute returns an attribute with an empty dictionary.
func NewAttribute(name string) *Attribute {
	return &Attribute{Name: name, codes: make(map[string]ValueCode)}
}

// Code returns the code for value, adding it to the dictionary if absent.
func (a *Attribute) Code(value string) ValueCode {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c, ok := a.codes[value]; ok {
		return c
	}
	a.values = append(a.values, value)
	c := ValueCode(len(a.values))
	a.codes[value] = c
	return c
}

// Lookup returns the code for value without modifying the dictionary. The
// second result reports whether the value is known.
func (a *Attribute) Lookup(value string) (ValueCode, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	c, ok := a.codes[value]
	return c, ok
}

// Value returns the string form of a code, or "?" for Unknown and
// out-of-range codes.
func (a *Attribute) Value(c ValueCode) string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if c <= 0 || int(c) > len(a.values) {
		return "?"
	}
	return a.values[c-1]
}

// Cardinality is the number of distinct values in the dictionary, not
// counting Unknown.
func (a *Attribute) Cardinality() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.values)
}

// clone copies the attribute and its dictionary.
func (a *Attribute) clone() *Attribute {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return &Attribute{Name: a.Name, values: slices.Clone(a.values), codes: maps.Clone(a.codes)}
}

// Values returns a copy of the dictionary in code order.
func (a *Attribute) Values() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, len(a.values))
	copy(out, a.values)
	return out
}

// Schema is an ordered list of attributes describing users or items
// (S_U = <a1, a2, ...> in the paper).
type Schema struct {
	attrs []*Attribute
	index map[string]int
}

// NewSchema creates a schema with the given attribute names, in order.
func NewSchema(names ...string) *Schema {
	s := &Schema{index: make(map[string]int, len(names))}
	for _, n := range names {
		s.mustAdd(n)
	}
	return s
}

func (s *Schema) mustAdd(name string) {
	if _, dup := s.index[name]; dup {
		panic(fmt.Sprintf("model: duplicate attribute %q", name))
	}
	s.index[name] = len(s.attrs)
	s.attrs = append(s.attrs, NewAttribute(name))
}

// Clone returns a deep copy of the schema: each attribute's value
// dictionary is copied, so values interned into either schema afterwards
// do not show in the other. The name index is shared; it never changes
// after NewSchema.
func (s *Schema) Clone() *Schema {
	out := &Schema{attrs: make([]*Attribute, len(s.attrs)), index: s.index}
	for i, a := range s.attrs {
		out.attrs[i] = a.clone()
	}
	return out
}

// Len is the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) *Attribute { return s.attrs[i] }

// AttrByName returns the attribute with the given name, or nil.
func (s *Schema) AttrByName(name string) *Attribute {
	if i, ok := s.index[name]; ok {
		return s.attrs[i]
	}
	return nil
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// Encode converts a name->value map into a code tuple in schema order.
// Missing attributes encode as Unknown. Unknown attribute names are an
// error so that typos do not silently drop predicates.
func (s *Schema) Encode(values map[string]string) ([]ValueCode, error) {
	tuple := make([]ValueCode, len(s.attrs))
	for name, v := range values {
		i, ok := s.index[name]
		if !ok {
			return nil, fmt.Errorf("model: schema has no attribute %q", name)
		}
		tuple[i] = s.attrs[i].Code(v)
	}
	return tuple, nil
}

// Decode renders a code tuple as a name=value description in schema order,
// skipping Unknown entries.
func (s *Schema) Decode(tuple []ValueCode) string {
	var parts []string
	for i, c := range tuple {
		if i >= len(s.attrs) {
			break
		}
		if c == Unknown {
			continue
		}
		parts = append(parts, s.attrs[i].Name+"="+s.attrs[i].Value(c))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// TotalCardinality is the sum of per-attribute cardinalities; it is the
// length of a one-hot encoding of a full tuple (used by the folding
// algorithms in Section 4.3 of the paper).
func (s *Schema) TotalCardinality() int {
	n := 0
	for _, a := range s.attrs {
		n += a.Cardinality()
	}
	return n
}

// OneHotOffsets returns, for each attribute, the starting offset of its
// value block in the schema's one-hot encoding.
func (s *Schema) OneHotOffsets() []int {
	offs := make([]int, len(s.attrs))
	n := 0
	for i, a := range s.attrs {
		offs[i] = n
		n += a.Cardinality()
	}
	return offs
}

// SortedValueCounts returns (value, count) pairs for attribute attr over the
// provided tuples, sorted by descending count. It is a convenience used by
// dataset summaries and tests.
func SortedValueCounts(attr *Attribute, column []ValueCode) []ValueCount {
	counts := make(map[ValueCode]int)
	for _, c := range column {
		if c != Unknown {
			counts[c]++
		}
	}
	out := make([]ValueCount, 0, len(counts))
	for c, n := range counts {
		out = append(out, ValueCount{Value: attr.Value(c), Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// ValueCount pairs an attribute value with an occurrence count.
type ValueCount struct {
	Value string
	Count int
}
