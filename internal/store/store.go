package store

import (
	"fmt"
	"maps"
	"strings"

	"tagdm/internal/model"
)

// Column identifies one attribute column of the expanded tuple relation.
// User attributes come first in schema order, then item attributes.
type Column struct {
	// Side is SideUser or SideItem.
	Side Side
	// Index is the attribute position within its schema.
	Index int
}

// Side distinguishes user columns from item columns.
type Side uint8

// Sides of the expanded tuple.
const (
	SideUser Side = iota
	SideItem
)

func (s Side) String() string {
	if s == SideUser {
		return "user"
	}
	return "item"
}

// Store is the expanded, dictionary-encoded tuple relation G plus bitmap
// posting lists per (column, value). It is built once from a Dataset and
// supports incremental Append (paper Section 8 future work).
type Store struct {
	UserSchema *model.Schema
	ItemSchema *model.Schema
	Vocab      *model.Vocabulary

	// Column-major attribute storage, one slice per expanded column.
	userCols [][]model.ValueCode
	itemCols [][]model.ValueCode

	// Per-tuple payload.
	users   []int32
	items   []int32
	tags    [][]model.TagID
	ratings []float64

	// postings[column key] = bitmap of tuple ids having that value.
	postings map[postingKey]posting

	n int

	// gen counts the snapshots Clone has taken of this store, and frozen
	// marks a store that is itself such a snapshot (see Clone).
	gen    int
	frozen bool
}

// posting is one posting list and the writer generation that owns its
// bitmap: a bitmap with gen below the store's may be shared with a
// snapshot, so the writer copies it before its next write.
type posting struct {
	bm  *Bitmap
	gen int
}

type postingKey struct {
	side  Side
	index int
	value model.ValueCode
}

// New builds a store from a validated dataset by denormalizing each tagging
// action into an expanded tuple carrying its user's and item's attributes.
func New(d *model.Dataset) (*Store, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		UserSchema: d.UserSchema,
		ItemSchema: d.ItemSchema,
		Vocab:      d.Vocab,
		userCols:   make([][]model.ValueCode, d.UserSchema.Len()),
		itemCols:   make([][]model.ValueCode, d.ItemSchema.Len()),
		postings:   make(map[postingKey]posting),
	}
	for _, a := range d.Actions {
		s.appendTuple(d, a)
	}
	return s, nil
}

// PostingLists returns the number of (column, value) posting lists.
func (s *Store) PostingLists() int { return len(s.postings) }

func (s *Store) appendTuple(d *model.Dataset, a model.TaggingAction) {
	id := s.n
	u := d.Users[a.User]
	it := d.Items[a.Item]
	for ci := range s.userCols {
		s.userCols[ci] = append(s.userCols[ci], u.Attrs[ci])
	}
	for ci := range s.itemCols {
		s.itemCols[ci] = append(s.itemCols[ci], it.Attrs[ci])
	}
	s.users = append(s.users, a.User)
	s.items = append(s.items, a.Item)
	s.tags = append(s.tags, a.Tags)
	s.ratings = append(s.ratings, a.Rating)
	s.n++
	for ci, c := range u.Attrs {
		s.posting(postingKey{SideUser, ci, c}).Set(id)
	}
	for ci, c := range it.Attrs {
		s.posting(postingKey{SideItem, ci, c}).Set(id)
	}
}

func (s *Store) posting(k postingKey) *Bitmap {
	p, ok := s.postings[k]
	if !ok || p.gen != s.gen {
		if ok {
			p.bm = p.bm.cloneForAppend()
		} else {
			p.bm = NewBitmap(s.n)
		}
		p.gen = s.gen
		s.postings[k] = p
	}
	// The tuple being appended is id s.n-1: growing to s.n keeps every
	// posting's universe equal to the store's before the Set.
	p.bm.Grow(s.n)
	return p.bm
}

// Append adds one more tagging action from the same dataset incrementally,
// maintaining all posting lists. The dataset must be the one the store was
// built from (schemas and vocabulary are shared).
func (s *Store) Append(d *model.Dataset, a model.TaggingAction) error {
	if s.frozen {
		return fmt.Errorf("store: append to a read-only snapshot")
	}
	if a.User < 0 || int(a.User) >= len(d.Users) {
		return fmt.Errorf("store: append references unknown user %d", a.User)
	}
	if a.Item < 0 || int(a.Item) >= len(d.Items) {
		return fmt.Errorf("store: append references unknown item %d", a.Item)
	}
	s.appendTuple(d, a)
	return nil
}

// Clone returns a read-only snapshot of the store that later Appends to
// s cannot touch, at a cost that does not grow with the tuple count. The
// snapshot shares the append-only columns and per-tuple payloads as
// length-capped views (s[:n:n]): an Append writes past every snapshot's
// length, or into a new array once the capacity runs out. It shares the
// posting bitmaps too, and copies only the posting map: Clone bumps the
// store's generation, and the writer copies a posting before its first
// Set or Grow after that (Bitmap.cloneForAppend), so a frozen bitmap is
// never written again. The schemas are copied, so a later ingest that
// interns an unseen attribute value cannot change the snapshot's one-hot
// sizes (which SM-LSH-Fo's plane draw depends on). The vocabulary is
// shared — it is an append-only dictionary, safe for concurrent use, and
// snapshot consumers size by a frozen vocabulary size. Append on a
// snapshot fails, and Clone of a snapshot returns it unchanged. Clone is
// what makes snapshot-isolated readers possible while a Maintainer keeps
// inserting (see internal/incremental.Maintainer.Snapshot).
func (s *Store) Clone() *Store {
	if s.frozen {
		return s
	}
	s.gen++
	n := s.n
	out := &Store{
		UserSchema: s.UserSchema.Clone(),
		ItemSchema: s.ItemSchema.Clone(),
		Vocab:      s.Vocab,
		userCols:   make([][]model.ValueCode, len(s.userCols)),
		itemCols:   make([][]model.ValueCode, len(s.itemCols)),
		users:      s.users[:n:n],
		items:      s.items[:n:n],
		tags:       s.tags[:n:n],
		ratings:    s.ratings[:n:n],
		postings:   maps.Clone(s.postings),
		n:          n,
		frozen:     true,
	}
	for ci, col := range s.userCols {
		out.userCols[ci] = col[:n:n]
	}
	for ci, col := range s.itemCols {
		out.itemCols[ci] = col[:n:n]
	}
	return out
}

// Len is the number of expanded tuples.
func (s *Store) Len() int { return s.n }

// TupleUser returns the user id of tuple t.
func (s *Store) TupleUser(t int) int32 { return s.users[t] }

// TupleItem returns the item id of tuple t.
func (s *Store) TupleItem(t int) int32 { return s.items[t] }

// TupleTags returns the tag ids of tuple t. The slice is shared; callers
// must not modify it.
func (s *Store) TupleTags(t int) []model.TagID { return s.tags[t] }

// TupleRating returns the rating of tuple t (0 if absent).
func (s *Store) TupleRating(t int) float64 { return s.ratings[t] }

// Value returns the value code of tuple t in the given column.
func (s *Store) Value(t int, c Column) model.ValueCode {
	if c.Side == SideUser {
		return s.userCols[c.Index][t]
	}
	return s.itemCols[c.Index][t]
}

// Columns returns every expanded column in order: user attributes then item
// attributes.
func (s *Store) Columns() []Column {
	out := make([]Column, 0, len(s.userCols)+len(s.itemCols))
	for i := range s.userCols {
		out = append(out, Column{SideUser, i})
	}
	for i := range s.itemCols {
		out = append(out, Column{SideItem, i})
	}
	return out
}

// ColumnName renders a column as its attribute name.
func (s *Store) ColumnName(c Column) string {
	if c.Side == SideUser {
		return s.UserSchema.Attr(c.Index).Name
	}
	return s.ItemSchema.Attr(c.Index).Name
}

// ColumnAttr returns the attribute dictionary backing a column.
func (s *Store) ColumnAttr(c Column) *model.Attribute {
	if c.Side == SideUser {
		return s.UserSchema.Attr(c.Index)
	}
	return s.ItemSchema.Attr(c.Index)
}

// Term is one equality condition column = value.
type Term struct {
	Col   Column
	Value model.ValueCode
}

// Predicate is a conjunction of equality terms, i.e. a structural group
// description such as {gender=male, state=new york}.
type Predicate struct {
	Terms []Term
}

// ParsePredicate builds a predicate from name=value strings, resolving
// attribute names against the user schema first and then the item schema.
// A value that is not in the dictionary yields an always-empty predicate
// term (the value matches no tuple), reported via ok=false on Eval's bitmap
// being empty rather than an error, because queries over absent values are
// legitimate.
func (s *Store) ParsePredicate(conds map[string]string) (Predicate, error) {
	p := Predicate{}
	for name, val := range conds {
		var col Column
		var attr *model.Attribute
		if i := s.UserSchema.AttrIndex(name); i >= 0 {
			col = Column{SideUser, i}
			attr = s.UserSchema.Attr(i)
		} else if i := s.ItemSchema.AttrIndex(name); i >= 0 {
			col = Column{SideItem, i}
			attr = s.ItemSchema.Attr(i)
		} else {
			return Predicate{}, fmt.Errorf("store: no attribute named %q", name)
		}
		code, ok := attr.Lookup(val)
		if !ok {
			code = -1 // matches nothing
		}
		p.Terms = append(p.Terms, Term{Col: col, Value: code})
	}
	return p, nil
}

// Eval returns the bitmap of tuple ids satisfying every term of p. The
// result is a fresh bitmap the caller may mutate. An empty predicate matches
// every tuple. Only the result is allocated: postings intersect directly
// into it, with no per-term Clone+Grow intermediates.
func (s *Store) Eval(p Predicate) *Bitmap {
	acc := NewBitmap(s.n)
	if len(p.Terms) == 0 {
		for i := 0; i < s.n; i++ {
			acc.Set(i)
		}
		return acc
	}
	for ti, t := range p.Terms {
		p, ok := s.postings[postingKey{t.Col.Side, t.Col.Index, t.Value}]
		if !ok {
			return NewBitmap(s.n)
		}
		if ti == 0 {
			acc.CopyFrom(p.bm)
			continue
		}
		acc.And(p.bm)
	}
	return acc
}

// Count returns the number of tuples matching p without materializing ids
// beyond one bitmap.
func (s *Store) Count(p Predicate) int { return s.Eval(p).Count() }

// Describe renders a predicate as {name=value, ...} in column order.
func (s *Store) Describe(p Predicate) string {
	parts := make([]string, 0, len(p.Terms))
	for _, t := range p.Terms {
		attr := s.ColumnAttr(t.Col)
		parts = append(parts, attr.Name+"="+attr.Value(t.Value))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Support computes the group support of a set of tuple bitmaps
// (Definition 1): the number of tuples belonging to at least one group.
func Support(groups []*Bitmap) int { return UnionCount(groups) }
