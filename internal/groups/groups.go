// Package groups enumerates and materializes describable tagging action
// groups: sets of expanded tuples selected by a conjunctive predicate over
// user and/or item attributes (paper Section 2, following the MRI work the
// paper adopts). The experiments in Section 6 operate on fully-described
// groups — one value per user attribute and per item attribute — that
// contain at least a minimum number of tuples (5 in the paper, yielding
// 4,535 groups on MovieLens).
package groups

import (
	"fmt"
	"sort"
	"strings"

	"tagdm/internal/model"
	"tagdm/internal/store"
)

// Group is one describable tagging action group: a predicate plus the
// bitmap and id list of the tuples it covers.
type Group struct {
	// ID is the group's dense index within the enumeration that produced it.
	ID int
	// Pred is the conjunctive description.
	Pred store.Predicate
	// Tuples is the covered tuple set.
	Tuples *store.Bitmap
	// Members caches Tuples.Slice() for iteration-heavy consumers.
	Members []int
}

// Size is the number of tuples in the group.
func (g *Group) Size() int { return len(g.Members) }

// UserValue returns the group's value for user attribute index i, or
// model.Unknown if the description does not constrain it.
func (g *Group) UserValue(i int) model.ValueCode {
	for _, t := range g.Pred.Terms {
		if t.Col.Side == store.SideUser && t.Col.Index == i {
			return t.Value
		}
	}
	return model.Unknown
}

// ItemValue returns the group's value for item attribute index i, or
// model.Unknown.
func (g *Group) ItemValue(i int) model.ValueCode {
	for _, t := range g.Pred.Terms {
		if t.Col.Side == store.SideItem && t.Col.Index == i {
			return t.Value
		}
	}
	return model.Unknown
}

// Describe renders the group via the store's dictionaries.
func (g *Group) Describe(s *store.Store) string { return s.Describe(g.Pred) }

// Enumerator produces describable groups from a store.
type Enumerator struct {
	Store *store.Store
	// MinTuples drops groups with fewer tuples (paper uses 5).
	MinTuples int
	// Within restricts enumeration to tuples in this bitmap; nil means all.
	// This implements the query bins of Section 6 (e.g. "all actions by
	// {gender=male}" before mining).
	Within *store.Bitmap
}

// groupKey is the full attribute-value assignment of a tuple, used to bucket
// tuples into fully-described groups in a single scan.
type groupKey string

func keyOf(vals []model.ValueCode) groupKey {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d|", v)
	}
	return groupKey(b.String())
}

// FullyDescribed enumerates the groups induced by the cartesian product of
// user attribute values with item attribute values — restricted, as in the
// paper, to the combinations that actually occur — and keeps those with at
// least MinTuples tuples. Groups are returned sorted by descending size,
// ties broken by description, and assigned dense IDs in that order.
func (e *Enumerator) FullyDescribed() []*Group {
	s := e.Store
	cols := s.Columns()
	vals := make([]model.ValueCode, len(cols))
	buckets := make(map[groupKey][]int)
	exemplar := make(map[groupKey][]model.ValueCode)
	for t := 0; t < s.Len(); t++ {
		if e.Within != nil && !e.Within.Contains(t) {
			continue
		}
		for ci, c := range cols {
			vals[ci] = s.Value(t, c)
		}
		k := keyOf(vals)
		buckets[k] = append(buckets[k], t)
		if _, ok := exemplar[k]; !ok {
			cp := make([]model.ValueCode, len(vals))
			copy(cp, vals)
			exemplar[k] = cp
		}
	}
	min := e.MinTuples
	if min < 1 {
		min = 1
	}
	out := make([]*Group, 0, len(buckets))
	for k, tuples := range buckets {
		if len(tuples) < min {
			continue
		}
		pred := store.Predicate{Terms: make([]store.Term, len(cols))}
		for ci, c := range cols {
			pred.Terms[ci] = store.Term{Col: c, Value: exemplar[k][ci]}
		}
		bm := store.NewBitmap(s.Len())
		for _, t := range tuples {
			bm.Set(t)
		}
		out = append(out, &Group{Pred: pred, Tuples: bm, Members: tuples})
	}
	sortGroups(s, out)
	for i, g := range out {
		g.ID = i
	}
	return out
}

// SingleAttribute enumerates groups described by exactly one attribute
// value, for every value of every column. These are the coarse groups used
// by case-study queries such as "analyze tagging behavior of {gender=male}
// users".
func (e *Enumerator) SingleAttribute() []*Group {
	s := e.Store
	min := e.MinTuples
	if min < 1 {
		min = 1
	}
	var out []*Group
	for _, c := range s.Columns() {
		attr := s.ColumnAttr(c)
		for v := 1; v <= attr.Cardinality(); v++ {
			pred := store.Predicate{Terms: []store.Term{{Col: c, Value: model.ValueCode(v)}}}
			bm := s.Eval(pred)
			if e.Within != nil {
				bm.And(e.Within)
			}
			members := bm.Slice()
			if len(members) < min {
				continue
			}
			out = append(out, &Group{Pred: pred, Tuples: bm, Members: members})
		}
	}
	sortGroups(s, out)
	for i, g := range out {
		g.ID = i
	}
	return out
}

// Describable enumerates groups described by exactly the given columns:
// one group per distinct value combination occurring in the (scoped)
// tuples, kept when it meets MinTuples. This generalizes FullyDescribed
// (all columns) and SingleAttribute (one column) to the paper's arbitrary
// "user- and/or item-describable" predicates, e.g. the Section 2.2 example
// groups over {gender, age, actor}.
func (e *Enumerator) Describable(cols []store.Column) []*Group {
	s := e.Store
	min := e.MinTuples
	if min < 1 {
		min = 1
	}
	vals := make([]model.ValueCode, len(cols))
	buckets := make(map[groupKey][]int)
	exemplar := make(map[groupKey][]model.ValueCode)
	for t := 0; t < s.Len(); t++ {
		if e.Within != nil && !e.Within.Contains(t) {
			continue
		}
		for ci, c := range cols {
			vals[ci] = s.Value(t, c)
		}
		k := keyOf(vals)
		buckets[k] = append(buckets[k], t)
		if _, ok := exemplar[k]; !ok {
			cp := make([]model.ValueCode, len(vals))
			copy(cp, vals)
			exemplar[k] = cp
		}
	}
	out := make([]*Group, 0, len(buckets))
	for k, tuples := range buckets {
		if len(tuples) < min {
			continue
		}
		pred := store.Predicate{Terms: make([]store.Term, len(cols))}
		for ci, c := range cols {
			pred.Terms[ci] = store.Term{Col: c, Value: exemplar[k][ci]}
		}
		bm := store.NewBitmap(s.Len())
		for _, t := range tuples {
			bm.Set(t)
		}
		out = append(out, &Group{Pred: pred, Tuples: bm, Members: tuples})
	}
	sortGroups(s, out)
	for i, g := range out {
		g.ID = i
	}
	return out
}

// ColumnsByName resolves attribute names against the store's two schemas,
// for building Describable column sets from user-facing names.
func ColumnsByName(s *store.Store, names ...string) ([]store.Column, error) {
	out := make([]store.Column, 0, len(names))
	for _, n := range names {
		if i := s.UserSchema.AttrIndex(n); i >= 0 {
			out = append(out, store.Column{Side: store.SideUser, Index: i})
			continue
		}
		if i := s.ItemSchema.AttrIndex(n); i >= 0 {
			out = append(out, store.Column{Side: store.SideItem, Index: i})
			continue
		}
		return nil, fmt.Errorf("groups: no attribute named %q", n)
	}
	return out, nil
}

// sortGroups orders by descending size then lexicographic description, so
// enumeration output is deterministic across runs and platforms.
func sortGroups(s *store.Store, gs []*Group) {
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Size() != gs[j].Size() {
			return gs[i].Size() > gs[j].Size()
		}
		return s.Describe(gs[i].Pred) < s.Describe(gs[j].Pred)
	})
}

// Support computes the group-support (Definition 1) of a set of groups.
func Support(gs []*Group) int {
	maps := make([]*store.Bitmap, len(gs))
	for i, g := range gs {
		maps[i] = g.Tuples
	}
	return store.Support(maps)
}

// TagBag accumulates the multiset of tags appearing in a group's tuples.
// It is the input to every signature summarizer.
func TagBag(s *store.Store, g *Group) map[model.TagID]int {
	bag := make(map[model.TagID]int)
	for _, t := range g.Members {
		for _, tag := range s.TupleTags(t) {
			bag[tag]++
		}
	}
	return bag
}

// ItemSet returns the distinct item ids tagged by the group's tuples,
// used by the Jaccard set-distance mining function (Section 2.1.1).
func ItemSet(s *store.Store, g *Group) map[int32]struct{} {
	set := make(map[int32]struct{})
	for _, t := range g.Members {
		set[s.TupleItem(t)] = struct{}{}
	}
	return set
}

// UserSet returns the distinct user ids appearing in the group's tuples.
func UserSet(s *store.Store, g *Group) map[int32]struct{} {
	set := make(map[int32]struct{})
	for _, t := range g.Members {
		set[s.TupleUser(t)] = struct{}{}
	}
	return set
}
