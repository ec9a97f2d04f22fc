package incremental

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// snapRef is a plain-slice copy of everything a snapshot exposes, taken
// when the snapshot is published: what the snapshot must still read after
// the writer has moved on.
type snapRef struct {
	terms   []store.Term
	evals   [][]int
	cols    [][]model.ValueCode
	users   []int32
	items   []int32
	tags    [][]model.TagID
	ratings []float64
	tuples  [][]int
	members [][]int
}

// captureRef reads every single-term Eval (each dictionary value, the
// unknown code 0 and the next code a live intern would assign), every
// column and payload, and every group's tuples and members.
func captureRef(snap *Snapshot) snapRef {
	st := snap.Store
	var ref snapRef
	for _, c := range st.Columns() {
		for v := 0; v <= st.ColumnAttr(c).Cardinality()+1; v++ {
			term := store.Term{Col: c, Value: model.ValueCode(v)}
			ref.terms = append(ref.terms, term)
			ref.evals = append(ref.evals, st.Eval(store.Predicate{Terms: []store.Term{term}}).Slice())
		}
		col := make([]model.ValueCode, st.Len())
		for t := range col {
			col[t] = st.Value(t, c)
		}
		ref.cols = append(ref.cols, col)
	}
	for t := 0; t < st.Len(); t++ {
		ref.users = append(ref.users, st.TupleUser(t))
		ref.items = append(ref.items, st.TupleItem(t))
		ref.tags = append(ref.tags, slices.Clone(st.TupleTags(t)))
		ref.ratings = append(ref.ratings, st.TupleRating(t))
	}
	for _, g := range snap.Groups {
		ref.tuples = append(ref.tuples, g.Tuples.Slice())
		ref.members = append(ref.members, slices.Clone(g.Members))
	}
	return ref
}

// diffRef re-reads the snapshot and reports the first difference from
// ref, or "" when there is none.
func diffRef(snap *Snapshot, ref snapRef) string {
	st := snap.Store
	for i, term := range ref.terms {
		if got := st.Eval(store.Predicate{Terms: []store.Term{term}}).Slice(); !slices.Equal(got, ref.evals[i]) {
			return fmt.Sprintf("Eval(%v) = %v, want %v", term, got, ref.evals[i])
		}
	}
	if st.Len() != len(ref.users) {
		return fmt.Sprintf("Len = %d, want %d", st.Len(), len(ref.users))
	}
	for ci, c := range st.Columns() {
		for t, want := range ref.cols[ci] {
			if got := st.Value(t, c); got != want {
				return fmt.Sprintf("column %v tuple %d = %d, want %d", c, t, got, want)
			}
		}
	}
	for t := range ref.users {
		if st.TupleUser(t) != ref.users[t] || st.TupleItem(t) != ref.items[t] ||
			!slices.Equal(st.TupleTags(t), ref.tags[t]) || st.TupleRating(t) != ref.ratings[t] {
			return fmt.Sprintf("payload of tuple %d changed", t)
		}
	}
	if len(snap.Groups) != len(ref.tuples) {
		return fmt.Sprintf("%d groups, want %d", len(snap.Groups), len(ref.tuples))
	}
	for i, g := range snap.Groups {
		if got := g.Tuples.Slice(); !slices.Equal(got, ref.tuples[i]) {
			return fmt.Sprintf("group %d tuples = %v, want %v", i, got, ref.tuples[i])
		}
		if !slices.Equal(g.Members, ref.members[i]) {
			return fmt.Sprintf("group %d members = %v, want %v", i, g.Members, ref.members[i])
		}
	}
	return ""
}

// assertViewMatchesScratch is the carried-view oracle: the view a
// snapshot carried from earlier epochs equals a scratch NewSparse over the
// same signatures, row for row and norm for norm, bit for bit.
func assertViewMatchesScratch(t *testing.T, label string, v *signature.Sparse) {
	t.Helper()
	want, err := signature.NewSparse(v.Signatures(), nil)
	if err != nil {
		t.Fatalf("%s: scratch view: %v", label, err)
	}
	if v.Len() != want.Len() || v.Dim() != want.Dim() || v.NNZ() != want.NNZ() {
		t.Fatalf("%s: view len/dim/nnz %d/%d/%d, scratch %d/%d/%d", label,
			v.Len(), v.Dim(), v.NNZ(), want.Len(), want.Dim(), want.NNZ())
	}
	for i := 0; i < v.Len(); i++ {
		if !slices.Equal(v.Nonzeros(i), want.Nonzeros(i)) {
			t.Fatalf("%s: row %d = %v, scratch %v", label, i, v.Nonzeros(i), want.Nonzeros(i))
		}
		if math.Float64bits(v.Norm(i)) != math.Float64bits(want.Norm(i)) {
			t.Fatalf("%s: norm %d = %v, scratch %v", label, i, v.Norm(i), want.Norm(i))
		}
	}
}

// carriedRows counts the rows of v that alias prev's row storage.
func carriedRows(v, prev *signature.Sparse) int {
	n := 0
	for i := 0; i < min(v.Len(), prev.Len()); i++ {
		if r, p := v.Nonzeros(i), prev.Nonzeros(i); len(r) > 0 && len(p) == len(r) && &r[0] == &p[0] {
			n++
		}
	}
	return n
}

// fmtKey is the key form checkpoints have always stored: one
// fmt "%d/%d/%d|" part per term.
func fmtKey(terms []store.Term) string {
	key := ""
	for _, t := range terms {
		key += fmt.Sprintf("%d/%d/%d|", t.Col.Side, t.Col.Index, t.Value)
	}
	return key
}

// cowActions picks, on the live maintainer, one insert into an active
// group, the inserts that promote the largest pending group, and one
// insert that opens a new pending group from existing attribute values.
func cowActions(t *testing.T, m *Maintainer) (active model.TaggingAction, promote []model.TaggingAction, opens model.TaggingAction) {
	t.Helper()
	st := m.store
	of := func(tuple int) model.TaggingAction {
		return model.TaggingAction{User: st.TupleUser(tuple), Item: st.TupleItem(tuple), Tags: st.TupleTags(tuple)}
	}
	active = of(m.active[0].Members[0])
	var best *pending
	for _, p := range m.byKey {
		if !p.active && (best == nil || p.group.Size() > best.group.Size() ||
			p.group.Size() == best.group.Size() && p.group.Members[0] < best.group.Members[0]) {
			best = p
		}
	}
	if best == nil {
		t.Fatal("no pending group to promote")
	}
	for i := best.group.Size(); i < m.minTuples; i++ {
		promote = append(promote, of(best.group.Members[0]))
	}
	return active, promote, opensGroup(t, m, active.Tags)
}

// opensGroup returns an insert, from existing users and items, whose
// attribute combination has no group yet.
func opensGroup(t *testing.T, m *Maintainer, tags []model.TagID) model.TaggingAction {
	t.Helper()
	ds, cols := m.dataset, m.store.Columns()
	for u := range ds.Users {
		for it := range ds.Items {
			terms := make([]store.Term, len(cols))
			for ci, c := range cols {
				attrs := ds.Items[it].Attrs
				if c.Side == store.SideUser {
					attrs = ds.Users[u].Attrs
				}
				terms[ci] = store.Term{Col: c, Value: attrs[c.Index]}
			}
			if _, ok := m.byKey[fmtKey(terms)]; !ok {
				return model.TaggingAction{User: int32(u), Item: int32(it), Tags: tags}
			}
		}
	}
	t.Fatal("every user/item combination already has a group")
	return model.TaggingAction{}
}

// TestSnapshotIsolationUnderCopyOnWrite publishes snapshots of a
// datagen.Small maintainer and, while readers check each one against a
// plain-slice copy taken at publish time and solve Problems 1 and 4 on it,
// the writer makes the four kinds of insert that write to shared state: into
// an active group, with an unseen attribute value (a new posting and a
// schema intern), enough to promote a pending group, and one that opens a
// new pending group. The snapshot must read as it did at publish time,
// answer as a second engine over it did before the inserts, and carry a
// sparse view equal to a scratch one.
func TestSnapshotIsolationUnderCopyOnWrite(t *testing.T) {
	w, err := datagen.Generate(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Dataset
	m, err := New(ds, 5, signature.FrequencyOfSize(ds.Vocab.Size()))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := core.PaperProblem(1, 3, 15, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := core.PaperProblem(4, 3, 15, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	answers := func(e *core.Engine) []core.Result {
		var out []core.Result
		for _, solve := range []func() (core.Result, error){
			func() (core.Result, error) { return e.Exact(ctx, p1, core.ExactOptions{}) },
			func() (core.Result, error) {
				return e.SMLSH(ctx, p1, core.LSHOptions{DPrime: 10, L: 2, Seed: 1, Mode: core.Fold})
			},
			func() (core.Result, error) { return e.Exact(ctx, p4, core.ExactOptions{}) },
			func() (core.Result, error) { return e.DVFDP(ctx, p4, core.FDPOptions{Mode: core.Fold}) },
		} {
			r, err := solve()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	unseen := func(s *model.Schema, epoch int) map[string]string {
		attrs := make(map[string]string, s.Len())
		for _, name := range s.Names() {
			attrs[name] = fmt.Sprintf("unseen-%s-%d", name, epoch)
		}
		return attrs
	}

	// Open one pending group for the first epoch to promote; every epoch
	// opens two more.
	if err := m.Insert(opensGroup(t, m, nil)); err != nil {
		t.Fatal(err)
	}
	var prev *Snapshot
	for epoch := 0; epoch < 3; epoch++ {
		label := fmt.Sprintf("epoch %d", epoch)
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		assertViewMatchesScratch(t, label, snap.view)
		if prev != nil && carriedRows(snap.view, prev.view) == 0 {
			t.Fatalf("%s: no row carried from the previous view", label)
		}
		prev = snap
		ref := captureRef(snap)
		second, err := core.NewEngine(snap.Store, snap.Groups, snap.Engine.Sigs)
		if err != nil {
			t.Fatal(err)
		}
		want := answers(second)
		active, promote, opens := cowActions(t, m)
		before := m.Stats()

		// The writer inserts while this goroutine reads the snapshot.
		done := make(chan error, 1)
		go func() {
			done <- func() error {
				for _, a := range append(append([]model.TaggingAction{active}, promote...), opens) {
					if err := m.Insert(a); err != nil {
						return err
					}
				}
				u, err := ds.AddUser(unseen(ds.UserSchema, epoch))
				if err != nil {
					return err
				}
				return m.Insert(model.TaggingAction{User: u, Item: active.Item, Tags: active.Tags})
			}()
		}()
		if d := diffRef(snap, ref); d != "" {
			t.Errorf("%s, during inserts: %s", label, d)
		}
		got := answers(snap.Engine)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if d := diffRef(snap, ref); d != "" {
			t.Fatalf("%s, after inserts: %s", label, d)
		}
		for i := range want {
			assertSameResult(t, fmt.Sprintf("%s answer %d", label, i), want[i], got[i])
		}
		after := m.Stats()
		if after.ActiveGroups != before.ActiveGroups+1 || after.PendingGroups != before.PendingGroups-1+2 {
			t.Fatalf("%s: active %d -> %d, pending %d -> %d; want one promotion and two new pending groups",
				label, before.ActiveGroups, after.ActiveGroups, before.PendingGroups, after.PendingGroups)
		}
	}
	last, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	assertViewMatchesScratch(t, "last epoch", last.view)
}

// poisoned wraps a summarizer and, while on is set, writes NaN into the
// first weight of every signature it returns.
type poisoned struct {
	signature.Summarizer
	on bool
}

func (p *poisoned) Summarize(s *store.Store, g *groups.Group) signature.Signature {
	sig := p.Summarizer.Summarize(s, g)
	if p.on {
		sig.Weights[0] = math.NaN()
	}
	return sig
}

// TestSnapshotRejectsInvalidSignatureAndRecovers: a re-summarized group
// whose signature holds a NaN fails Snapshot with *signature.InvalidError,
// and keeps failing while the signature stays (the carried view rescans
// every signature it did not build), until an insert re-summarizes the
// group cleanly; the view then equals a scratch one.
func TestSnapshotRejectsInvalidSignatureAndRecovers(t *testing.T) {
	w, err := datagen.Generate(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Dataset
	sum := &poisoned{Summarizer: signature.FrequencyOfSize(ds.Vocab.Size())}
	m, err := New(ds, 5, sum)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	g := m.active[7]
	a := model.TaggingAction{User: m.store.TupleUser(g.Members[0]), Item: m.store.TupleItem(g.Members[0])}
	sum.on = true
	if err := m.Insert(a); err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		_, err := m.Snapshot()
		var inv *signature.InvalidError
		if !errors.As(err, &inv) || inv.Index != 7 || inv.Coord != 0 {
			t.Fatalf("try %d: Snapshot error %v, want *signature.InvalidError for group 7, coordinate 0", try, err)
		}
	}
	sum.on = false
	if err := m.Insert(a); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	assertViewMatchesScratch(t, "recovered", snap.view)
}

// TestKeysMatchFmtForm pins the checkpoint key bytes: keyOfGroup and
// keyOfTuple build them with strconv into one buffer, and must equal the
// fmt form checkpoints have always stored, for every group and tuple of
// a datagen.Small maintainer after an ingest with unseen values.
func TestKeysMatchFmtForm(t *testing.T) {
	w, err := datagen.Generate(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Dataset
	m, err := New(ds, 5, signature.FrequencyOfSize(ds.Vocab.Size()))
	if err != nil {
		t.Fatal(err)
	}
	attrs := make(map[string]string)
	for _, name := range ds.UserSchema.Names() {
		attrs[name] = "unseen-" + name
	}
	u, err := ds.AddUser(attrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(model.TaggingAction{User: u, Item: 0}); err != nil {
		t.Fatal(err)
	}
	for key, p := range m.byKey {
		if want := fmtKey(p.group.Pred.Terms); key != want || m.keyOfGroup(p.group) != want {
			t.Fatalf("group key %q (keyOfGroup %q), fmt form %q", key, m.keyOfGroup(p.group), want)
		}
	}
	for tu := 0; tu < m.store.Len(); tu++ {
		key, pred := m.keyOfTuple(tu)
		if want := fmtKey(pred.Terms); key != want {
			t.Fatalf("tuple %d key %q, fmt form %q", tu, key, want)
		}
	}
}

// TestRestoreAcceptsFmtFormKeys restores a maintainer from active keys in
// the fmt form earlier checkpoints wrote, and gets the same groups in the
// same order.
func TestRestoreAcceptsFmtFormKeys(t *testing.T) {
	w, err := datagen.Generate(datagen.Small())
	if err != nil {
		t.Fatal(err)
	}
	ds := w.Dataset
	sum := signature.FrequencyOfSize(ds.Vocab.Size())
	m, err := New(ds, 5, sum)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(m.active))
	for i, g := range m.active {
		keys[i] = fmtKey(g.Pred.Terms)
	}
	r, err := Restore(checkpointDataset(ds, m.Store()), 5, sum, keys, m.Version())
	if err != nil {
		t.Fatalf("Restore with fmt-form keys: %v", err)
	}
	if got := r.ActiveKeys(); !slices.Equal(got, keys) {
		t.Fatalf("restored keys differ from the fmt-form keys")
	}
}
