package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/lsh"
	"tagdm/internal/signature"
	"tagdm/internal/store"
	"tagdm/internal/vec"
)

// denseHashVectors is the dense form of buildHashVectors: each group's
// normalized one-hot blocks and normalized dense signature weights,
// concatenated with every zero (and -0) kept. It is the reference the
// sparse rows must hash like.
func denseHashVectors(e *Engine, weights [][]float64, foldUsers, foldItems bool) [][]float64 {
	us, is := e.Store.UserSchema, e.Store.ItemSchema
	uOffs, iOffs := us.OneHotOffsets(), is.OneHotOffsets()
	vectors := make([][]float64, len(e.Groups))
	for gi, g := range e.Groups {
		sig := append([]float64(nil), weights[gi]...)
		vec.Normalize(sig)
		var parts [][]float64
		if foldUsers {
			oh := make([]float64, us.TotalCardinality())
			for a := 0; a < us.Len(); a++ {
				if v := g.UserValue(a); v != 0 {
					oh[uOffs[a]+int(v)-1] = 1
				}
			}
			parts = append(parts, vec.Normalize(oh))
		}
		if foldItems {
			oh := make([]float64, is.TotalCardinality())
			for a := 0; a < is.Len(); a++ {
				if v := g.ItemValue(a); v != 0 {
					oh[iOffs[a]+int(v)-1] = 1
				}
			}
			parts = append(parts, vec.Normalize(oh))
		}
		vectors[gi] = vec.Concat(append(parts, sig)...)
	}
	return vectors
}

// denseBuckets is a dense index build with one table per dprime-row block
// of the seeded plane stream: table t draws rows [t·dprime, (t+1)·dprime),
// each of len(v) coordinates, and buckets every vector by the signs of
// its full dense dot products. Buckets come back sorted by (Table,
// Signature), ids ascending.
func denseBuckets(vectors [][]float64, l, dprime int, seed int64) []lsh.Bucket {
	rng := rand.New(rand.NewSource(seed))
	d := len(vectors[0])
	var out []lsh.Bucket
	for t := 0; t < l; t++ {
		planes := make([][]float64, dprime)
		for h := range planes {
			planes[h] = make([]float64, d)
			for c := range planes[h] {
				planes[h][c] = rng.NormFloat64()
			}
		}
		byBucket := make(map[uint64][]int)
		for id, v := range vectors {
			var sig uint64
			for h, plane := range planes {
				if vec.Dot(plane, v) >= 0 {
					sig |= 1 << uint(h)
				}
			}
			byBucket[sig] = append(byBucket[sig], id)
		}
		for sig, ids := range byBucket {
			out = append(out, lsh.Bucket{Table: t, Signature: sig, IDs: ids})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// relaxRounds lists the d' of every relaxation round smlshPartial can
// reach from opts: DPrime first, then Algorithm 1's binary search down to
// 1, or DPrime alone with relaxation off.
func relaxRounds(opts LSHOptions) []int {
	rounds := []int{opts.DPrime}
	if opts.DisableRelaxation {
		return rounds
	}
	lo, hi := 1, opts.DPrime
	for dprime := opts.DPrime; ; {
		hi = dprime - 1
		if lo > hi {
			return rounds
		}
		dprime = (lo + hi) / 2
		rounds = append(rounds, dprime)
	}
}

var (
	smallWorldOnce sync.Once
	smallWorld     struct {
		s   *store.Store
		gs  []*groups.Group
		lda []signature.Signature
		err error
	}
)

// smallEngine builds a fresh (cold-cache) engine over the datagen.Small
// corpus's fully-described groups of at least 5 tuples with the named
// signatures: "frequency" (sparse tag counts, as the server hashes them),
// "lda" (dense 8-topic LDA mixtures) or "zeros" (frequency signatures
// with every third group's weights all zero and every other coordinate
// of the rest an explicit +0 or -0).
func smallEngine(t testing.TB, sigs string) *Engine {
	t.Helper()
	e, _ := smallEngineDense(t, sigs)
	return e
}

// smallEngineDense is smallEngine plus each group's dense signature
// weights as summarized, before signature.FromDense left out their zeros.
func smallEngineDense(t testing.TB, sigs string) (*Engine, [][]float64) {
	t.Helper()
	smallWorldOnce.Do(func() {
		w, err := datagen.Generate(datagen.Small())
		if err != nil {
			smallWorld.err = err
			return
		}
		s, err := store.New(w.Dataset)
		if err != nil {
			smallWorld.err = err
			return
		}
		gs := (&groups.Enumerator{Store: s, MinTuples: 5}).FullyDescribed()
		topics, err := signature.TrainLDA(s, gs, 8, 20, 1)
		if err != nil {
			smallWorld.err = err
			return
		}
		smallWorld.s, smallWorld.gs = s, gs
		smallWorld.lda = signature.SummarizeAll(topics, s, gs)
	})
	if smallWorld.err != nil {
		t.Fatal(smallWorld.err)
	}
	s, gs := smallWorld.s, smallWorld.gs
	var ss []signature.Signature
	switch sigs {
	case "lda":
		ss = smallWorld.lda
	case "frequency", "zeros":
		ss = signature.SummarizeAll(signature.NewFrequency(s), s, gs)
	default:
		t.Fatalf("unknown signatures %q", sigs)
	}
	dense := make([][]float64, len(ss))
	for gi := range ss {
		dense[gi] = ss[gi].Dense()
	}
	if sigs == "zeros" {
		negZero := math.Copysign(0, -1)
		for gi, w := range dense {
			for c := range w {
				switch {
				case gi%3 == 0:
					w[c] = 0
				case w[c] == 0 && c%2 == 1:
					w[c] = negZero
				}
			}
			ss[gi] = signature.FromDense(w)
		}
	}
	e, err := NewEngine(s, gs, ss)
	if err != nil {
		t.Fatal(err)
	}
	return e, dense
}

// TestSMLSHBucketsMatchDenseIndex is the answer oracle for the one-pass
// hashing path: for SM-LSH-Fi and SM-LSH-Fo (both fold specs), every
// relaxation round's bucket list, sliced from the epoch's sign-bit table,
// must equal the dense index built for that round alone, with relaxation
// on and off, over sparse, ±0-laden and dense signatures.
func TestSMLSHBucketsMatchDenseIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen.Small corpus under -short")
	}
	// Problem 1 folds user and item similarity, Problem 2 users only.
	specs := []ProblemSpec{}
	for _, id := range []int{1, 2} {
		spec, err := PaperProblem(id, 3, 15, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, sigs := range []string{"frequency", "zeros", "lda"} {
		e, weights := smallEngineDense(t, sigs)
		for _, spec := range specs {
			for _, mode := range []ConstraintMode{Filter, Fold} {
				foldUsers, foldItems := e.foldFlags(spec, mode)
				dense := denseHashVectors(e, weights, foldUsers, foldItems)
				v, err := e.buildHashVectors(foldUsers, foldItems)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range []int{1, 2, 3} {
					for _, dprime := range []int{1, 10, 30} {
						for _, norelax := range []bool{false, true} {
							opts := LSHOptions{DPrime: dprime, L: l, Seed: 5, Mode: mode, DisableRelaxation: norelax}
							bits, err := lsh.Hash(v, lsh.Params{DPrime: dprime, L: l, Seed: opts.Seed})
							if err != nil {
								t.Fatal(err)
							}
							for _, d := range relaxRounds(opts) {
								got := bits.Buckets(l, d)
								want := denseBuckets(dense, l, d, opts.Seed)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s %s %+v round d'=%d: %d buckets, dense index has %d",
										sigs, spec.Name, opts, d, len(got), len(want))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSMLSHHashesOncePerEpoch runs two shard partials concurrently on a
// cold engine: the sign-bit table must be computed once, and the shards
// must scan the same bucket list each round, each taking its positions
// congruent to its shard number.
func TestSMLSHHashesOncePerEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen.Small corpus under -short")
	}
	e := smallEngine(t, "frequency")
	spec, err := PaperProblem(1, 3, 15, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	opts := SolveOptions{LSH: LSHOptions{DPrime: 10, L: 2, Seed: 3, Mode: Fold}}
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		parts [2]Partial
		errs  [2]error
	)
	for shard := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			parts[shard], errs[shard] = e.SolvePartial(context.Background(), spec, opts, shard, 2)
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := e.cache.lshBuilds.Load(); n != 1 {
		t.Fatalf("sign-bit table computed %d times for two concurrent shards, want 1", n)
	}

	// Both shards sliced one table: re-slicing the cached table gives
	// each round's list, and each shard examined exactly its positions.
	foldUsers, foldItems := e.foldFlags(spec, opts.LSH.Mode)
	bits, err := e.cache.lshBits(lshKey{foldUsers, foldItems, opts.LSH.L * opts.LSH.DPrime, opts.LSH.Seed}, func() (*lsh.Bits, error) {
		t.Fatal("cached table rebuilt")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := relaxRounds(opts.LSH)
	for shard, p := range parts {
		if len(p.roundExam) == 0 || len(p.roundExam) > len(rounds) {
			t.Fatalf("shard %d scanned %d rounds of %d", shard, len(p.roundExam), len(rounds))
		}
		for r, exam := range p.roundExam {
			n := len(bits.Buckets(opts.LSH.L, rounds[r]))
			if want := int64((n - shard + 1) / 2); exam != want {
				t.Fatalf("shard %d round %d examined %d buckets, want %d of %d", shard, r, exam, want, n)
			}
		}
	}
	got, err := e.MergePartials(spec, parts[:], time.Now())
	if err != nil {
		t.Fatal(err)
	}
	want, err := smallEngine(t, "frequency").SMLSH(context.Background(), spec, opts.LSH)
	if err != nil {
		t.Fatal(err)
	}
	if got.Found != want.Found || got.Objective != want.Objective ||
		got.CandidatesExamined != want.CandidatesExamined || !reflect.DeepEqual(ids(got.Groups), ids(want.Groups)) {
		t.Fatalf("sharded %v/%v/%d %v, serial %v/%v/%d %v", got.Found, got.Objective, got.CandidatesExamined, ids(got.Groups),
			want.Found, want.Objective, want.CandidatesExamined, ids(want.Groups))
	}
}

func ids(gs []*groups.Group) []int {
	out := make([]int, len(gs))
	for i, g := range gs {
		out[i] = g.ID
	}
	return out
}

// TestSMLSHValidatesOptionsFirst checks that a bad DPrime or L, or an
// empty universe, fails with the hashing layer's error before any matrix
// or sign-bit work, through both SMLSH and SolvePartial.
func TestSMLSHValidatesOptionsFirst(t *testing.T) {
	spec, err := PaperProblem(1, 2, 5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	full := buildEngine(t)
	empty, err := NewEngine(full.Store, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		e    *Engine
		opts LSHOptions
		want string
	}{
		{full, LSHOptions{DPrime: 65}, "lsh: DPrime 65 out of [1, 64]"},
		{full, LSHOptions{DPrime: -1}, "lsh: DPrime -1 out of [1, 64]"},
		{full, LSHOptions{L: -2}, "lsh: L must be >= 1, got -2"},
		{empty, LSHOptions{}, "lsh: no vectors"},
		{empty, LSHOptions{DPrime: 65, L: -2}, "lsh: no vectors"},
	}
	for _, c := range cases {
		for _, via := range []string{"SMLSH", "SolvePartial"} {
			var err error
			if via == "SMLSH" {
				_, err = c.e.SMLSH(context.Background(), spec, c.opts)
			} else {
				_, err = c.e.SolvePartial(context.Background(), spec, SolveOptions{LSH: c.opts}, 0, 2)
			}
			if err == nil || err.Error() != c.want {
				t.Errorf("%s %+v on %d groups: err %v, want %q", via, c.opts, len(c.e.Groups), err, c.want)
			}
		}
		if n := c.e.cache.lshBuilds.Load(); n != 0 {
			t.Errorf("%+v: %d sign-bit tables computed before validation failed", c.opts, n)
		}
		if st := c.e.MatrixStats(); st.Entries != 0 {
			t.Errorf("%+v: %d matrices built before validation failed", c.opts, st.Entries)
		}
	}
	// Valid options on the same engine still solve.
	if _, err := full.SMLSH(context.Background(), spec, LSHOptions{DPrime: 64, L: 1}); err != nil {
		t.Fatal(err)
	}
}
