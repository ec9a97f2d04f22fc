package core

import (
	"context"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
)

// hashVectorsFor resolves the spec's fold flags, builds the sparse hash
// vectors and expands them to dense rows for inspection.
func hashVectorsFor(t *testing.T, e *Engine, spec ProblemSpec, mode ConstraintMode) [][]float64 {
	t.Helper()
	foldUsers, foldItems := e.foldFlags(spec, mode)
	v, err := e.buildHashVectors(foldUsers, foldItems)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, v.Len())
	for i := range out {
		out[i] = make([]float64, v.Dim)
		for k := v.Start[i]; k < v.Start[i+1]; k++ {
			out[i][v.Index[k]] = v.Value[k]
		}
	}
	return out
}

func TestHashVectorsDimensions(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	sigDim := e.Sigs[0].Dim()
	uDim := e.Store.UserSchema.TotalCardinality()
	iDim := e.Store.ItemSchema.TotalCardinality()

	// Filter mode hashes the signature alone.
	filterVecs := hashVectorsFor(t, e, spec, Filter)
	if len(filterVecs) != len(e.Groups) {
		t.Fatalf("vector count %d", len(filterVecs))
	}
	if len(filterVecs[0]) != sigDim {
		t.Fatalf("filter dim = %d, want %d", len(filterVecs[0]), sigDim)
	}
	// Problem 1 folds both user and item similarity constraints.
	foldVecs := hashVectorsFor(t, e, spec, Fold)
	want := uDim + iDim + sigDim
	if len(foldVecs[0]) != want {
		t.Fatalf("fold dim = %d, want %d (u=%d i=%d sig=%d)",
			len(foldVecs[0]), want, uDim, iDim, sigDim)
	}
}

func TestHashVectorsFoldOnlySimilarityConstraints(t *testing.T) {
	e := buildEngine(t)
	// Problem 2: user similarity, item DIVERSITY. Only the user block can
	// fold (diversity cannot fold into LSH).
	spec, _ := PaperProblem(2, 2, 5, 0.5, 0.5)
	foldVecs := hashVectorsFor(t, e, spec, Fold)
	want := e.Store.UserSchema.TotalCardinality() + e.Sigs[0].Dim()
	if len(foldVecs[0]) != want {
		t.Fatalf("fold dim = %d, want %d", len(foldVecs[0]), want)
	}
}

func TestHashVectorsOneHotPlacement(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	vecs := hashVectorsFor(t, e, spec, Fold)
	us := e.Store.UserSchema
	uDim := us.TotalCardinality()
	// The user one-hot block of every group must have exactly one
	// non-zero entry per constrained user attribute (here: all of them),
	// and the block is normalized.
	for gi, v := range vecs {
		nonzero := 0
		for _, x := range v[:uDim] {
			if x != 0 {
				nonzero++
			}
		}
		if nonzero != us.Len() {
			t.Fatalf("group %d: %d non-zero one-hot entries, want %d",
				gi, nonzero, us.Len())
		}
	}
	// Groups sharing a full user profile share the exact user block.
	var a, b int = -1, -1
	for i := range e.Groups {
		for j := i + 1; j < len(e.Groups); j++ {
			same := true
			for att := 0; att < us.Len(); att++ {
				if e.Groups[i].UserValue(att) != e.Groups[j].UserValue(att) {
					same = false
					break
				}
			}
			if same {
				a, b = i, j
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	if a < 0 {
		t.Skip("no profile-sharing pair")
	}
	for x := 0; x < uDim; x++ {
		if vecs[a][x] != vecs[b][x] {
			t.Fatalf("profile-sharing groups differ in one-hot block at %d", x)
		}
	}
}

func TestTrimBucketSelectsBestPairs(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 0, 0.5, 0.5) // KHi = 2, no support floor
	// Trim the full universe: the survivors must be a pair with maximal
	// tag similarity (two same-genre groups, cosine ~1).
	ids := make([]int, len(e.Groups))
	for i := range ids {
		ids[i] = i
	}
	kept := e.trimBucket(ids, spec, e.scorer(spec))
	if len(kept) != 2 {
		t.Fatalf("trim kept %d", len(kept))
	}
	pair := e.PairFunc(mining.Tags, mining.Similarity)
	if got := pair(e.Groups[kept[0]], e.Groups[kept[1]]); got < 0.95 {
		t.Fatalf("trimmed pair similarity %v", got)
	}
}

func TestTrimBucketRespectsSupportFloor(t *testing.T) {
	e := buildEngine(t)
	// All groups are size 5; a floor of 10 with k=2 keeps the size->=5
	// preference moot (floor per group is 5, all qualify) but a floor of
	// 30 (per-group 15) disqualifies everyone, so trimming falls back to
	// the whole bucket.
	spec, _ := PaperProblem(1, 2, 30, 0.5, 0.5)
	ids := []int{0, 1, 2, 3}
	kept := e.trimBucket(ids, spec, e.scorer(spec))
	if len(kept) != 2 {
		t.Fatalf("fallback trim kept %d", len(kept))
	}
}

func TestSMLSHStrictBucketMode(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	res, err := e.SMLSH(context.Background(), spec, LSHOptions{DPrime: 10, L: 1, Seed: 7, Mode: Fold, StrictBucketSize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Strict mode may return null (identical signatures collide into
	// oversized buckets); it must never return an infeasible or oversized
	// set.
	if res.Found {
		if len(res.Groups) > spec.KHi {
			t.Fatalf("strict mode returned %d groups", len(res.Groups))
		}
		if !e.ConstraintsSatisfied(res.Groups, spec) {
			t.Fatal("strict mode returned infeasible set")
		}
	}
}

func TestSMLSHDeterministicWithSeed(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	a, err := e.SMLSH(context.Background(), spec, LSHOptions{Seed: 42, Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SMLSH(context.Background(), spec, LSHOptions{Seed: 42, Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || a.Objective != b.Objective {
		t.Fatalf("same seed, different outcome: %v/%v vs %v/%v",
			a.Found, a.Objective, b.Found, b.Objective)
	}
}

func TestObjectiveScoreWeights(t *testing.T) {
	e := buildEngine(t)
	set := []*groups.Group{e.Groups[0], e.Groups[1]}
	single := ProblemSpec{KLo: 1, KHi: 2,
		Objectives: []Objective{{Dim: mining.Tags, Meas: mining.Similarity, Weight: 1}}}
	double := ProblemSpec{KLo: 1, KHi: 2,
		Objectives: []Objective{{Dim: mining.Tags, Meas: mining.Similarity, Weight: 2}}}
	s1 := e.ObjectiveScore(set, single)
	s2 := e.ObjectiveScore(set, double)
	if s2 != 2*s1 {
		t.Fatalf("weights not linear: %v vs %v", s1, s2)
	}
}

func TestConstraintsSatisfiedSizeBounds(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 0, 0, 0)
	if e.ConstraintsSatisfied(nil, spec) {
		t.Fatal("empty set passed KLo >= 1")
	}
	three := []*groups.Group{e.Groups[0], e.Groups[1], e.Groups[2]}
	if e.ConstraintsSatisfied(three, spec) {
		t.Fatal("oversized set passed KHi = 2")
	}
}
