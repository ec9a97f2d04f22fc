package experiments

import (
	"context"

	"fmt"
	"math"
	"math/rand"
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// This file is the randomized property harness pinning the Exact
// branch-and-bound: on seeded random corpora spanning universe sizes on
// both sides of the 2^16 container chunk, densities, group counts and k
// ranges, pruning on must be byte-identical to pruning off (the retained
// naive-enumeration oracle), the examined/pruned split must partition the
// full enumeration, and every solver must be untouched by how the group
// bitmaps were built (see propCorpus.engine).

// propCorpus is one randomized world: a store whose tuple universe the
// group bitmaps range over, plus per-(dimension, measure) symmetric pair
// tables quantized to multiples of 1/64 — dyadic values keep every pair-sum
// exact in float64, so "byte-identical" is a hard assertion, not a
// tolerance.
type propCorpus struct {
	universe int
	density  float64
	nGroups  int
	seed     int64

	store  *store.Store
	tuples []*store.Bitmap // group tuple sets, built over the full universe
	tables map[mining.Dimension]map[mining.Measure][][]float64
}

func newPropCorpus(t *testing.T, universe, nGroups int, density float64, seed int64) *propCorpus {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := model.NewDataset(model.NewSchema("u"), model.NewSchema("g"))
	user, err := d.AddUser(map[string]string{"u": "x"})
	if err != nil {
		t.Fatal(err)
	}
	item, err := d.AddItem(map[string]string{"g": "y"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < universe; i++ {
		if err := d.AddAction(user, item, 0, "t"); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != universe {
		t.Fatalf("store expanded %d actions to %d tuples", universe, s.Len())
	}
	c := &propCorpus{universe: universe, density: density, nGroups: nGroups, seed: seed, store: s}
	for g := 0; g < nGroups; g++ {
		bm := store.NewBitmap(universe)
		for id := 0; id < universe; id++ {
			if rng.Float64() < density {
				bm.Set(id)
			}
		}
		if bm.Count() == 0 {
			bm.Set(rng.Intn(universe))
		}
		c.tuples = append(c.tuples, bm)
	}
	c.tables = make(map[mining.Dimension]map[mining.Measure][][]float64)
	for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
		c.tables[dim] = make(map[mining.Measure][][]float64)
		for _, meas := range []mining.Measure{mining.Similarity, mining.Diversity} {
			tab := make([][]float64, nGroups)
			for i := range tab {
				tab[i] = make([]float64, nGroups)
			}
			for i := 0; i < nGroups; i++ {
				for j := i + 1; j < nGroups; j++ {
					v := float64(rng.Intn(65)) / 64
					tab[i][j], tab[j][i] = v, v
				}
			}
			c.tables[dim][meas] = tab
		}
	}
	return c
}

// engine materializes the corpus with its group tuple sets built one of
// three ways: "full" sets every id over the final universe, so sparse
// chunks are arrays; "grown" appends ids one at a time behind Grow, as
// incremental ingest does, so every chunk is a bitset, possibly shorter
// than its span; "mixed" picks per group, so unions mix shapes and
// universes. All share the same pair tables, so any divergence between
// them is a kernel bug, not a modeling artifact.
func (c *propCorpus) engine(t *testing.T, layout string) *core.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed + 101))
	gs := make([]*groups.Group, c.nGroups)
	for i, bm := range c.tuples {
		tu := bm.Clone()
		switch layout {
		case "full":
		case "grown":
			tu = grownBitmap(bm)
		case "mixed":
			if rng.Intn(2) == 0 {
				tu = grownBitmap(bm)
			}
		default:
			t.Fatalf("unknown layout %q", layout)
		}
		gs[i] = &groups.Group{ID: i, Tuples: tu, Members: tu.Slice()}
	}
	sigs := signature.SummarizeAll(signature.FrequencyOfSize(c.store.Vocab.Size()), c.store, gs)
	e, err := core.NewEngine(c.store, gs, sigs)
	if err != nil {
		t.Fatal(err)
	}
	for dim, byMeas := range c.tables {
		for meas, tab := range byMeas {
			tab := tab
			e.SetPairFunc(dim, meas, func(g1, g2 *groups.Group) float64 {
				return tab[g1.ID][g2.ID]
			})
		}
	}
	return e
}

// grownBitmap rebuilds bm the way incremental ingest does: from an empty
// universe, growing to each id before setting it. The last Grow stops at
// the highest id, so the bitmap's universe is smaller than bm's whenever
// bm's last id is not its universe's last.
func grownBitmap(bm *store.Bitmap) *store.Bitmap {
	out := store.NewBitmap(0)
	bm.ForEach(func(id int) bool {
		out.Grow(id + 1)
		out.Set(id)
		return true
	})
	return out
}

// propSpecs derives a deterministic batch of problem specs for a corpus:
// varying k ranges, support floors (including none), constraint counts and
// thresholds, plus one similarity-only spec so the SM-LSH family is always
// exercised by the Solve sweep.
func (c *propCorpus) propSpecs(rng *rand.Rand) []core.ProblemSpec {
	dims := []mining.Dimension{mining.Users, mining.Items, mining.Tags}
	meases := []mining.Measure{mining.Similarity, mining.Diversity}
	var specs []core.ProblemSpec
	for si := 0; si < 6; si++ {
		spec := core.ProblemSpec{
			KLo:  1 + rng.Intn(2),
			Name: fmt.Sprintf("prop-%d", si),
		}
		// Reach KHi-KLo up to 3: deep completions exercise the bound's
		// future-future pair term (r >= 2), not just the cross-pair rows.
		spec.KHi = spec.KLo + 1 + rng.Intn(3)
		switch rng.Intn(3) {
		case 0: // no support floor
		case 1:
			spec.MinSupport = 1 + rng.Intn(c.universe/4+1)
		case 2: // a floor high enough to reject some sets
			spec.MinSupport = int(float64(c.universe) * c.density)
		}
		for ci := 0; ci < rng.Intn(3); ci++ {
			spec.Constraints = append(spec.Constraints, core.Constraint{
				Dim:       dims[rng.Intn(3)],
				Meas:      meases[rng.Intn(2)],
				Threshold: float64(rng.Intn(33)) / 32,
			})
		}
		for oi := 0; oi < 1+rng.Intn(2); oi++ {
			spec.Objectives = append(spec.Objectives, core.Objective{
				Dim:    dims[rng.Intn(3)],
				Meas:   meases[rng.Intn(2)],
				Weight: 1,
			})
		}
		specs = append(specs, spec)
	}
	specs = append(specs, core.ProblemSpec{
		KLo: 1, KHi: 3,
		MinSupport: 1,
		Objectives: []core.Objective{{Dim: mining.Tags, Meas: mining.Similarity, Weight: 1}},
		Name:       "prop-sim-only",
	})
	return specs
}

// assertByteIdentical compares two results field by field with bit-level
// float comparison (NaN-safe via Float64bits).
func assertByteIdentical(t *testing.T, label string, want, got core.Result) {
	t.Helper()
	if got.Found != want.Found {
		t.Fatalf("%s: found %v vs %v", label, got.Found, want.Found)
	}
	if !want.Found {
		return
	}
	w, g := resultIDs(want), resultIDs(got)
	if len(w) != len(g) {
		t.Fatalf("%s: set size %d vs %d", label, len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: argmax %v vs %v", label, g, w)
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v vs %v", label, got.Objective, want.Objective)
	}
	if got.Support != want.Support {
		t.Fatalf("%s: support %d vs %d", label, got.Support, want.Support)
	}
}

// propCorpora is the shared corpus grid: universe size and density sweep
// from tiny dense worlds to a sparse 70k universe that crosses the 2^16
// chunk boundary, with distinct seeds per cell.
func propCorpora(t *testing.T) []*propCorpus {
	t.Helper()
	var cs []*propCorpus
	for ci, cell := range []struct {
		universe int
		nGroups  int
		density  float64
	}{
		{64, 8, 0.25},
		{1024, 12, 0.05},
		{1024, 10, 0.4},
		{70000, 12, 0.002},
	} {
		cs = append(cs, newPropCorpus(t, cell.universe, cell.nGroups, cell.density, int64(1000+ci)))
	}
	return cs
}

// TestExactPruningPropertyRandomCorpora is the harness's core property:
// for every random corpus, spec, and serial/parallel mode, Exact with
// pruning must be byte-identical to the pruning-disabled oracle, and
// examined + pruned must exactly account for the oracle's enumeration.
func TestExactPruningPropertyRandomCorpora(t *testing.T) {
	var totalPruned int64
	for _, c := range propCorpora(t) {
		rng := rand.New(rand.NewSource(c.seed + 7))
		specs := c.propSpecs(rng)
		e := c.engine(t, "full")
		for _, spec := range specs {
			for _, parallel := range []bool{false, true} {
				label := fmt.Sprintf("u=%d d=%g %s parallel=%v",
					c.universe, c.density, spec.Name, parallel)
				oracle, err := exactMode(e, spec, core.ExactOptions{DisablePruning: true}, parallel)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if oracle.CandidatesPruned != 0 {
					t.Fatalf("%s: oracle pruned %d", label, oracle.CandidatesPruned)
				}
				pruned, err := exactMode(e, spec, core.ExactOptions{}, parallel)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertByteIdentical(t, label, oracle, pruned)
				if got := pruned.CandidatesExamined + pruned.CandidatesPruned; got != oracle.CandidatesExamined {
					t.Fatalf("%s: examined %d + pruned %d = %d, enumeration %d",
						label, pruned.CandidatesExamined, pruned.CandidatesPruned,
						got, oracle.CandidatesExamined)
				}
				totalPruned += pruned.CandidatesPruned
			}
		}
	}
	if totalPruned == 0 {
		t.Fatal("bound never fired across the whole corpus grid; the property holds vacuously")
	}
}

// TestSolverLayoutEquivalenceRandomCorpora pins the other half of the
// harness: Exact (pruning on), DV-FDP and SM-LSH produce byte-identical
// outputs on every corpus however the group tuple sets were built — grown
// and mixed container shapes and universes must be pure representation
// changes.
func TestSolverLayoutEquivalenceRandomCorpora(t *testing.T) {
	for _, c := range propCorpora(t) {
		rng := rand.New(rand.NewSource(c.seed + 7))
		specs := c.propSpecs(rng)
		full := c.engine(t, "full")
		for _, layout := range []string{"grown", "mixed"} {
			other := c.engine(t, layout)
			for _, spec := range specs {
				label := fmt.Sprintf("u=%d d=%g %s vs full %s", c.universe, c.density, layout, spec.Name)
				want, err := full.Exact(context.Background(), spec, core.ExactOptions{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := other.Exact(context.Background(), spec, core.ExactOptions{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertByteIdentical(t, label+"/Exact", want, got)
				if want.CandidatesExamined != got.CandidatesExamined ||
					want.CandidatesPruned != got.CandidatesPruned {
					t.Fatalf("%s: examined/pruned %d/%d vs %d/%d — layout changed pruning decisions",
						label, got.CandidatesExamined, got.CandidatesPruned,
						want.CandidatesExamined, want.CandidatesPruned)
				}

				opts := core.SolveOptions{
					LSH: core.LSHOptions{DPrime: 6, L: 2, Seed: 9, Mode: core.Fold},
					FDP: core.FDPOptions{Mode: core.Fold},
				}
				wantA, err := full.Solve(context.Background(), spec, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				gotA, err := other.Solve(context.Background(), spec, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if wantA.Algorithm != gotA.Algorithm {
					t.Fatalf("%s: dispatched to %s vs %s", label, gotA.Algorithm, wantA.Algorithm)
				}
				assertByteIdentical(t, label+"/"+wantA.Algorithm, wantA, gotA)
			}
		}
	}
}
