package core

import (
	"context"
	"errors"

	"math"
	"strings"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// buildEngine constructs a controlled world: 4 user profiles (gender x age)
// by 4 items spanning 3 genres and 2 directors, with genre-themed tags.
// Every (profile, item) combination contributes 5 tagging actions, giving
// 16 fully-described groups of 5 tuples each.
func buildEngine(t testing.TB) *Engine {
	t.Helper()
	d := model.NewDataset(
		model.NewSchema("gender", "age"),
		model.NewSchema("genre", "director"),
	)
	profiles := []map[string]string{
		{"gender": "male", "age": "teen"},
		{"gender": "male", "age": "young"},
		{"gender": "female", "age": "teen"},
		{"gender": "female", "age": "young"},
	}
	// Two users per profile.
	userIDs := make([][]int32, len(profiles))
	for pi, p := range profiles {
		for j := 0; j < 2; j++ {
			id, err := d.AddUser(p)
			if err != nil {
				t.Fatal(err)
			}
			userIDs[pi] = append(userIDs[pi], id)
		}
	}
	items := []map[string]string{
		{"genre": "action", "director": "spielberg"},
		{"genre": "drama", "director": "spielberg"},
		{"genre": "comedy", "director": "allen"},
		{"genre": "drama", "director": "allen"},
	}
	itemIDs := make([]int32, len(items))
	for ii, it := range items {
		id, err := d.AddItem(it)
		if err != nil {
			t.Fatal(err)
		}
		itemIDs[ii] = id
	}
	themes := map[string][]string{
		"action": {"gun", "fight", "explosions"},
		"drama":  {"tears", "moving", "deep"},
		"comedy": {"funny", "witty", "dry"},
	}
	for pi := range profiles {
		for ii, it := range items {
			tags := themes[it["genre"]]
			for a := 0; a < 5; a++ {
				u := userIDs[pi][a%2]
				if err := d.AddAction(u, itemIDs[ii], 0,
					tags[a%3], tags[(a+1)%3]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s, err := store.New(d)
	if err != nil {
		t.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 5}).FullyDescribed()
	if len(gs) != 16 {
		t.Fatalf("expected 16 groups, got %d", len(gs))
	}
	sigs := signature.SummarizeAll(signature.NewFrequency(s), s, gs)
	e, err := NewEngine(s, gs, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSpecValidate(t *testing.T) {
	ok := ProblemSpec{KLo: 1, KHi: 2, Objectives: []Objective{{Dim: mining.Tags, Weight: 1}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ProblemSpec{
		{KLo: 0, KHi: 2, Objectives: ok.Objectives},
		{KLo: 3, KHi: 2, Objectives: ok.Objectives},
		{KLo: 1, KHi: 2},
		{KLo: 1, KHi: 2, Objectives: []Objective{{Dim: mining.Tags, Weight: 0}}},
		{KLo: 1, KHi: 2, Objectives: ok.Objectives,
			Constraints: []Constraint{{Dim: mining.Users, Threshold: 1.5}}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestSpecValidateNonFinite rejects NaN and infinite objective weights and
// NaN constraint thresholds, on hand-built specs and through PaperProblem
// (whose q and r the public tagdm.Problem passes through unchanged).
func TestSpecValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []float64{nan, inf, math.Inf(-1)} {
		spec := ProblemSpec{KLo: 1, KHi: 2, Objectives: []Objective{{Dim: mining.Tags, Weight: w}}}
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "non-positive weight") {
			t.Errorf("weight %v: Validate() = %v, want the non-positive weight error", w, err)
		}
	}
	for _, th := range []float64{nan, inf, math.Inf(-1)} {
		spec := ProblemSpec{KLo: 1, KHi: 2, Objectives: []Objective{{Dim: mining.Tags, Weight: 1}},
			Constraints: []Constraint{{Dim: mining.Users, Threshold: th}}}
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
			t.Errorf("threshold %v: Validate() = %v, want the out-of-range error", th, err)
		}
	}
	for _, qr := range [][2]float64{{nan, 0.5}, {0.5, nan}} {
		spec, err := PaperProblem(4, 3, 10, qr[0], qr[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err == nil {
			t.Errorf("PaperProblem(4, 3, 10, %v, %v) validates", qr[0], qr[1])
		}
	}
	edge := ProblemSpec{KLo: 1, KHi: 2, Objectives: []Objective{{Dim: mining.Tags, Weight: math.MaxFloat64}},
		Constraints: []Constraint{{Dim: mining.Users, Threshold: 0}, {Dim: mining.Items, Threshold: 1}}}
	if err := edge.Validate(); err != nil {
		t.Errorf("finite edge values rejected: %v", err)
	}
}

func TestPaperProblems(t *testing.T) {
	for id := 1; id <= 6; id++ {
		spec, err := PaperProblem(id, 3, 100, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("problem %d invalid: %v", id, err)
		}
		if len(spec.Constraints) != 2 || len(spec.Objectives) != 1 {
			t.Fatalf("problem %d shape wrong", id)
		}
		if spec.Objectives[0].Dim != mining.Tags {
			t.Fatalf("problem %d does not optimize tags", id)
		}
		wantSim := id <= 3
		gotSim := spec.Objectives[0].Meas == mining.Similarity
		if wantSim != gotSim {
			t.Fatalf("problem %d objective measure wrong", id)
		}
	}
	if _, err := PaperProblem(7, 3, 0, 0, 0); err == nil {
		t.Fatal("id 7 accepted")
	}
}

func TestAllRoles(t *testing.T) {
	specs := AllRoles()
	if len(specs) != 98 {
		t.Fatalf("AllRoles returned %d specs, want 98", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %q invalid: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestNewEngineValidation(t *testing.T) {
	e := buildEngine(t)
	if _, err := NewEngine(e.Store, e.Groups, e.Sigs[:3]); err == nil {
		t.Fatal("signature count mismatch accepted")
	}
	bad := []*groups.Group{e.Groups[1], e.Groups[0]}
	if _, err := NewEngine(e.Store, bad, e.Sigs[:2]); err == nil {
		t.Fatal("misordered group IDs accepted")
	}
}

func TestExactProblem1(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	res, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("Exact found nothing")
	}
	if len(res.Groups) != 2 {
		t.Fatalf("Exact returned %d groups", len(res.Groups))
	}
	// Optimum: two groups over the same item (tag cosine ~1, item sim 1)
	// whose user profiles share one attribute (user sim 0.5).
	if res.Objective < 0.9 {
		t.Fatalf("Exact objective = %v", res.Objective)
	}
	if !e.ConstraintsSatisfied(res.Groups, spec) {
		t.Fatal("Exact returned infeasible set")
	}
	if res.Support < 10 {
		t.Fatalf("support = %d", res.Support)
	}
	if res.CandidatesExamined == 0 {
		t.Fatal("no candidates counted")
	}
}

func TestExactRespectsConstraints(t *testing.T) {
	e := buildEngine(t)
	// Impossible support forces a null result.
	spec, _ := PaperProblem(1, 2, 10_000, 0.5, 0.5)
	res, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("infeasible support satisfied?!")
	}
}

func TestExactCandidateCap(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	if _, err := e.Exact(context.Background(), spec, ExactOptions{MaxCandidates: 3}); err == nil {
		t.Fatal("cap not enforced")
	}
}

func TestSMLSHRejectsDiversityObjective(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(4, 2, 5, 0.5, 0.5)
	if _, err := e.SMLSH(context.Background(), spec, LSHOptions{Seed: 1}); err == nil {
		t.Fatal("diversity objective accepted by SM-LSH")
	}
}

func TestSMLSHFindsSimilarGroups(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	for _, mode := range []ConstraintMode{Filter, Fold} {
		res, err := e.SMLSH(context.Background(), spec, LSHOptions{DPrime: 10, L: 1, Seed: 7, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("mode %v: null result", mode)
		}
		if !e.ConstraintsSatisfied(res.Groups, spec) {
			t.Fatalf("mode %v: infeasible result", mode)
		}
		// Returned groups must share a tag theme: objective near 1.
		if res.Objective < 0.8 {
			t.Fatalf("mode %v: objective %v", mode, res.Objective)
		}
	}
}

func TestSMLSHQualityVsExact(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	exact, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	app, err := e.SMLSH(context.Background(), spec, LSHOptions{Seed: 7, Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !app.Found {
		t.Fatal("null result")
	}
	if app.Objective > exact.Objective+1e-9 {
		t.Fatalf("approximate %v beats exact %v", app.Objective, exact.Objective)
	}
}

func TestSMLSHRelaxation(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	// A very fine partition (many hyperplanes) scatters groups into
	// singletons; relaxation must coarsen until a feasible bucket appears.
	res, err := e.SMLSH(context.Background(), spec, LSHOptions{DPrime: 60, L: 1, Seed: 3, Mode: Filter})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("relaxation failed to recover")
	}
	// With relaxation disabled at the same starting point the run may or
	// may not find a bucket; it must at least not crash and must report
	// the attempt.
	res2, err := e.SMLSH(context.Background(), spec, LSHOptions{DPrime: 60, L: 1, Seed: 3, Mode: Filter, DisableRelaxation: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CandidatesExamined == 0 {
		t.Fatal("no buckets examined")
	}
}

func TestDVFDPFindsDiverseGroups(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(6, 2, 5, 0.5, 0.5)
	// Fi post-filters: the unconstrained greedy may well pick a pair that
	// violates the user/item constraints, so a null result is legitimate
	// (the paper notes Fi "may return null results frequently"). It must
	// not error, and any found result must be feasible.
	fi, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Filter})
	if err != nil {
		t.Fatal(err)
	}
	if fi.Found && !e.ConstraintsSatisfied(fi.Groups, spec) {
		t.Fatal("Fi returned infeasible result")
	}
	// Fo folds the constraints into the greedy add and must succeed here:
	// the two spielberg items (action vs drama) with overlapping profiles
	// give tag diversity ~1 while item sim = 0.5.
	fo, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !fo.Found {
		t.Fatal("Fo: null result")
	}
	if !e.ConstraintsSatisfied(fo.Groups, spec) {
		t.Fatal("Fo: infeasible result")
	}
	if fo.Objective < 0.8 {
		t.Fatalf("Fo objective %v, groups %v", fo.Objective, fo.Describe(e.Store))
	}
}

func TestDVFDPPrecomputeMatchesLazy(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(4, 3, 5, 0.5, 0.5)
	lazy, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold, Precompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Found != pre.Found {
		t.Fatal("precompute changed feasibility")
	}
	if lazy.Found && math.Abs(lazy.Objective-pre.Objective) > 1e-12 {
		t.Fatalf("objectives differ: %v vs %v", lazy.Objective, pre.Objective)
	}
}

func TestDVFDPMaxMinAndFixedSeed(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(6, 2, 5, 0.5, 0.5)
	mm, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold, Criterion: MaxMin})
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Found {
		t.Fatal("MaxMin null result")
	}
	fs, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Filter, FixedSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = fs // fixed seed may or may not be feasible; must not error
}

func TestDVFDPSimilarityExtension(t *testing.T) {
	// The FDP machinery with a similarity objective should find similar
	// groups, agreeing with SM-LSH in spirit (paper Section 5 notes the
	// extension).
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	res, err := e.DVFDP(context.Background(), spec, FDPOptions{Mode: Fold})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("null result")
	}
	if res.Objective < 0.8 {
		t.Fatalf("similarity-via-FDP objective = %v", res.Objective)
	}
}

func TestSolveDispatch(t *testing.T) {
	e := buildEngine(t)
	sim, _ := PaperProblem(2, 2, 5, 0.5, 0.5)
	div, _ := PaperProblem(5, 2, 5, 0.5, 0.5)
	rs, err := e.Solve(context.Background(), sim, SolveOptions{LSH: LSHOptions{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rs.Algorithm, "SM-LSH") {
		t.Fatalf("similarity spec dispatched to %s", rs.Algorithm)
	}
	rd, err := e.Solve(context.Background(), div, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rd.Algorithm, "DV-FDP") {
		t.Fatalf("diversity spec dispatched to %s", rd.Algorithm)
	}
}

func TestAllSixPaperProblemsSolvable(t *testing.T) {
	e := buildEngine(t)
	for id := 1; id <= 6; id++ {
		spec, _ := PaperProblem(id, 2, 5, 0.4, 0.4)
		res, err := e.Solve(context.Background(), spec, SolveOptions{LSH: LSHOptions{Seed: 11}, FDP: FDPOptions{Mode: Fold}})
		if err != nil {
			t.Fatalf("problem %d: %v", id, err)
		}
		if !res.Found {
			t.Fatalf("problem %d: null result", id)
		}
		if !e.ConstraintsSatisfied(res.Groups, spec) {
			t.Fatalf("problem %d: infeasible result %v", id, res.Describe(e.Store))
		}
	}
}

func TestAllRolesSolvableOrNull(t *testing.T) {
	// Every generated spec must run without error through Solve (feasible
	// or null, but never a crash or validation failure).
	e := buildEngine(t)
	for _, spec := range AllRoles() {
		res, err := e.Solve(context.Background(), spec, SolveOptions{LSH: LSHOptions{Seed: 5}, FDP: FDPOptions{Mode: Filter}})
		if err != nil {
			t.Fatalf("spec %q: %v", spec.Name, err)
		}
		if res.Found && !e.ConstraintsSatisfied(res.Groups, spec) {
			t.Fatalf("spec %q returned infeasible set", spec.Name)
		}
	}
}

func TestResultDescribe(t *testing.T) {
	e := buildEngine(t)
	spec, _ := PaperProblem(1, 2, 5, 0.5, 0.5)
	res, err := e.Exact(context.Background(), spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	descs := res.Describe(e.Store)
	if len(descs) != len(res.Groups) {
		t.Fatal("describe length mismatch")
	}
	for _, d := range descs {
		if !strings.Contains(d, "gender=") || !strings.Contains(d, "genre=") {
			t.Fatalf("description %q missing attributes", d)
		}
	}
}

// Property: for every paper problem, any feasible approximate result's
// objective never exceeds Exact's.
func TestApproxNeverBeatsExact(t *testing.T) {
	e := buildEngine(t)
	for id := 1; id <= 6; id++ {
		spec, _ := PaperProblem(id, 2, 5, 0.5, 0.5)
		exact, err := e.Exact(context.Background(), spec, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Found {
			continue
		}
		res, err := e.Solve(context.Background(), spec, SolveOptions{LSH: LSHOptions{Seed: 13}, FDP: FDPOptions{Mode: Fold}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && res.Objective > exact.Objective+1e-9 {
			t.Fatalf("problem %d: approx %v beats exact %v", id, res.Objective, exact.Objective)
		}
	}
}

// TestNewEngineRejectsInvalidSignatures: signatures of unequal length, or
// with a NaN or ±Inf weight, fail engine construction with the typed
// error instead of surfacing at solve time.
func TestNewEngineRejectsInvalidSignatures(t *testing.T) {
	e := buildEngine(t)
	for _, c := range []struct {
		name   string
		mutate func(w []float64) []float64
		coord  int
	}{
		{"ragged", func(w []float64) []float64 { return w[:len(w)-1] }, -1},
		{"nan", func(w []float64) []float64 { w[0] = math.NaN(); return w }, 0},
		{"inf", func(w []float64) []float64 { w[len(w)-1] = math.Inf(-1); return w }, e.Sigs[3].Dim() - 1},
	} {
		sigs := append([]signature.Signature(nil), e.Sigs...)
		sigs[3] = signature.FromDense(c.mutate(sigs[3].Dense()))
		_, err := NewEngine(e.Store, e.Groups, sigs)
		var inv *signature.InvalidError
		if !errors.As(err, &inv) || inv.Index != 3 || inv.Coord != c.coord {
			t.Fatalf("%s: NewEngine error %v, want *signature.InvalidError for signature 3, coordinate %d", c.name, err, c.coord)
		}
	}
}
