package tagdm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tagdm/internal/signature"
)

func smallDataset(t testing.TB) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(SmallGenerateConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewAnalysisDefaults(t *testing.T) {
	a, err := NewAnalysis(smallDataset(t), Options{Topics: 8, LDAIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() == 0 {
		t.Fatal("no groups")
	}
	if a.NumActions() != SmallGenerateConfig().Actions {
		t.Fatalf("actions = %d", a.NumActions())
	}
}

func TestAnalysisSolvesPaperProblems(t *testing.T) {
	a, err := NewAnalysis(smallDataset(t), Options{Topics: 8, LDAIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	p := a.NumActions() / 100
	for id := 1; id <= 6; id++ {
		spec, err := Problem(id, 3, p, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Solve(spec)
		if err != nil {
			t.Fatalf("problem %d: %v", id, err)
		}
		if res.Found {
			descs := a.Describe(res)
			if len(descs) != len(res.Groups) {
				t.Fatal("describe mismatch")
			}
			for _, d := range descs {
				if !strings.Contains(d, "=") {
					t.Fatalf("description %q", d)
				}
			}
			if cloud := a.GroupCloud(res, 0, 5); cloud == "" {
				t.Fatal("empty group cloud")
			}
		}
	}
}

func TestAnalysisSignatureMethods(t *testing.T) {
	ds := smallDataset(t)
	for _, m := range []SignatureMethod{SignatureFrequency, SignatureTFIDF} {
		a, err := NewAnalysis(ds, Options{Signatures: m})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		spec, _ := Problem(1, 3, 10, 0.4, 0.4)
		if _, err := a.Solve(spec); err != nil {
			t.Fatalf("method %d solve: %v", m, err)
		}
	}
}

func TestAnalysisCustomSummarizer(t *testing.T) {
	ds := smallDataset(t)
	// A trivially valid custom summarizer: frequency from the signature
	// package counts as "custom" wiring here.
	a, err := NewAnalysis(ds, Options{CustomSummarizer: mustFrequency(t, ds)})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() == 0 {
		t.Fatal("no groups")
	}
}

func mustFrequency(t *testing.T, ds *Dataset) Summarizer {
	t.Helper()
	a, err := NewAnalysis(ds, Options{Signatures: SignatureFrequency})
	if err != nil {
		t.Fatal(err)
	}
	return signature.NewFrequency(a.store)
}

func TestAnalysisWithin(t *testing.T) {
	ds := smallDataset(t)
	gender := ds.UserSchema.AttrByName("gender").Value(1)
	a, err := NewAnalysis(ds, Options{
		Signatures: SignatureFrequency,
		Within:     map[string]string{"gender": gender},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewAnalysis(ds, Options{Signatures: SignatureFrequency})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() > full.NumGroups() {
		t.Fatal("filtered analysis has more groups than full")
	}
	if _, err := NewAnalysis(ds, Options{Within: map[string]string{"gender": "martian"}}); err == nil {
		t.Fatal("empty filter accepted")
	}
	if _, err := NewAnalysis(ds, Options{Within: map[string]string{"nope": "x"}}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestAnalysisCloud(t *testing.T) {
	a, err := NewAnalysis(smallDataset(t), Options{Signatures: SignatureFrequency})
	if err != nil {
		t.Fatal(err)
	}
	genre := a.store.ItemSchema.AttrByName("genre").Value(1)
	cloud, err := a.Cloud(map[string]string{"genre": genre}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cloud == "" {
		t.Fatal("empty cloud")
	}
	if _, err := a.Cloud(map[string]string{"bogus": "x"}, 5); err == nil {
		t.Fatal("bad attribute accepted")
	}
}

func TestExactThroughFacade(t *testing.T) {
	a, err := NewAnalysis(smallDataset(t), Options{Signatures: SignatureFrequency, MinGroupTuples: 12})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := Problem(1, 2, 10, 0.3, 0.3)
	if a.NumGroups() > 200 {
		t.Skipf("too many groups (%d) for exact in a unit test", a.NumGroups())
	}
	res, err := a.Exact(spec, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestAllProblemsEnumerates(t *testing.T) {
	if got := len(AllProblems()); got != 98 {
		t.Fatalf("AllProblems = %d", got)
	}
}

func TestRecommenderThroughFacade(t *testing.T) {
	ds := smallDataset(t)
	a, err := NewAnalysis(ds, Options{Signatures: SignatureFrequency})
	if err != nil {
		t.Fatal(err)
	}
	rec := a.Recommender(ds)
	act := ds.Actions[0]
	sugs, err := rec.Suggest(act.User, act.Item, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions for an observed pair")
	}
	for _, s := range sugs {
		if s.Tag == "" || s.Count < 0 {
			t.Fatalf("bad suggestion %+v", s)
		}
	}
	if _, err := rec.Suggest(-1, act.Item, 3); err == nil {
		t.Fatal("negative user accepted")
	}
	if _, err := rec.Suggest(act.User, 99999, 3); err == nil {
		t.Fatal("unknown item accepted")
	}
}

// faultySummarizer wraps a summarizer and damages one group's signature.
type faultySummarizer struct {
	Summarizer
	group  int
	damage func(w []float64) []float64
}

func (f faultySummarizer) Summarize(s *Store, g *Group) Signature {
	sig := f.Summarizer.Summarize(s, g)
	if g.ID == f.group {
		sig = SignatureFromDense(f.damage(sig.Dense()))
	}
	return sig
}

// TestAnalysisRejectsInvalidCustomSignatures: a CustomSummarizer that
// returns a signature of the wrong length or with a non-finite weight
// fails NewAnalysis with an InvalidSignatureError naming the group and the
// coordinate (-1 for a length mismatch).
func TestAnalysisRejectsInvalidCustomSignatures(t *testing.T) {
	ds := smallDataset(t)
	freq := mustFrequency(t, ds)
	for name, c := range map[string]struct {
		damage func(w []float64) []float64
		coord  int
	}{
		"longer": {func(w []float64) []float64 { return append(w, 1) }, -1},
		"nan":    {func(w []float64) []float64 { w[1] = math.NaN(); return w }, 1},
		"inf":    {func(w []float64) []float64 { w[0] = math.Inf(1); return w }, 0},
	} {
		_, err := NewAnalysis(ds, Options{CustomSummarizer: faultySummarizer{freq, 2, c.damage}})
		var inv *InvalidSignatureError
		if !errors.As(err, &inv) || inv.Index != 2 || inv.Coord != c.coord {
			t.Fatalf("%s: NewAnalysis error %v, want *InvalidSignatureError for group 2, coordinate %d", name, err, c.coord)
		}
	}
}
