package experiments

import (
	"context"

	"fmt"
	"sort"
	"strings"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Row is one measurement of one algorithm on one problem instance.
type Row struct {
	Problem   string
	Algorithm string
	Elapsed   time.Duration
	// Quality is the average pairwise tag-signature score of the returned
	// set under the problem's objective (cosine for similarity problems,
	// cosine distance for diversity problems), the paper's quality metric.
	Quality float64
	Found   bool
	Groups  []string
}

// Table is a titled list of rows with a rendering helper.
type Table struct {
	Title string
	Rows  []Row
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-12s %-12s %12s %10s %s\n", "problem", "algorithm", "time", "quality", "found")
	for _, r := range t.Rows {
		q := "-"
		if r.Found {
			q = fmt.Sprintf("%.4f", r.Quality)
		}
		fmt.Fprintf(&b, "%-12s %-12s %12s %10s %v\n",
			r.Problem, r.Algorithm, r.Elapsed.Round(time.Microsecond), q, r.Found)
	}
	return b.String()
}

// Params carries the shared problem parameters of Section 6.1: k=3 groups,
// support p=1% of tuples, thresholds q=r=0.5, LSH with l=1 tables and
// initial d'=10.
type Params struct {
	K          int
	SupportPct float64
	Q, R       float64
	DPrime, L  int
}

// PaperParams are the values used throughout the paper's experiments.
func PaperParams() Params {
	return Params{K: 3, SupportPct: 0.01, Q: 0.5, R: 0.5, DPrime: 10, L: 1}
}

func (p Params) support(st *Setup) int {
	return int(p.SupportPct * float64(st.Store.Len()))
}

// run executes one algorithm and converts the result to a Row.
func run(e *core.Engine, spec core.ProblemSpec, algo string, f func() (core.Result, error)) Row {
	res, err := f()
	row := Row{Problem: spec.Name, Algorithm: algo}
	if err != nil {
		row.Found = false
		return row
	}
	row.Elapsed = res.Elapsed
	row.Found = res.Found
	row.Quality = res.Objective
	if res.Found {
		row.Groups = res.Describe(e.Store)
	}
	return row
}

// SimilarityProblems runs Problems 1–3 with Exact, SM-LSH-Fi and SM-LSH-Fo,
// producing the data behind Figures 3 (time) and 4 (quality).
func SimilarityProblems(st *Setup, p Params) (Table, error) {
	exactEng, err := st.ExactEngine()
	if err != nil {
		return Table{}, err
	}
	t := Table{Title: "Figures 3-4: Problems 1-3 (tag similarity)"}
	for id := 1; id <= 3; id++ {
		spec, err := core.PaperProblem(id, p.K, p.support(st), p.Q, p.R)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows,
			run(exactEng, spec, "Exact", func() (core.Result, error) {
				return exactEng.Exact(context.Background(), spec, core.ExactOptions{})
			}),
			run(st.Engine, spec, "SM-LSH-Fi", func() (core.Result, error) {
				return st.Engine.SMLSH(context.Background(), spec, core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: st.Config.Seed, Mode: core.Filter})
			}),
			run(st.Engine, spec, "SM-LSH-Fo", func() (core.Result, error) {
				return st.Engine.SMLSH(context.Background(), spec, core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: st.Config.Seed, Mode: core.Fold})
			}),
		)
	}
	return t, nil
}

// DiversityProblems runs Problems 4–6 with Exact, DV-FDP-Fi and DV-FDP-Fo,
// producing the data behind Figures 5 (time) and 6 (quality).
func DiversityProblems(st *Setup, p Params) (Table, error) {
	exactEng, err := st.ExactEngine()
	if err != nil {
		return Table{}, err
	}
	t := Table{Title: "Figures 5-6: Problems 4-6 (tag diversity)"}
	for id := 4; id <= 6; id++ {
		spec, err := core.PaperProblem(id, p.K, p.support(st), p.Q, p.R)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows,
			run(exactEng, spec, "Exact", func() (core.Result, error) {
				return exactEng.Exact(context.Background(), spec, core.ExactOptions{})
			}),
			run(st.Engine, spec, "DV-FDP-Fi", func() (core.Result, error) {
				return st.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Filter})
			}),
			run(st.Engine, spec, "DV-FDP-Fo", func() (core.Result, error) {
				return st.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold})
			}),
		)
	}
	return t, nil
}

// BinRow is one measurement of the tuple-count sweep.
type BinRow struct {
	Tuples    int
	NumGroups int
	Problem   string
	Algorithm string
	Elapsed   time.Duration
	Quality   float64
	Found     bool
}

// BinTable is the Figures 7–8 sweep output.
type BinTable struct {
	Title string
	Rows  []BinRow
}

// Render formats the sweep.
func (t BinTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%8s %8s %-12s %-12s %12s %10s\n", "tuples", "groups", "problem", "algorithm", "time", "quality")
	for _, r := range t.Rows {
		q := "-"
		if r.Found {
			q = fmt.Sprintf("%.4f", r.Quality)
		}
		fmt.Fprintf(&b, "%8d %8d %-12s %-12s %12s %10s\n",
			r.Tuples, r.NumGroups, r.Problem, r.Algorithm,
			r.Elapsed.Round(time.Microsecond), q)
	}
	return b.String()
}

// TupleSweep reproduces Figures 7–8: bins of increasing tuple counts,
// comparing Exact with SM-LSH-Fo on Problem 1 and Exact with DV-FDP-Fo on
// Problem 6 per bin. Bin fractions follow the paper's 5K/10K/20K/30K of
// 33K, i.e. roughly 15%, 30%, 60% and 90% of the corpus.
func TupleSweep(st *Setup, p Params, fractions []float64) (BinTable, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.15, 0.30, 0.60, 0.90}
	}
	out := BinTable{Title: "Figures 7-8: varying tagging tuples"}
	for _, f := range fractions {
		n := int(f * float64(st.Store.Len()))
		bin, err := st.BinSetup(n)
		if err != nil {
			return BinTable{}, err
		}
		exactEng, err := bin.ExactEngine()
		if err != nil {
			return BinTable{}, err
		}
		for _, pc := range []struct {
			id   int
			algo string
		}{{1, "SM-LSH-Fo"}, {6, "DV-FDP-Fo"}} {
			spec, err := core.PaperProblem(pc.id, p.K, int(p.SupportPct*float64(n)), p.Q, p.R)
			if err != nil {
				return BinTable{}, err
			}
			ex := run(exactEng, spec, "Exact", func() (core.Result, error) {
				return exactEng.Exact(context.Background(), spec, core.ExactOptions{})
			})
			var ap Row
			if pc.id == 1 {
				ap = run(bin.Engine, spec, pc.algo, func() (core.Result, error) {
					return bin.Engine.SMLSH(context.Background(), spec, core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: bin.Config.Seed, Mode: core.Fold})
				})
			} else {
				ap = run(bin.Engine, spec, pc.algo, func() (core.Result, error) {
					return bin.Engine.DVFDP(context.Background(), spec, core.FDPOptions{Mode: core.Fold})
				})
			}
			for _, r := range []Row{ex, ap} {
				out.Rows = append(out.Rows, BinRow{
					Tuples:    n,
					NumGroups: len(bin.Groups),
					Problem:   spec.Name,
					Algorithm: r.Algorithm,
					Elapsed:   r.Elapsed,
					Quality:   r.Quality,
					Found:     r.Found,
				})
			}
		}
	}
	return out, nil
}

// TagClouds reproduces Figures 1–2: the frequency tag cloud of one
// director's movies over all users versus users from one state. It picks
// the director with the most tagging actions and the state most active on
// that director's movies, so the comparison is always well-populated.
func TagClouds(st *Setup, topN int) (allCloud, stateCloud string, director, state string, err error) {
	s := st.Store
	dirCol := store.Column{Side: store.SideItem, Index: s.ItemSchema.AttrIndex("director")}
	stateCol := store.Column{Side: store.SideUser, Index: s.UserSchema.AttrIndex("state")}
	// Most-tagged director.
	dirCounts := map[string]int{}
	for t := 0; t < s.Len(); t++ {
		dirCounts[s.ColumnAttr(dirCol).Value(s.Value(t, dirCol))]++
	}
	director = argmax(dirCounts)
	pred, err := s.ParsePredicate(map[string]string{"director": director})
	if err != nil {
		return "", "", "", "", err
	}
	dirTuples := s.Eval(pred)
	// Most active state on those tuples.
	stCounts := map[string]int{}
	dirTuples.ForEach(func(t int) bool {
		stCounts[s.ColumnAttr(stateCol).Value(s.Value(t, stateCol))]++
		return true
	})
	state = argmax(stCounts)
	statePred, err := s.ParsePredicate(map[string]string{"director": director, "state": state})
	if err != nil {
		return "", "", "", "", err
	}
	gAll := &groups.Group{Pred: pred, Tuples: dirTuples, Members: dirTuples.Slice()}
	stTuples := s.Eval(statePred)
	gState := &groups.Group{Pred: statePred, Tuples: stTuples, Members: stTuples.Slice()}
	allCloud = signature.RenderCloud(signature.Cloud(s, gAll, topN))
	stateCloud = signature.RenderCloud(signature.Cloud(s, gState, topN))
	return allCloud, stateCloud, director, state, nil
}

func argmax(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic ties
	best, bestN := "", -1
	for _, k := range keys {
		if m[k] > bestN {
			best, bestN = k, m[k]
		}
	}
	return best
}

// CaseStudy runs one Section 6.2.1-style query: it restricts the corpus to
// the tuples matching conds, mines the given problem instance there, and
// returns the resulting group descriptions with their tag clouds.
func CaseStudy(st *Setup, conds map[string]string, problemID int, p Params) ([]string, error) {
	pred, err := st.Store.ParsePredicate(conds)
	if err != nil {
		return nil, err
	}
	within := st.Store.Eval(pred)
	if within.Count() == 0 {
		return nil, fmt.Errorf("experiments: query %v matches no tuples", conds)
	}
	sub, err := buildOn(st.Config, st.World, st.Store, within, startLaps())
	if err != nil {
		return nil, err
	}
	spec, err := core.PaperProblem(problemID, p.K, int(p.SupportPct*float64(within.Count())), p.Q, p.R)
	if err != nil {
		return nil, err
	}
	res, err := sub.Engine.Solve(context.Background(), spec, core.SolveOptions{
		LSH: core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: st.Config.Seed, Mode: core.Fold},
		FDP: core.FDPOptions{Mode: core.Fold},
	})
	if err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, nil
	}
	var out []string
	for _, g := range res.Groups {
		cloud := signature.RenderCloud(signature.Cloud(sub.Store, g, 5))
		out = append(out, fmt.Sprintf("%s -> %s", g.Describe(sub.Store), cloud))
	}
	return out, nil
}
