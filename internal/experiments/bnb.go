package experiments

import (
	"context"

	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"tagdm/internal/core"
)

// BnBRow is one branch-and-bound measurement: an Exact run on a paper
// problem at one support floor with pruning on or off, serial or parallel,
// with the examined/pruned candidate split.
type BnBRow struct {
	Problem  string
	Support  float64 // support floor as a fraction of the corpus's tuples
	Variant  string  // "pruning=off" or "pruning=on"
	Parallel bool
	Elapsed  time.Duration
	Examined int64
	Pruned   int64
	Found    bool
}

// NsPerCandidate is the run's wall time per examined candidate, the leaf
// scan's cost per leaf plus its share of the interior DFS; 0 when nothing
// was examined.
func (r BnBRow) NsPerCandidate() float64 {
	if r.Examined == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Examined)
}

// BnBTable collects the branch-and-bound sweep.
type BnBTable struct {
	Rows []BnBRow
}

// Render formats the sweep.
func (t BnBTable) Render() string {
	var b strings.Builder
	b.WriteString("== Branch-and-bound pruning: Exact with and without subtree cuts ==\n")
	fmt.Fprintf(&b, "%-12s %-8s %-12s %-10s %12s %12s %12s %10s\n",
		"problem", "support", "variant", "mode", "time", "examined", "pruned", "ns/cand")
	for _, r := range t.Rows {
		mode := "serial"
		if r.Parallel {
			mode = "parallel"
		}
		fmt.Fprintf(&b, "%-12s %-8s %-12s %-10s %12s %12d %12d %10.1f\n",
			r.Problem, fmt.Sprintf("%g%%", r.Support*100), r.Variant, mode,
			r.Elapsed.Round(time.Microsecond), r.Examined, r.Pruned, r.NsPerCandidate())
	}
	return b.String()
}

// bnbSupports are the support floors BnBSweep runs every problem at: the
// paper-batch benchmark's two levels, so the sweep checks the support cut
// where that workload relies on it.
var bnbSupports = []float64{0.01, 0.02}

// BnBSweep runs every paper problem at each of bnbSupports (in place of
// p.SupportPct) on the Exact engine with pruning disabled (the
// full-enumeration oracle) and enabled (the default), serial and parallel,
// and reports the timing and examined/pruned candidate split. It errors
// if pruning changes any outcome (Found, the group IDs, Objective or
// Support) — the sweep doubles as a corpus-level self-check on the cuts'
// admissibility — or if pruning never fires anywhere (an inert cut would
// silently decay into pure overhead).
func BnBSweep(st *Setup, p Params) (BnBTable, error) {
	exactEng, err := st.ExactEngine()
	if err != nil {
		return BnBTable{}, err
	}
	var t BnBTable
	var anyPruned int64
	for _, pct := range bnbSupports {
		p.SupportPct = pct
		for id := 1; id <= 6; id++ {
			rows, pruned, err := bnbProblem(exactEng, st, p, id)
			if err != nil {
				return BnBTable{}, err
			}
			t.Rows = append(t.Rows, rows...)
			anyPruned += pruned
		}
	}
	if anyPruned == 0 {
		return BnBTable{}, fmt.Errorf("experiments: branch-and-bound never pruned a candidate on any paper problem")
	}
	return t, nil
}

// bnbProblem runs paper problem id under p serially and in parallel, each
// with and without pruning, checks the pruned runs against the oracle, and
// returns the rows and the candidates pruned.
func bnbProblem(exactEng *core.Engine, st *Setup, p Params, id int) ([]BnBRow, int64, error) {
	spec, err := core.PaperProblem(id, p.K, p.support(st), p.Q, p.R)
	if err != nil {
		return nil, 0, err
	}
	exactEng.PrewarmMatrices(spec)
	var rows []BnBRow
	var anyPruned int64
	for _, parallel := range []bool{false, true} {
		oracle, err := runExact(exactEng, spec, core.ExactOptions{DisablePruning: true}, parallel)
		if err != nil {
			return nil, 0, err
		}
		pruned, err := runExact(exactEng, spec, core.ExactOptions{}, parallel)
		if err != nil {
			return nil, 0, err
		}
		if pruned.Found != oracle.Found || pruned.Objective != oracle.Objective ||
			pruned.Support != oracle.Support || !slices.Equal(resultIDs(pruned), resultIDs(oracle)) {
			return nil, 0, fmt.Errorf(
				"experiments: pruning changed %s at support %v (parallel=%v): found %v/%v objective %v/%v groups %v/%v",
				spec.Name, p.SupportPct, parallel, pruned.Found, oracle.Found, pruned.Objective, oracle.Objective,
				resultIDs(pruned), resultIDs(oracle))
		}
		if got := pruned.CandidatesExamined + pruned.CandidatesPruned; got != oracle.CandidatesExamined {
			return nil, 0, fmt.Errorf(
				"experiments: %s at support %v (parallel=%v) examined+pruned = %d, enumeration size %d",
				spec.Name, p.SupportPct, parallel, got, oracle.CandidatesExamined)
		}
		anyPruned += pruned.CandidatesPruned
		rows = append(rows,
			BnBRow{Problem: spec.Name, Support: p.SupportPct, Variant: "pruning=off", Parallel: parallel,
				Elapsed: oracle.Elapsed, Examined: oracle.CandidatesExamined, Found: oracle.Found},
			BnBRow{Problem: spec.Name, Support: p.SupportPct, Variant: "pruning=on", Parallel: parallel,
				Elapsed: pruned.Elapsed, Examined: pruned.CandidatesExamined,
				Pruned: pruned.CandidatesPruned, Found: pruned.Found})
	}
	return rows, anyPruned, nil
}

// runExact runs Exact serially, or in parallel as GOMAXPROCS partials
// merged into the serial answer.
func runExact(eng *core.Engine, spec core.ProblemSpec, opts core.ExactOptions, parallel bool) (core.Result, error) {
	if parallel {
		return eng.ExactSharded(context.Background(), spec, opts, runtime.GOMAXPROCS(0))
	}
	return eng.Exact(context.Background(), spec, opts)
}

// resultIDs lists a result's group IDs in result order.
func resultIDs(r core.Result) []int {
	ids := make([]int, len(r.Groups))
	for i, g := range r.Groups {
		ids[i] = g.ID
	}
	return ids
}
