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
// problem with pruning on or off, serial or parallel, with the
// examined/pruned candidate split.
type BnBRow struct {
	Problem  string
	Variant  string // "pruning=off" or "pruning=on"
	Parallel bool
	Elapsed  time.Duration
	Examined int64
	Pruned   int64
	Found    bool
}

// BnBTable collects the branch-and-bound sweep.
type BnBTable struct {
	Rows []BnBRow
}

// Render formats the sweep.
func (t BnBTable) Render() string {
	var b strings.Builder
	b.WriteString("== Branch-and-bound pruning: Exact with and without subtree cuts ==\n")
	fmt.Fprintf(&b, "%-12s %-12s %-10s %12s %12s %12s\n",
		"problem", "variant", "mode", "time", "examined", "pruned")
	for _, r := range t.Rows {
		mode := "serial"
		if r.Parallel {
			mode = "parallel"
		}
		fmt.Fprintf(&b, "%-12s %-12s %-10s %12s %12d %12d\n",
			r.Problem, r.Variant, mode, r.Elapsed.Round(time.Microsecond), r.Examined, r.Pruned)
	}
	return b.String()
}

// BnBSweep runs every paper problem on the Exact engine with pruning
// disabled (the full-enumeration oracle) and enabled (the default), serial
// and parallel, and reports the timing and examined/pruned candidate
// split. It errors if pruning changes any outcome (Found, the group IDs,
// Objective or Support) — the sweep doubles as a corpus-level self-check
// on the bound's admissibility — or if the bound never fires anywhere (an
// inert cut would silently decay into pure overhead).
func BnBSweep(st *Setup, p Params) (BnBTable, error) {
	exactEng, err := st.ExactEngine()
	if err != nil {
		return BnBTable{}, err
	}
	var t BnBTable
	var anyPruned int64
	for id := 1; id <= 6; id++ {
		spec, err := core.PaperProblem(id, p.K, p.support(st), p.Q, p.R)
		if err != nil {
			return BnBTable{}, err
		}
		exactEng.PrewarmMatrices(spec)
		for _, parallel := range []bool{false, true} {
			oracle, err := runExact(exactEng, spec, core.ExactOptions{DisablePruning: true}, parallel)
			if err != nil {
				return BnBTable{}, err
			}
			pruned, err := runExact(exactEng, spec, core.ExactOptions{}, parallel)
			if err != nil {
				return BnBTable{}, err
			}
			if pruned.Found != oracle.Found || pruned.Objective != oracle.Objective ||
				pruned.Support != oracle.Support || !slices.Equal(resultIDs(pruned), resultIDs(oracle)) {
				return BnBTable{}, fmt.Errorf(
					"experiments: pruning changed %s (parallel=%v): found %v/%v objective %v/%v groups %v/%v",
					spec.Name, parallel, pruned.Found, oracle.Found, pruned.Objective, oracle.Objective,
					resultIDs(pruned), resultIDs(oracle))
			}
			if got := pruned.CandidatesExamined + pruned.CandidatesPruned; got != oracle.CandidatesExamined {
				return BnBTable{}, fmt.Errorf(
					"experiments: %s (parallel=%v) examined+pruned = %d, enumeration size %d",
					spec.Name, parallel, got, oracle.CandidatesExamined)
			}
			anyPruned += pruned.CandidatesPruned
			t.Rows = append(t.Rows,
				BnBRow{Problem: spec.Name, Variant: "pruning=off", Parallel: parallel,
					Elapsed: oracle.Elapsed, Examined: oracle.CandidatesExamined, Found: oracle.Found},
				BnBRow{Problem: spec.Name, Variant: "pruning=on", Parallel: parallel,
					Elapsed: pruned.Elapsed, Examined: pruned.CandidatesExamined,
					Pruned: pruned.CandidatesPruned, Found: pruned.Found})
		}
	}
	if anyPruned == 0 {
		return BnBTable{}, fmt.Errorf("experiments: branch-and-bound never pruned a candidate on any paper problem")
	}
	return t, nil
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
