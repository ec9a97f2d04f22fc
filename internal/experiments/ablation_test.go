package experiments

import (
	"strings"
	"testing"

	"tagdm/internal/datagen"
)

func TestAblations(t *testing.T) {
	st := setup(t)
	tab, err := Ablations(st, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 15 {
		t.Fatalf("only %d ablation rows", len(tab.Rows))
	}
	sweeps := map[string]int{}
	for _, r := range tab.Rows {
		sweeps[r.Sweep]++
	}
	for _, want := range []string{
		"lsh-tables", "lsh-dprime", "lsh-relaxation", "lsh-bucket",
		"fdp-constraints", "fdp-seed", "fdp-matrix", "fdp-localsearch",
		"fdp-criterion",
	} {
		if sweeps[want] < 2 {
			t.Errorf("sweep %q has %d rows, want >= 2", want, sweeps[want])
		}
	}
	out := tab.Render()
	if !strings.Contains(out, "lsh-tables") || !strings.Contains(out, "fdp-seed") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestAblationLocalSearchNeverHurts(t *testing.T) {
	st := setup(t)
	tab, err := Ablations(st, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	var on, off float64
	var foundOn, foundOff bool
	for _, r := range tab.Rows {
		if r.Sweep != "fdp-localsearch" {
			continue
		}
		if r.Variant == "on" {
			on, foundOn = r.Quality, r.Found
		} else {
			off, foundOff = r.Quality, r.Found
		}
	}
	if foundOn && foundOff && on < off-1e-9 {
		t.Fatalf("local search hurt quality: on=%v off=%v", on, off)
	}
}

func TestTransferExperiment(t *testing.T) {
	rep, err := Transfer(datagen.DefaultTransfer())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy <= rep.Chance {
		t.Fatalf("transfer accuracy %v not above chance %v", rep.Accuracy, rep.Chance)
	}
	if !strings.Contains(rep.Render(), "transfer accuracy") {
		t.Fatal("render missing accuracy")
	}
}

func TestKSweep(t *testing.T) {
	st := setup(t)
	tab, err := KSweep(st, PaperParams(), []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Candidate counts must grow with k, and serial/parallel exact agree
	// on the candidate space by construction.
	if tab.Rows[1].Candidates <= tab.Rows[0].Candidates {
		t.Fatalf("candidates did not grow: %d -> %d",
			tab.Rows[0].Candidates, tab.Rows[1].Candidates)
	}
	if !strings.Contains(tab.Render(), "candidates") {
		t.Fatal("render missing header")
	}
}

// TestBnBSweep runs the branch-and-bound self-check on the FastConfig
// corpus: every paper problem at both support floors, serial and
// parallel, pruning off and on. BnBSweep itself errors if pruning changes
// an answer or never fires.
func TestBnBSweep(t *testing.T) {
	st := setup(t)
	tab, err := BnBSweep(st, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bnbSupports) * 6 * 4; len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	for i, pct := range bnbSupports {
		if got := tab.Rows[i*24].Support; got != pct {
			t.Fatalf("row %d support = %v, want %v", i*24, got, pct)
		}
	}
	if !strings.Contains(tab.Render(), "2%") {
		t.Fatal("render missing the 2% support level")
	}
}
