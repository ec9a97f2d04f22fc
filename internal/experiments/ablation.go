package experiments

import (
	"context"

	"fmt"
	"strings"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/datagen"
)

// AblationRow is one configuration of one design-choice sweep.
type AblationRow struct {
	Sweep   string // which knob is being varied
	Variant string // the knob's value
	Elapsed time.Duration
	Quality float64
	Found   bool
}

// AblationTable collects all sweeps.
type AblationTable struct {
	Rows []AblationRow
}

// Render formats the ablation results grouped by sweep.
func (t AblationTable) Render() string {
	var b strings.Builder
	b.WriteString("== Ablations: design choices (DESIGN.md section 5) ==\n")
	fmt.Fprintf(&b, "%-22s %-22s %12s %10s\n", "sweep", "variant", "time", "quality")
	for _, r := range t.Rows {
		q := "-"
		if r.Found {
			q = fmt.Sprintf("%.4f", r.Quality)
		}
		fmt.Fprintf(&b, "%-22s %-22s %12s %10s\n",
			r.Sweep, r.Variant, r.Elapsed.Round(time.Microsecond), q)
	}
	return b.String()
}

// Ablations sweeps the design choices DESIGN.md calls out, on Problem 1
// (LSH knobs) and Problem 6 (FDP knobs).
func Ablations(st *Setup, p Params) (AblationTable, error) {
	var t AblationTable
	simSpec, err := core.PaperProblem(1, p.K, p.support(st), p.Q, p.R)
	if err != nil {
		return t, err
	}
	divSpec, err := core.PaperProblem(6, p.K, p.support(st), p.Q, p.R)
	if err != nil {
		return t, err
	}
	addLSH := func(sweep, variant string, opts core.LSHOptions) error {
		res, err := st.Engine.SMLSH(context.Background(), simSpec, opts)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, AblationRow{sweep, variant, res.Elapsed, res.Objective, res.Found})
		return nil
	}
	addFDP := func(sweep, variant string, opts core.FDPOptions) error {
		res, err := st.Engine.DVFDP(context.Background(), divSpec, opts)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, AblationRow{sweep, variant, res.Elapsed, res.Objective, res.Found})
		return nil
	}
	seed := st.Config.Seed

	// LSH: table count l.
	for _, l := range []int{1, 2, 4} {
		if err := addLSH("lsh-tables", fmt.Sprintf("l=%d", l),
			core.LSHOptions{DPrime: p.DPrime, L: l, Seed: seed, Mode: core.Fold}); err != nil {
			return t, err
		}
	}
	// LSH: initial hyperplanes d'.
	for _, d := range []int{5, 10, 20} {
		if err := addLSH("lsh-dprime", fmt.Sprintf("d'=%d", d),
			core.LSHOptions{DPrime: d, L: p.L, Seed: seed, Mode: core.Fold}); err != nil {
			return t, err
		}
	}
	// LSH: relaxation and strict bucket sizing.
	if err := addLSH("lsh-relaxation", "binary-search",
		core.LSHOptions{DPrime: 30, L: p.L, Seed: seed, Mode: core.Fold}); err != nil {
		return t, err
	}
	if err := addLSH("lsh-relaxation", "single-pass",
		core.LSHOptions{DPrime: 30, L: p.L, Seed: seed, Mode: core.Fold, DisableRelaxation: true}); err != nil {
		return t, err
	}
	if err := addLSH("lsh-bucket", "trim-oversized",
		core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: seed, Mode: core.Fold}); err != nil {
		return t, err
	}
	if err := addLSH("lsh-bucket", "strict-size",
		core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: seed, Mode: core.Fold, StrictBucketSize: true}); err != nil {
		return t, err
	}
	// FDP: constraint mode.
	if err := addFDP("fdp-constraints", "fold", core.FDPOptions{Mode: core.Fold}); err != nil {
		return t, err
	}
	if err := addFDP("fdp-constraints", "filter", core.FDPOptions{Mode: core.Filter}); err != nil {
		return t, err
	}
	// FDP: seeding.
	if err := addFDP("fdp-seed", "max-edge", core.FDPOptions{Mode: core.Fold}); err != nil {
		return t, err
	}
	if err := addFDP("fdp-seed", "fixed-pair", core.FDPOptions{Mode: core.Fold, FixedSeed: true}); err != nil {
		return t, err
	}
	// FDP: distance matrix.
	if err := addFDP("fdp-matrix", "lazy", core.FDPOptions{Mode: core.Fold}); err != nil {
		return t, err
	}
	if err := addFDP("fdp-matrix", "precomputed", core.FDPOptions{Mode: core.Fold, Precompute: true}); err != nil {
		return t, err
	}
	// FDP: local search.
	if err := addFDP("fdp-localsearch", "on", core.FDPOptions{Mode: core.Fold}); err != nil {
		return t, err
	}
	if err := addFDP("fdp-localsearch", "off", core.FDPOptions{Mode: core.Fold, DisableLocalSearch: true}); err != nil {
		return t, err
	}
	// FDP: dispersion criterion.
	if err := addFDP("fdp-criterion", "max-avg", core.FDPOptions{Mode: core.Fold}); err != nil {
		return t, err
	}
	if err := addFDP("fdp-criterion", "max-min", core.FDPOptions{Mode: core.Fold, Criterion: core.MaxMin}); err != nil {
		return t, err
	}
	return t, nil
}

// KSweepRow is one measurement of the k scalability sweep.
type KSweepRow struct {
	K          int
	Candidates int64
	Exact      time.Duration
	ExactPar   time.Duration
	Approx     time.Duration
	ApproxAlgo string
}

// KSweepTable demonstrates why the paper fixes k=3: the Exact candidate
// space and runtime explode with k while the approximate algorithms stay
// flat.
type KSweepTable struct {
	Rows []KSweepRow
}

// Render formats the sweep.
func (t KSweepTable) Render() string {
	var b strings.Builder
	b.WriteString("== k sweep: Exact blow-up vs approximate algorithms (Problem 1) ==\n")
	fmt.Fprintf(&b, "%4s %12s %14s %14s %14s\n", "k", "candidates", "exact", "exact-par", "sm-lsh-fo")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%4d %12d %14s %14s %14s\n",
			r.K, r.Candidates,
			r.Exact.Round(time.Microsecond),
			r.ExactPar.Round(time.Microsecond),
			r.Approx.Round(time.Microsecond))
	}
	return b.String()
}

// KSweep runs Problem 1 at increasing k on the Exact engine (serial and
// parallel) and the full engine with SM-LSH-Fo.
func KSweep(st *Setup, p Params, ks []int) (KSweepTable, error) {
	if len(ks) == 0 {
		ks = []int{2, 3, 4}
	}
	exactEng, err := st.ExactEngine()
	if err != nil {
		return KSweepTable{}, err
	}
	var t KSweepTable
	for _, k := range ks {
		spec, err := core.PaperProblem(1, k, p.support(st), p.Q, p.R)
		if err != nil {
			return KSweepTable{}, err
		}
		serial, err := exactEng.Exact(context.Background(), spec, core.ExactOptions{})
		if err != nil {
			return KSweepTable{}, err
		}
		par, err := runExact(exactEng, spec, core.ExactOptions{}, true)
		if err != nil {
			return KSweepTable{}, err
		}
		app, err := st.Engine.SMLSH(context.Background(), spec, core.LSHOptions{
			DPrime: p.DPrime, L: p.L, Seed: st.Config.Seed, Mode: core.Fold})
		if err != nil {
			return KSweepTable{}, err
		}
		t.Rows = append(t.Rows, KSweepRow{
			K: k,
			// Examined + pruned: the enumeration size the sweep plots, which
			// branch-and-bound splits but does not shrink.
			Candidates: serial.CandidatesExamined + serial.CandidatesPruned,
			Exact:      serial.Elapsed,
			ExactPar:   par.Elapsed,
			Approx:     app.Elapsed,
			ApproxAlgo: app.Algorithm,
		})
	}
	return t, nil
}

// TransferReport summarizes the synthetic attribute-transfer experiment
// (the paper's 1M -> 10M user join, Section 6 "User Attributes").
type TransferReport struct {
	Config   datagen.TransferConfig
	Accuracy float64
	Chance   float64
}

// Render formats the report.
func (r TransferReport) Render() string {
	return fmt.Sprintf(
		"== Attribute transfer (Section 6 user-attribute construction) ==\n"+
			"source users %d, target users %d, movies %d, taste segments %d\n"+
			"nearest-rating-vector transfer accuracy: %.1f%% (chance %.1f%%)\n",
		r.Config.SourceUsers, r.Config.TargetUsers, r.Config.Movies, r.Config.Segments,
		100*r.Accuracy, 100*r.Chance)
}

// Transfer runs the synthetic attribute-transfer experiment.
func Transfer(cfg datagen.TransferConfig) (TransferReport, error) {
	res, err := datagen.SimulateTransfer(cfg)
	if err != nil {
		return TransferReport{}, err
	}
	return TransferReport{
		Config:   cfg,
		Accuracy: res.Accuracy,
		Chance:   1 / float64(cfg.Segments),
	}, nil
}
