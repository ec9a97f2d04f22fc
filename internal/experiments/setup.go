// Package experiments reproduces the paper's evaluation (Section 6): it
// assembles the full pipeline — synthetic MovieLens-like data, the columnar
// store, describable-group enumeration, LDA tag signatures, the TagDM
// engine — and regenerates every figure: execution time and quality for
// Problems 1–3 (Figures 3–4) and 4–6 (Figures 5–6), the tuple-count sweep
// (Figures 7–8), the tag clouds (Figures 1–2), the user study (Figure 9),
// and the case studies (Section 6.2.1).
package experiments

import (
	"fmt"
	"time"

	"tagdm/internal/core"
	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Config controls a full experiment setup.
type Config struct {
	// Data configures the synthetic corpus.
	Data datagen.Config
	// Topics is d, the global topic count for LDA signatures (paper: 25).
	Topics int
	// LDAIterations is the Gibbs sweep count for training.
	LDAIterations int
	// MinTuples is the group floor (paper: 5).
	MinTuples int
	// ExactGroupCap bounds the group universe handed to the Exact baseline
	// (brute force over the full enumeration is infeasible; the cap keeps
	// the baseline honest but terminating — see EXPERIMENTS.md).
	ExactGroupCap int
	// Seed drives LDA and LSH.
	Seed int64
}

// DefaultConfig mirrors the paper's scale (33K actions, 25 topics, 5-tuple
// groups).
func DefaultConfig() Config {
	return Config{
		Data:          datagen.Default(),
		Topics:        25,
		LDAIterations: 150,
		MinTuples:     5,
		ExactGroupCap: 250,
		Seed:          1,
	}
}

// FastConfig is a scaled-down setup for tests and quick runs.
func FastConfig() Config {
	return Config{
		Data:          datagen.Small(),
		Topics:        8,
		LDAIterations: 80,
		MinTuples:     5,
		ExactGroupCap: 60,
		Seed:          1,
	}
}

// Setup is a fully-assembled pipeline ready to run problems.
type Setup struct {
	Config Config
	World  *datagen.World
	Store  *store.Store
	Groups []*groups.Group
	Sigs   []signature.Signature
	LDA    *signature.LDA
	Engine *core.Engine
	// Phases is the wall time of each set-up step that produced this
	// Setup, in order: datagen, store, groups, lda_train, summarize,
	// engine (a Setup over part of a store, as BinSetup builds, starts at
	// groups).
	Phases []SetupPhase
}

// SetupPhase is the wall time of one set-up step.
type SetupPhase struct {
	Name string
	Wall time.Duration
}

// laps records consecutive set-up phases, each ending at the next lap.
type laps struct {
	last   time.Time
	phases []SetupPhase
}

func startLaps() *laps { return &laps{last: time.Now()} }

func (l *laps) lap(name string) {
	now := time.Now()
	l.phases = append(l.phases, SetupPhase{Name: name, Wall: now.Sub(l.last)})
	l.last = now
}

// Build assembles the pipeline end to end.
func Build(cfg Config) (*Setup, error) {
	l := startLaps()
	world, err := datagen.Generate(cfg.Data)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating data: %w", err)
	}
	l.lap("datagen")
	return buildFrom(cfg, world, l)
}

// BuildFrom assembles the pipeline over an existing world (used by the bin
// sweep, which re-enumerates subsets of one corpus).
func BuildFrom(cfg Config, world *datagen.World) (*Setup, error) {
	return buildFrom(cfg, world, startLaps())
}

func buildFrom(cfg Config, world *datagen.World, l *laps) (*Setup, error) {
	s, err := store.New(world.Dataset)
	if err != nil {
		return nil, fmt.Errorf("experiments: building store: %w", err)
	}
	l.lap("store")
	return buildOn(cfg, world, s, nil, l)
}

func buildOn(cfg Config, world *datagen.World, s *store.Store, within *store.Bitmap, l *laps) (*Setup, error) {
	gs := (&groups.Enumerator{Store: s, MinTuples: cfg.MinTuples, Within: within}).FullyDescribed()
	if len(gs) == 0 {
		return nil, fmt.Errorf("experiments: no groups with >= %d tuples", cfg.MinTuples)
	}
	l.lap("groups")
	ldaSum, err := signature.TrainLDA(s, gs, cfg.Topics, cfg.LDAIterations, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	l.lap("lda_train")
	sigs := signature.SummarizeAll(ldaSum, s, gs)
	l.lap("summarize")
	eng, err := core.NewEngine(s, gs, sigs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	l.lap("engine")
	return &Setup{
		Config: cfg,
		World:  world,
		Store:  s,
		Groups: gs,
		Sigs:   sigs,
		LDA:    ldaSum,
		Engine: eng,
		Phases: l.phases,
	}, nil
}

// ExactEngine returns an engine over the ExactGroupCap largest groups,
// re-enumerated with dense IDs, for the brute-force baseline. Groups are
// already sorted by descending size, so the cap keeps the highest-support
// groups — the ones most likely to matter under the support constraint.
func (st *Setup) ExactEngine() (*core.Engine, error) {
	n := st.Config.ExactGroupCap
	if n <= 0 || n > len(st.Groups) {
		n = len(st.Groups)
	}
	sub := make([]*groups.Group, n)
	sigs := make([]signature.Signature, n)
	for i := 0; i < n; i++ {
		g := *st.Groups[i] // shallow copy so re-IDing cannot corrupt the full engine
		g.ID = i
		sub[i] = &g
		sigs[i] = st.Sigs[st.Groups[i].ID]
	}
	return core.NewEngine(st.Store, sub, sigs)
}

// BinSetup re-enumerates groups within the first nTuples expanded tuples of
// the store (simulating the paper's query bins of Section 6.1) and returns
// a setup over that bin.
func (st *Setup) BinSetup(nTuples int) (*Setup, error) {
	if nTuples <= 0 || nTuples > st.Store.Len() {
		nTuples = st.Store.Len()
	}
	within := store.NewBitmap(st.Store.Len())
	for t := 0; t < nTuples; t++ {
		within.Set(t)
	}
	return buildOn(st.Config, st.World, st.Store, within, startLaps())
}
