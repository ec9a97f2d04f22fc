package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"tagdm/internal/core"
	"tagdm/internal/incremental"
	"tagdm/internal/signature"
)

// hashAnswer folds the fields an answer is judged by into h: feasibility,
// the chosen group IDs in order, the objective's bits and support.
func hashAnswer(h hash.Hash, label string, r core.Result) {
	h.Write([]byte(label))
	if !r.Found {
		putUint64(h, 0)
		return
	}
	putUint64(h, 1)
	ids := resultIDs(r)
	putUint64(h, uint64(len(ids)))
	for _, id := range ids {
		putUint64(h, uint64(id))
	}
	putUint64(h, math.Float64bits(r.Objective))
	putUint64(h, uint64(r.Support))
}

// hashResult is hashAnswer plus, for a found answer, the examined-candidate
// count.
func hashResult(h hash.Hash, label string, r core.Result) {
	hashAnswer(h, label, r)
	if r.Found {
		putUint64(h, uint64(r.CandidatesExamined))
	}
}

func putUint64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// TestSolverAnswersPinned pins every solver's answers to the six paper
// problems on the FastConfig corpus: Exact serial and sharded three ways,
// SM-LSH and DV-FDP. The digest was taken before the bitmap layer moved
// to one container form; any change in the support kernels, the solvers'
// search order or their arithmetic moves it.
func TestSolverAnswersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pipeline is slow under -short")
	}
	const want = "36f7b4f6cc95de01d9837ac1fd10abb756c260be42eed50dc35b317365ba4762"
	ctx := context.Background()
	st := setup(t)
	p := PaperParams()
	ex, err := st.ExactEngine()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for id := 1; id <= 6; id++ {
		spec, err := core.PaperProblem(id, p.K, p.support(st), p.Q, p.R)
		if err != nil {
			t.Fatal(err)
		}
		for _, sharded := range []bool{false, true} {
			r, err := exactMode(ex, spec, core.ExactOptions{}, sharded)
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, fmt.Sprintf("%s/Exact/sharded=%v", spec.Name, sharded), r)
		}
		if id <= 3 { // SM-LSH answers the similarity-objective problems only
			r, err := st.Engine.SMLSH(ctx, spec, core.LSHOptions{DPrime: p.DPrime, L: p.L, Seed: 1, Mode: core.Fold})
			if err != nil {
				t.Fatal(err)
			}
			hashResult(h, spec.Name+"/SM-LSH", r)
		}
		r, err := st.Engine.DVFDP(ctx, spec, core.FDPOptions{Mode: core.Fold})
		if err != nil {
			t.Fatal(err)
		}
		hashResult(h, spec.Name+"/DV-FDP", r)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("paper-problem answer digest = %s, want %s", got, want)
	}
}

// TestExactSupportCutPinned pins Exact, serial and sharded three ways, on
// problems 1-6 with k in {2, 3} at 2% and 5% support on the FastConfig
// corpus: the floors where Exact's support cut fires (at the 1% of
// TestSolverAnswersPinned it prunes nothing). The answer digest (Found,
// group IDs, objective bits, support) was taken before the support cut
// existed and must never move. The examined digest covers each run's
// examined-candidate count; it moves whenever pruning skips more or less
// of the enumeration (the cut took serial examined from 69,944 to 64,159
// at 2% and from 83,353 to 24,032 at 5%).
func TestExactSupportCutPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pipeline is slow under -short")
	}
	const (
		wantAnswers  = "869b0b38b78fd655df8e6b9f86fd10f19e177051224ffa78d0a3fec227229061"
		wantExamined = "31425fd0141fae2f47e5d9bd59384814e0ac5f768661996c6c98b02722280595"
	)
	st := setup(t)
	p := PaperParams()
	ex, err := st.ExactEngine()
	if err != nil {
		t.Fatal(err)
	}
	answers, examined := sha256.New(), sha256.New()
	for _, pct := range []float64{0.02, 0.05} {
		p.SupportPct = pct
		var serial int64
		for _, k := range []int{2, 3} {
			for id := 1; id <= 6; id++ {
				spec, err := core.PaperProblem(id, k, p.support(st), p.Q, p.R)
				if err != nil {
					t.Fatal(err)
				}
				for _, sharded := range []bool{false, true} {
					r, err := exactMode(ex, spec, core.ExactOptions{}, sharded)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/k=%d/support=%v/sharded=%v", spec.Name, k, pct, sharded)
					hashAnswer(answers, label, r)
					examined.Write([]byte(label))
					putUint64(examined, uint64(r.CandidatesExamined))
					if !sharded {
						serial += r.CandidatesExamined
					}
				}
			}
		}
		t.Logf("support %v: serial Exact examined %d candidates", pct, serial)
	}
	if got := hex.EncodeToString(answers.Sum(nil)); got != wantAnswers {
		t.Errorf("support-cut answer digest = %s, want %s", got, wantAnswers)
	}
	if got := hex.EncodeToString(examined.Sum(nil)); got != wantExamined {
		t.Errorf("support-cut examined digest = %s, want %s", got, wantExamined)
	}
}

// TestDVFDPAnswersPinned pins DV-FDP's answers and examined counts on the
// FastConfig corpus: problems 1-6 with k in {2, 3, 4} at 1%, 2% and 5%
// support, in Fold and Filter mode under both dispersion criteria, plus
// the fixed-seed and no-local-search ablations on the Fold/MaxAvg slice.
// The digest was taken before the local search and the seed scan learned
// to filter candidates ahead of scoring them; a filter that drops a trial
// the full score would accept, or a count that drifts, moves it.
func TestDVFDPAnswersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pipeline is slow under -short")
	}
	const want = "65322dd9179d3ac20a0f1ef6043bfa851ebab79a759df9882aac79eb8fe7c629"
	ctx := context.Background()
	st := setup(t)
	p := PaperParams()
	h := sha256.New()
	answers, found := 0, 0
	var examined int64
	for _, pct := range []float64{0.01, 0.02, 0.05} {
		p.SupportPct = pct
		for _, k := range []int{2, 3, 4} {
			for id := 1; id <= 6; id++ {
				spec, err := core.PaperProblem(id, k, p.support(st), p.Q, p.R)
				if err != nil {
					t.Fatal(err)
				}
				opts := []core.FDPOptions{
					{Mode: core.Fold}, {Mode: core.Filter},
					{Mode: core.Fold, Criterion: core.MaxMin}, {Mode: core.Filter, Criterion: core.MaxMin},
					{Mode: core.Fold, FixedSeed: true}, {Mode: core.Fold, DisableLocalSearch: true},
				}
				for _, o := range opts {
					r, err := st.Engine.DVFDP(ctx, spec, o)
					if err != nil {
						t.Fatal(err)
					}
					hashResult(h, fmt.Sprintf("%s/k=%d/support=%v/%+v", spec.Name, k, pct, o), r)
					answers++
					if r.Found {
						found++
						examined += r.CandidatesExamined
					}
				}
			}
		}
	}
	t.Logf("%d DV-FDP answers hashed, %d found, %d candidates examined", answers, found, examined)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("DV-FDP answer digest = %s, want %s", got, want)
	}
}

// TestSMLSHAnswersPinned pins SM-LSH's answers and examined counts on two
// signature kinds over the datagen.Small corpus: the FastConfig LDA
// signatures (dense) and frequency signatures (sparse, as the server
// builds them). It covers problems 1-3 with k in {2, 3}, SM-LSH-Fi and
// SM-LSH-Fo, L in {1, 2, 3} and d' in {1, 10, 30} (L·d' = 90 hashes more
// bits than one word holds), with relaxation on and off, serial and
// sharded two ways. The digests were taken while every relaxation round
// still built its own dense index; a hashing path whose buckets differ
// from that one moves them.
func TestSMLSHAnswersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pipeline is slow under -short")
	}
	const (
		wantLDA       = "27d010f0dca21853e540e784a2170e37577384f45ef619fd7ed7f6d00c010753"
		wantFrequency = "7f0d840f9e0e779b16008cec8122b14e8ed4ab3a999cf0250f1aab93ed7ce4e1"
	)
	ctx := context.Background()
	st := setup(t)
	m, err := incremental.New(st.World.Dataset, st.Config.MinTuples, signature.NewFrequency(st.Store))
	if err != nil {
		t.Fatal(err)
	}
	freq, err := m.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams()
	for _, c := range []struct {
		name string
		e    *core.Engine
		want string
	}{{"lda", st.Engine, wantLDA}, {"frequency", freq, wantFrequency}} {
		h := sha256.New()
		answers, found := 0, 0
		for _, k := range []int{2, 3} {
			for id := 1; id <= 3; id++ {
				spec, err := core.PaperProblem(id, k, p.support(st), p.Q, p.R)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []core.ConstraintMode{core.Filter, core.Fold} {
					for _, l := range []int{1, 2, 3} {
						for _, dprime := range []int{1, 10, 30} {
							for _, norelax := range []bool{false, true} {
								o := core.LSHOptions{DPrime: dprime, L: l, Seed: 1, Mode: mode, DisableRelaxation: norelax}
								label := fmt.Sprintf("%s/k=%d/%+v", spec.Name, k, o)
								r, err := c.e.SMLSH(ctx, spec, o)
								if err != nil {
									t.Fatal(err)
								}
								hashResult(h, label, r)
								sr, err := c.e.SolveSharded(ctx, spec, core.SolveOptions{LSH: o}, 2)
								if err != nil {
									t.Fatal(err)
								}
								hashResult(h, label+"/sharded", sr)
								answers++
								if r.Found {
									found++
								}
							}
						}
					}
				}
			}
		}
		t.Logf("%s: %d SM-LSH answers hashed, %d found", c.name, answers, found)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s SM-LSH answer digest = %s, want %s", c.name, got, c.want)
		}
	}
}
