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
)

// hashResult folds the fields an answer is judged by into h: feasibility,
// the chosen group IDs in order, the objective's bits, support and the
// examined-candidate count.
func hashResult(h hash.Hash, label string, r core.Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(label))
	if !r.Found {
		put(0)
		return
	}
	put(1)
	ids := resultIDs(r)
	put(uint64(len(ids)))
	for _, id := range ids {
		put(uint64(id))
	}
	put(math.Float64bits(r.Objective))
	put(uint64(r.Support))
	put(uint64(r.CandidatesExamined))
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
