package lda

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	corpus, _ := synthCorpus(20, 30, 40, 21)
	m, err := Train(corpus, Config{Topics: 3, Iterations: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != m.K || got.VocabSize != m.VocabSize || got.Alpha != m.Alpha || got.Beta != m.Beta {
		t.Fatalf("header mismatch: %+v", got)
	}
	// Topic-word probabilities identical.
	for k := 0; k < m.K; k++ {
		for w := 0; w < m.VocabSize; w++ {
			if got.TopicWordProb(k, w) != m.TopicWordProb(k, w) {
				t.Fatalf("phi[%d][%d] differs", k, w)
			}
		}
	}
	// Training thetas survive.
	for d := range corpus.Docs {
		a, b := m.DocTheta(d), got.DocTheta(d)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("doc %d theta differs", d)
			}
		}
	}
	// Inference with the same seed is identical.
	doc := Document{1, 2, 3, 4}
	x := m.Infer(doc, 20, 5)
	y := got.Infer(doc, 20, 5)
	for k := range x {
		if x[k] != y[k] {
			t.Fatal("inference differs after round trip")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not gob")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong magic.
	var buf bytes.Buffer
	corpus, _ := synthCorpus(5, 10, 20, 1)
	m, err := Train(corpus, Config{Topics: 2, Iterations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the magic string bytes (gob encodes the string contents
	// near the start).
	idx := bytes.Index(raw, []byte("tagdm-lda-v1"))
	if idx < 0 {
		t.Fatal("magic not found in encoding")
	}
	raw[idx] = 'X'
	if _, err := Load(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}

// encodeSnapshot writes s behind the format header, as Save does.
func encodeSnapshot(t *testing.T, s snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(snapshotMagic); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSnapshot reads the raw snapshot Save wrote, bypassing Load.
func decodeSnapshot(t *testing.T, raw []byte) snapshot {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(raw))
	var magic string
	var s snapshot
	if err := dec.Decode(&magic); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadRejectsInconsistentSnapshots(t *testing.T) {
	corpus, _ := synthCorpus(6, 10, 20, 2)
	m, err := Train(corpus, Config{Topics: 3, Iterations: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Load(bytes.NewReader(encodeSnapshot(t, decodeSnapshot(t, good)))); err != nil {
		t.Fatalf("re-encoded good snapshot rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(s *snapshot)
		want    string
	}{
		{"total differs from row sum", func(s *snapshot) { s.TopicTotals[1]++ }, "total"},
		{"negative count", func(s *snapshot) {
			// Move mass so the row still sums to its total: only the sign is wrong.
			row := s.TopicWord[0]
			row[1] += row[0] + 1
			row[0] = -1
		}, "count"},
		{"short theta row", func(s *snapshot) { s.DocTheta[2] = s.DocTheta[2][:2] }, "theta"},
		{"long theta row", func(s *snapshot) { s.DocTheta[4] = append(s.DocTheta[4], 0) }, "theta"},
		{"short topic row", func(s *snapshot) { s.TopicWord[2] = s.TopicWord[2][:5] }, "words"},
		// Rejected before V*K counts are allocated for the claimed shape.
		{"vocabulary larger than rows", func(s *snapshot) { s.VocabSize = 1 << 40 }, "words"},
		{"missing topic", func(s *snapshot) { s.TopicWord = s.TopicWord[:2] }, "corrupt"},
		{"missing total", func(s *snapshot) { s.TopicTotals = s.TopicTotals[:2] }, "corrupt"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := decodeSnapshot(t, good)
			c.corrupt(&s)
			_, err := Load(bytes.NewReader(encodeSnapshot(t, s)))
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestLoadTopicMajorFixture loads a tagdm-lda-v1 snapshot written by the
// topic-major model, before the in-memory layout went word-major. Its
// training thetas must survive and its inferences must match both the
// topic-major oracle and the digest that model printed for them.
func TestLoadTopicMajorFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/topic-major-v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s := decodeSnapshot(t, raw)
	ref := &refModel{K: s.K, VocabSize: s.VocabSize, Alpha: s.Alpha, Beta: s.Beta,
		topicWord: s.TopicWord, topicTotals: s.TopicTotals, docTheta: s.DocTheta}
	for d := range s.DocTheta {
		if !sameBits(m.DocTheta(d), s.DocTheta[d]) {
			t.Fatalf("DocTheta(%d) = %v, want %v", d, m.DocTheta(d), s.DocTheta[d])
		}
	}
	h := sha256.New()
	var word [8]byte
	docs := []Document{{0, 1, 2, 3}, {29, 28, 5, 5, 5}, {7}, {14, 15, 16, 0, 29, 3, 3, 3, 21, 22}}
	for i, doc := range docs {
		got := m.Infer(doc, 20, int64(i))
		if want := ref.refInfer(doc, 20, int64(i)); !sameBits(got, want) {
			t.Fatalf("Infer(%v) = %v, oracle %v", doc, got, want)
		}
		for _, p := range got {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(p))
			h.Write(word[:])
		}
	}
	const want = "4827dfeea8bddeb5a8a9ea22a18afb7d9c6a532d9dd55c41ee4c997c5be931a0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("inference digest %s, want %s", got, want)
	}
	// Saving the loaded model reproduces the fixture's counts and totals.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back := decodeSnapshot(t, buf.Bytes())
	for k := range s.TopicWord {
		if back.TopicTotals[k] != s.TopicTotals[k] {
			t.Fatalf("topic %d total %d, want %d", k, back.TopicTotals[k], s.TopicTotals[k])
		}
		for w := range s.TopicWord[k] {
			if back.TopicWord[k][w] != s.TopicWord[k][w] {
				t.Fatalf("count[%d][%d] = %d, want %d", k, w, back.TopicWord[k][w], s.TopicWord[k][w])
			}
		}
	}
}
