package tagdm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"testing"
)

// answerDigest hashes an analysis's answers to paper Problems 1-6 (k = 3,
// support 8, q = r = 0.4), from Solve and from Exact: the algorithm, and
// for a found answer the group IDs, the objective's bits and the support.
func answerDigest(t *testing.T, a *Analysis) string {
	t.Helper()
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for id := 1; id <= 6; id++ {
		spec, err := Problem(id, 3, 8, 0.4, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		for _, exact := range []bool{false, true} {
			var r Result
			if exact {
				r, err = a.Exact(spec, ExactOptions{})
			} else {
				r, err = a.Solve(spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(r.Algorithm))
			if !r.Found {
				put(0)
				continue
			}
			put(1)
			put(uint64(len(r.Groups)))
			for _, g := range r.Groups {
				put(uint64(g.ID))
			}
			put(math.Float64bits(r.Objective))
			put(uint64(r.Support))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadFormat2FixturePinned loads a format-2 analysis file with
// frequency signatures (a 400-action synthetic corpus, 29 groups) that an
// earlier build wrote while signatures were held dense. Its answers to
// Problems 1-6 must match the digest taken on that build, and saving the
// loaded analysis must reproduce the file byte for byte: the on-disk form
// stays dense format 2.
func TestLoadFormat2FixturePinned(t *testing.T) {
	const want = "d870dd45832065fddf6b56458d9ec5a033542ff683968aff14d04c867db8ca04"
	file, err := os.ReadFile("testdata/analysis_format2.bin")
	if err != nil {
		t.Fatal(err)
	}
	a, err := LoadAnalysis(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() != 29 || a.NumActions() != 400 {
		t.Fatalf("fixture loaded %d groups, %d actions; want 29, 400", a.NumGroups(), a.NumActions())
	}
	if got := answerDigest(t, a); got != want {
		t.Fatalf("answer digest = %s, want %s", got, want)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), file) {
		t.Fatalf("re-saved fixture differs: %d bytes, file %d", buf.Len(), len(file))
	}
}

func TestAnalysisSaveLoadRoundTrip(t *testing.T) {
	ds := smallDataset(t)
	orig, err := NewAnalysis(ds, Options{Signatures: SignatureFrequency})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAnalysis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumGroups() != orig.NumGroups() {
		t.Fatalf("groups: %d vs %d", loaded.NumGroups(), orig.NumGroups())
	}
	if loaded.NumActions() != orig.NumActions() {
		t.Fatalf("actions: %d vs %d", loaded.NumActions(), orig.NumActions())
	}
	// Same problems must yield identical objectives (signatures and group
	// order are preserved; the algorithms are deterministic given a seed).
	for id := 1; id <= 6; id++ {
		spec, _ := Problem(id, 3, 10, 0.4, 0.4)
		a, err := orig.Solve(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Solve(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Found != b.Found {
			t.Fatalf("problem %d: found %v vs %v", id, a.Found, b.Found)
		}
		if a.Found && a.Objective != b.Objective {
			t.Fatalf("problem %d: objective %v vs %v", id, a.Objective, b.Objective)
		}
	}
}

func TestAnalysisSaveLoadWithScope(t *testing.T) {
	ds := smallDataset(t)
	gender := ds.UserSchema.AttrByName("gender").Value(1)
	orig, err := NewAnalysis(ds, Options{
		Signatures: SignatureFrequency,
		Within:     map[string]string{"gender": gender},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAnalysis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumGroups() != orig.NumGroups() {
		t.Fatalf("scoped groups: %d vs %d", loaded.NumGroups(), orig.NumGroups())
	}
	if loaded.NumActions() != orig.NumActions() {
		t.Fatalf("scoped actions: %d vs %d", loaded.NumActions(), orig.NumActions())
	}
}

func TestLoadAnalysisRejectsGarbage(t *testing.T) {
	if _, err := LoadAnalysis(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadAnalysisRejectsTruncationAtEveryByte(t *testing.T) {
	ds := smallDataset(t)
	orig, err := NewAnalysis(ds, Options{Signatures: SignatureFrequency})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must be rejected with an error — never a panic,
	// never a silently-partial Analysis.
	for n := 0; n < len(full); n++ {
		if _, err := LoadAnalysis(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation at byte %d of %d accepted", n, len(full))
		}
	}
	// Sanity: the untruncated snapshot still loads.
	if _, err := LoadAnalysis(bytes.NewReader(full)); err != nil {
		t.Fatalf("full snapshot rejected: %v", err)
	}
}

func TestLoadAnalysisRejectsCorruption(t *testing.T) {
	ds := smallDataset(t)
	orig, err := NewAnalysis(ds, Options{Signatures: SignatureFrequency})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit in the payload region (past the 20-byte envelope
	// header): the CRC must catch it.
	corrupt := bytes.Clone(full)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := LoadAnalysis(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bit flip accepted")
	}
	// Wrong magic (e.g. a v1 file or a checkpoint file) is rejected with a
	// magic error, not a gob failure deep in decode.
	wrong := bytes.Clone(full)
	copy(wrong, "notmagic")
	if _, err := LoadAnalysis(bytes.NewReader(wrong)); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

func TestAnalysisSaveLoadLDA(t *testing.T) {
	// LDA signatures survive the round trip verbatim even though the
	// model itself is not persisted.
	ds := smallDataset(t)
	orig, err := NewAnalysis(ds, Options{Topics: 8, LDAIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAnalysis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.sigs {
		a, b := orig.sigs[i].Dense(), loaded.sigs[i].Dense()
		if len(a) != len(b) {
			t.Fatalf("sig %d length changed", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("sig %d weight %d changed", i, k)
			}
		}
	}
}
