package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/signature"
)

// matrixDigest hashes the bits of every entry of the engine's six pair
// matrices (users, items, tags under similarity and diversity), each in
// row-major condensed order.
func matrixDigest(e *Engine) string {
	h := sha256.New()
	var buf [8]byte
	for _, dim := range []mining.Dimension{mining.Users, mining.Items, mining.Tags} {
		for _, meas := range []mining.Measure{mining.Similarity, mining.Diversity} {
			m := e.PairMatrix(dim, meas)
			for i := 0; i < m.Len(); i++ {
				for _, v := range m.Row(i) {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPairMatricesPinned pins all six pair matrices bit for bit on the
// datagen.Small frequency engine (the server's unscoped engine) and on a
// WHERE-scoped engine built the way the server builds one: groups
// re-enumerated inside the first user attribute's first value, frequency
// signatures sized by the store's vocabulary. The digests were taken while
// the tag measure still called the dense vec.Cosine for every pair; a tag
// kernel that differs from it in any bit moves them.
func TestPairMatricesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen.Small corpus under -short")
	}
	const (
		wantFull   = "9c74f888273711f58e4f949aa15da027bdf9529e177a0db9554ce74dafc8e19d"
		wantScoped = "dde8c45fd289369f6531bbe9d017ecd0ab8b427964ab9e3544575742e821814c"
	)
	full := smallEngine(t, "frequency")
	if got := matrixDigest(full); got != wantFull {
		t.Errorf("frequency engine (%d groups) matrix digest = %s, want %s", len(full.Groups), got, wantFull)
	}

	s := full.Store
	attr := s.UserSchema.Attr(0)
	pred, err := s.ParsePredicate(map[string]string{attr.Name: attr.Value(1)})
	if err != nil {
		t.Fatal(err)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: 5, Within: s.Eval(pred)}).FullyDescribed()
	if len(gs) < 2 {
		t.Fatalf("scope %s=%s holds %d groups, want at least 2", attr.Name, attr.Value(1), len(gs))
	}
	scoped, err := NewEngine(s, gs, signature.SummarizeAll(signature.FrequencyOfSize(s.Vocab.Size()), s, gs))
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixDigest(scoped); got != wantScoped {
		t.Errorf("scoped engine (%d groups) matrix digest = %s, want %s", len(gs), got, wantScoped)
	}
}
