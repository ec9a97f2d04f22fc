package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"tagdm/internal/signature"
)

// sigDigest hashes the bits of every signature weight in order.
func sigDigest(sigs []signature.Signature) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range sigs {
		for _, w := range s.Weights {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLDASignaturesPinned pins the LDA signatures of the FastConfig corpus
// bit for bit. The digest was taken from the topic-major sampler the
// word-major one replaced; any change to the sampler's arithmetic, its
// draw order or the RNG stream moves it.
func TestLDASignaturesPinned(t *testing.T) {
	const want = "ee202d4d0bcdea24577c5c0d8928499691142b59e605a296a4c8abd161d1c200"
	st := setup(t)
	got := sigDigest(signature.SummarizeAll(st.LDA, st.Store, st.Groups))
	if got != want {
		t.Fatalf("FastConfig LDA signature digest = %s, want %s", got, want)
	}
}
