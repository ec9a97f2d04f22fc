package lsh

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// clusterVectors makes two tight clusters of unit vectors around opposite
// directions plus the cluster assignment of each vector.
func clusterVectors(n, d int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centerA := make([]float64, d)
	centerB := make([]float64, d)
	for i := 0; i < d; i++ {
		centerA[i] = rng.NormFloat64()
		centerB[i] = -centerA[i]
	}
	vectors := make([][]float64, n)
	labels := make([]int, n)
	for i := range vectors {
		c := centerA
		labels[i] = 0
		if i%2 == 1 {
			c = centerB
			labels[i] = 1
		}
		v := make([]float64, d)
		for j := range v {
			v[j] = c[j] + 0.05*rng.NormFloat64()
		}
		vectors[i] = v
	}
	return vectors, labels
}

// sparseOf converts dense rows of one length to compressed rows, leaving
// out exact zeros.
func sparseOf(vectors [][]float64) *Sparse {
	s := &Sparse{Start: []int{0}}
	if len(vectors) > 0 {
		s.Dim = len(vectors[0])
	}
	for _, v := range vectors {
		for c, x := range v {
			if x != 0 {
				s.Index = append(s.Index, int32(c))
				s.Value = append(s.Value, x)
			}
		}
		s.Start = append(s.Start, len(s.Index))
	}
	return s
}

func hash(t *testing.T, vectors [][]float64, p Params) *Bits {
	t.Helper()
	b, err := Hash(sparseOf(vectors), p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHashValidation(t *testing.T) {
	v := sparseOf([][]float64{{1, 2}})
	for _, c := range []struct {
		v    *Sparse
		p    Params
		want string
	}{
		{&Sparse{}, Params{DPrime: 8, L: 1}, "lsh: no vectors"},
		{&Sparse{}, Params{DPrime: 0, L: 0}, "lsh: no vectors"},
		{v, Params{DPrime: 0, L: 1}, "lsh: DPrime 0 out of [1, 64]"},
		{v, Params{DPrime: 65, L: 1}, "lsh: DPrime 65 out of [1, 64]"},
		{v, Params{DPrime: 8, L: 0}, "lsh: L must be >= 1, got 0"},
	} {
		if err := c.p.Check(c.v.Len()); err == nil || err.Error() != c.want {
			t.Errorf("Check(%+v, %d) = %v, want %q", c.p, c.v.Len(), err, c.want)
		}
		if _, err := Hash(c.v, c.p); err == nil || err.Error() != c.want {
			t.Errorf("Hash(%+v) = %v, want %q", c.p, err, c.want)
		}
	}
	bad := []*Sparse{
		{Dim: 2, Start: []int{0, 2}, Index: []int32{1, 0}, Value: []float64{1, 1}}, // descending
		{Dim: 2, Start: []int{0, 2}, Index: []int32{1, 1}, Value: []float64{1, 1}}, // repeated
		{Dim: 2, Start: []int{0, 1}, Index: []int32{2}, Value: []float64{1}},       // outside Dim
	}
	for i, s := range bad {
		if _, err := Hash(s, Params{DPrime: 8, L: 1}); err == nil {
			t.Errorf("malformed rows %d accepted", i)
		}
	}
}

// TestHashMatchesDenseSigns checks every bit against the dense dot product
// with the stream's plane of that row, over rows that mix ±0 and non-zero
// coordinates and one all-zero row, at a width spanning two words.
func TestHashMatchesDenseSigns(t *testing.T) {
	const n, d, l, dprime = 40, 9, 3, 30
	rng := rand.New(rand.NewSource(29))
	negZero := math.Copysign(0, -1)
	vectors := make([][]float64, n)
	for i := range vectors {
		v := make([]float64, d)
		for c := range v {
			switch {
			case i == 0:
			case rng.Intn(3) == 0:
				v[c] = rng.NormFloat64()
			case c%2 == 1:
				v[c] = negZero
			}
		}
		vectors[i] = v
	}
	b := hash(t, vectors, Params{DPrime: dprime, L: l, Seed: 31})
	planes := rand.New(rand.NewSource(31))
	want := make([][]uint64, l) // want[t][i]: vector i's table-t signature
	for tb := range want {
		want[tb] = make([]uint64, n)
		for h := 0; h < dprime; h++ {
			plane := make([]float64, d)
			for c := range plane {
				plane[c] = planes.NormFloat64()
			}
			for i, v := range vectors {
				if dot(plane, v) >= 0 {
					want[tb][i] |= 1 << uint(h)
				}
			}
		}
	}
	for _, bk := range b.Buckets(l, dprime) {
		for _, id := range bk.IDs {
			if got := bk.Signature; got != want[bk.Table][id] {
				t.Fatalf("vector %d table %d: signature %#x, dense %#x", id, bk.Table, got, want[bk.Table][id])
			}
		}
	}
}

func TestBucketsPartitionInput(t *testing.T) {
	vectors, _ := clusterVectors(100, 10, 3)
	b := hash(t, vectors, Params{DPrime: 6, L: 1, Seed: 3})
	seen := make(map[int]int)
	for _, bk := range b.Buckets(1, 6) {
		for _, id := range bk.IDs {
			seen[id]++
		}
	}
	if len(seen) != 100 {
		t.Fatalf("buckets cover %d of 100 vectors", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("vector %d appears in %d buckets of one table", id, n)
		}
	}
}

func TestMultipleTablesMultiplyBuckets(t *testing.T) {
	vectors, _ := clusterVectors(60, 8, 5)
	b := hash(t, vectors, Params{DPrime: 4, L: 3, Seed: 5})
	// Each table partitions all inputs, so total membership = 3 * 60.
	total := 0
	buckets := b.Buckets(3, 4)
	for i, bk := range buckets {
		if bk.Table < 0 || bk.Table > 2 {
			t.Fatalf("bad table %d", bk.Table)
		}
		if i > 0 {
			prev := buckets[i-1]
			if prev.Table > bk.Table || prev.Table == bk.Table && prev.Signature >= bk.Signature {
				t.Fatalf("bucket %d out of (Table, Signature) order", i)
			}
		}
		for j := 1; j < len(bk.IDs); j++ {
			if bk.IDs[j-1] >= bk.IDs[j] {
				t.Fatalf("bucket %d ids not ascending: %v", i, bk.IDs)
			}
		}
		total += len(bk.IDs)
	}
	if total != 180 {
		t.Fatalf("total membership = %d, want 180", total)
	}
}

func TestBucketsPanicsBeyondWidth(t *testing.T) {
	vectors, _ := clusterVectors(4, 3, 1)
	b := hash(t, vectors, Params{DPrime: 5, L: 2, Seed: 1})
	b.Buckets(1, 10) // one table may read all ten bits
	defer func() {
		if recover() == nil {
			t.Fatal("Buckets(3, 5) over 10 hashed bits did not panic")
		}
	}()
	b.Buckets(3, 5)
}

func TestSimilarVectorsCollide(t *testing.T) {
	vectors, labels := clusterVectors(200, 12, 7)
	b := hash(t, vectors, Params{DPrime: 8, L: 1, Seed: 7})
	// With two antipodal tight clusters and 8 hyperplanes, same-cluster
	// vectors should overwhelmingly share a bucket and cross-cluster
	// vectors should not.
	sameOK, crossBad := 0, 0
	samePairs, crossPairs := 0, 0
	for _, bk := range b.Buckets(1, 8) {
		for i := 0; i < len(bk.IDs); i++ {
			for j := i + 1; j < len(bk.IDs); j++ {
				if labels[bk.IDs[i]] == labels[bk.IDs[j]] {
					sameOK++
				} else {
					crossBad++
				}
			}
		}
	}
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			if labels[i] == labels[j] {
				samePairs++
			} else {
				crossPairs++
			}
		}
	}
	if crossBad > 0 {
		t.Fatalf("%d cross-cluster pairs share a bucket", crossBad)
	}
	if float64(sameOK) < 0.5*float64(samePairs) {
		t.Fatalf("only %d/%d same-cluster pairs collided", sameOK, samePairs)
	}
}

func TestCollisionProbabilityTheorem(t *testing.T) {
	// Empirically estimate P[h(a)=h(b)] over many random hyperplanes and
	// compare with 1 - theta/pi (Theorem 2 of the paper).
	a := []float64{1, 0, 0}
	b := []float64{1, 1, 0} // 45 degrees
	want := CollisionProbability(a, b)
	if math.Abs(want-(1-0.25)) > 1e-9 {
		t.Fatalf("analytic collision prob = %v, want 0.75", want)
	}
	rng := rand.New(rand.NewSource(13))
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		plane := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		sa := dot(plane, a) >= 0
		sb := dot(plane, b) >= 0
		if sa == sb {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical collision prob %v, analytic %v", got, want)
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestDeterministicWithSeed(t *testing.T) {
	vectors, _ := clusterVectors(50, 6, 19)
	a := hash(t, vectors, Params{DPrime: 5, L: 2, Seed: 19})
	b := hash(t, vectors, Params{DPrime: 5, L: 2, Seed: 19})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different sign bits")
	}
	c := hash(t, vectors, Params{DPrime: 5, L: 2, Seed: 20})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same sign bits")
	}
}

func TestLowerDPrimeCoarsensPartition(t *testing.T) {
	vectors, _ := clusterVectors(200, 10, 23)
	b := hash(t, vectors, Params{DPrime: 12, L: 1, Seed: 23})
	fine, coarse := b.Buckets(1, 12), b.Buckets(1, 2)
	if len(coarse) > len(fine) {
		t.Fatalf("coarse slicing has more buckets (%d) than fine (%d)", len(coarse), len(fine))
	}
}
