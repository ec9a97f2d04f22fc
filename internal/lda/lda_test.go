package lda

import (
	"math"
	"math/rand"
	"testing"
)

// synthCorpus builds a corpus from two well-separated latent topics: words
// [0, half) belong to topic A, words [half, V) to topic B. Each document
// draws from exactly one topic.
func synthCorpus(nDocs, docLen, vocab int, seed int64) (Corpus, []int) {
	rng := rand.New(rand.NewSource(seed))
	half := vocab / 2
	docs := make([]Document, nDocs)
	labels := make([]int, nDocs)
	for d := range docs {
		topic := d % 2
		labels[d] = topic
		doc := make(Document, docLen)
		for i := range doc {
			if topic == 0 {
				doc[i] = rng.Intn(half)
			} else {
				doc[i] = half + rng.Intn(vocab-half)
			}
		}
		docs[d] = doc
	}
	return Corpus{Docs: docs, VocabSize: vocab}, labels
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(Corpus{VocabSize: 10}, Config{Topics: 0}); err == nil {
		t.Fatal("Topics=0 accepted")
	}
	if _, err := Train(Corpus{VocabSize: 0}, Config{Topics: 2}); err == nil {
		t.Fatal("VocabSize=0 accepted")
	}
	if _, err := Train(Corpus{Docs: []Document{{99}}, VocabSize: 10}, Config{Topics: 2, Seed: 1}); err == nil {
		t.Fatal("out-of-vocab word accepted")
	}
}

func TestThetaIsDistribution(t *testing.T) {
	corpus, _ := synthCorpus(20, 30, 40, 1)
	m, err := Train(corpus, Config{Topics: 4, Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for d := range corpus.Docs {
		theta := m.DocTheta(d)
		var sum float64
		for _, p := range theta {
			if p < 0 {
				t.Fatalf("doc %d has negative prob %v", d, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("doc %d theta sums to %v", d, sum)
		}
	}
}

func TestRecoversSeparatedTopics(t *testing.T) {
	corpus, labels := synthCorpus(40, 50, 60, 42)
	m, err := Train(corpus, Config{Topics: 2, Iterations: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Same-label documents must be closer to each other (cosine of theta)
	// than different-label documents on average.
	cos := func(a, b []float64) float64 {
		var dot, na, nb float64
		for i := range a {
			dot += a[i] * b[i]
			na += a[i] * a[i]
			nb += b[i] * b[i]
		}
		return dot / math.Sqrt(na*nb)
	}
	var same, diff float64
	var nSame, nDiff int
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			c := cos(m.DocTheta(i), m.DocTheta(j))
			if labels[i] == labels[j] {
				same += c
				nSame++
			} else {
				diff += c
				nDiff++
			}
		}
	}
	same /= float64(nSame)
	diff /= float64(nDiff)
	if same <= diff+0.2 {
		t.Fatalf("LDA failed to separate topics: same=%v diff=%v", same, diff)
	}
}

func TestTopicWordProbNormalized(t *testing.T) {
	corpus, _ := synthCorpus(10, 20, 30, 3)
	m, err := Train(corpus, Config{Topics: 3, Iterations: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < m.K; k++ {
		var sum float64
		for w := 0; w < m.VocabSize; w++ {
			sum += m.TopicWordProb(k, w)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("topic %d phi sums to %v", k, sum)
		}
	}
}

func TestTopWords(t *testing.T) {
	corpus, _ := synthCorpus(40, 50, 20, 9)
	m, err := Train(corpus, Config{Topics: 2, Iterations: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		top := m.TopWords(k, 5)
		if len(top) != 5 {
			t.Fatalf("TopWords returned %d", len(top))
		}
		// All top words of one recovered topic must come from the same
		// latent half of the vocabulary.
		firstHalf := top[0] < 10
		for _, w := range top {
			if (w < 10) != firstHalf {
				t.Fatalf("topic %d mixes vocabulary halves: %v", k, top)
			}
		}
	}
	if got := m.TopWords(0, 100); len(got) != m.VocabSize {
		t.Fatalf("TopWords over-request returned %d", len(got))
	}
}

func TestInfer(t *testing.T) {
	corpus, _ := synthCorpus(40, 50, 60, 17)
	m, err := Train(corpus, Config{Topics: 2, Iterations: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Determine which model topic corresponds to vocabulary half A by
	// checking topic-word mass.
	var massA0 float64
	for w := 0; w < 30; w++ {
		massA0 += m.TopicWordProb(0, w)
	}
	topicA := 0
	if massA0 < 0.5 {
		topicA = 1
	}
	docA := Document{1, 2, 3, 4, 5, 6, 7, 8}
	theta := m.Infer(docA, 50, 99)
	var sum float64
	for _, p := range theta {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("inferred theta sums to %v", sum)
	}
	if theta[topicA] < 0.7 {
		t.Fatalf("half-A document got theta[%d]=%v", topicA, theta[topicA])
	}
}

func TestInferEmptyAndUnseen(t *testing.T) {
	corpus, _ := synthCorpus(10, 20, 30, 5)
	m, err := Train(corpus, Config{Topics: 3, Iterations: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.Infer(nil, 10, 1)
	for _, p := range theta {
		if math.Abs(p-1.0/3.0) > 1e-9 {
			t.Fatalf("empty doc should be uniform, got %v", theta)
		}
	}
	// Out-of-vocab ids are skipped, not a crash.
	theta2 := m.Infer(Document{999, -5, 1}, 10, 1)
	var sum float64
	for _, p := range theta2 {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta with unseen words sums to %v", sum)
	}
	// Unseen ids neither draw from the RNG nor count toward theta:
	// interleaving them leaves the inferred theta unchanged bit for bit,
	// and a document of unseen ids only carries no evidence at all.
	clean := Document{3, 3, 7, 21, 22, 29, 0}
	noisy := Document{-1, 3, 30, 3, 7, 1 << 20, 21, 22, -7, 29, 0, 31}
	for seed := int64(0); seed < 5; seed++ {
		if got, want := m.Infer(noisy, 25, seed), m.Infer(clean, 25, seed); !sameBits(got, want) {
			t.Fatalf("seed %d: theta with unseen ids %v, without %v", seed, got, want)
		}
	}
	for _, p := range m.Infer(Document{999, -5, 30}, 10, 1) {
		if p != 1.0/3.0 {
			t.Fatalf("all-unseen doc should be uniform, got %v", p)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// refModel and refTrain/refInfer are the topic-major sampler the
// word-major one replaced, kept verbatim as the bit-identity oracle: int
// counts in topicWord[k][w], every denominator recomputed from the totals.
type refModel struct {
	K, VocabSize int
	Alpha, Beta  float64
	topicWord    [][]int
	topicTotals  []int
	docTheta     [][]float64
}

func refTrain(corpus Corpus, cfg Config) *refModel {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	K, V := cfg.Topics, corpus.VocabSize

	m := &refModel{K: K, VocabSize: V, Alpha: cfg.Alpha, Beta: cfg.Beta}
	m.topicWord = make([][]int, K)
	for k := range m.topicWord {
		m.topicWord[k] = make([]int, V)
	}
	m.topicTotals = make([]int, K)

	nDocs := len(corpus.Docs)
	docTopic := make([][]int, nDocs)
	docLens := make([]int, nDocs)
	assign := make([][]int, nDocs)
	for d, doc := range corpus.Docs {
		docTopic[d] = make([]int, K)
		assign[d] = make([]int, len(doc))
		docLens[d] = len(doc)
		for i, w := range doc {
			k := rng.Intn(K)
			assign[d][i] = k
			docTopic[d][k]++
			m.topicWord[k][w]++
			m.topicTotals[k]++
		}
	}

	probs := make([]float64, K)
	vBeta := float64(V) * cfg.Beta
	for it := 0; it < cfg.Iterations; it++ {
		for d, doc := range corpus.Docs {
			for i, w := range doc {
				old := assign[d][i]
				docTopic[d][old]--
				m.topicWord[old][w]--
				m.topicTotals[old]--

				var sum float64
				for k := 0; k < K; k++ {
					p := (float64(docTopic[d][k]) + cfg.Alpha) *
						(float64(m.topicWord[k][w]) + cfg.Beta) /
						(float64(m.topicTotals[k]) + vBeta)
					probs[k] = p
					sum += p
				}
				k := sample(rng, probs, sum)
				assign[d][i] = k
				docTopic[d][k]++
				m.topicWord[k][w]++
				m.topicTotals[k]++
			}
		}
	}

	m.docTheta = make([][]float64, nDocs)
	for d := range corpus.Docs {
		theta := make([]float64, K)
		denom := float64(docLens[d]) + float64(K)*cfg.Alpha
		for k := 0; k < K; k++ {
			theta[k] = (float64(docTopic[d][k]) + cfg.Alpha) / denom
		}
		m.docTheta[d] = theta
	}
	return m
}

// refInfer is the old Infer for in-vocabulary documents (it gave unseen
// ids a topic, which TestInferEmptyAndUnseen rules out).
func (m *refModel) refInfer(doc Document, iterations int, seed int64) []float64 {
	theta := make([]float64, m.K)
	if len(doc) == 0 {
		for k := range theta {
			theta[k] = 1.0 / float64(m.K)
		}
		return theta
	}
	if iterations <= 0 {
		iterations = 30
	}
	rng := rand.New(rand.NewSource(seed))
	docTopic := make([]int, m.K)
	assign := make([]int, len(doc))
	for i := range doc {
		k := rng.Intn(m.K)
		assign[i] = k
		docTopic[k]++
	}
	probs := make([]float64, m.K)
	vBeta := float64(m.VocabSize) * m.Beta
	for it := 0; it < iterations; it++ {
		for i, w := range doc {
			old := assign[i]
			docTopic[old]--
			var sum float64
			for k := 0; k < m.K; k++ {
				p := (float64(docTopic[k]) + m.Alpha) *
					(float64(m.topicWord[k][w]) + m.Beta) /
					(float64(m.topicTotals[k]) + vBeta)
				probs[k] = p
				sum += p
			}
			k := sample(rng, probs, sum)
			assign[i] = k
			docTopic[k]++
		}
	}
	denom := float64(len(doc)) + float64(m.K)*m.Alpha
	for k := 0; k < m.K; k++ {
		theta[k] = (float64(docTopic[k]) + m.Alpha) / denom
	}
	return theta
}

// randDoc draws a document of n in-vocabulary ids, clustered the way a
// sorted group tag bag is.
func randDoc(rng *rand.Rand, n, vocab int) Document {
	doc := make(Document, n)
	for i := range doc {
		doc[i] = rng.Intn(vocab)
	}
	return doc
}

// assertMatchesRef checks m against the topic-major oracle bit for bit:
// counts, denominators (hence totals), training thetas and inference.
func assertMatchesRef(t *testing.T, m *Model, ref *refModel, rng *rand.Rand) {
	t.Helper()
	for k := 0; k < ref.K; k++ {
		for w := 0; w < ref.VocabSize; w++ {
			if got, want := m.wordTopic[w*m.K+k], float64(ref.topicWord[k][w]); got != want {
				t.Fatalf("count[topic %d][word %d] = %v, want %v", k, w, got, want)
			}
		}
		want := float64(ref.topicTotals[k]) + float64(ref.VocabSize)*ref.Beta
		if math.Float64bits(m.topicDen[k]) != math.Float64bits(want) {
			t.Fatalf("topic %d denominator %v, want %v", k, m.topicDen[k], want)
		}
	}
	for d := range ref.docTheta {
		if !sameBits(m.DocTheta(d), ref.docTheta[d]) {
			t.Fatalf("DocTheta(%d) = %v, want %v", d, m.DocTheta(d), ref.docTheta[d])
		}
	}
	for _, n := range []int{0, 1, 2, 9, 40} {
		doc := randDoc(rng, n, ref.VocabSize)
		iters, seed := rng.Intn(12), rng.Int63()
		if got, want := m.Infer(doc, iters, seed), ref.refInfer(doc, iters, seed); !sameBits(got, want) {
			t.Fatalf("Infer(%v, %d, %d) = %v, want %v", doc, iters, seed, got, want)
		}
	}
}

// TestFillMatchesTopicMajorExpression pins fill's arithmetic to the
// topic-major sampler's expression, probability by probability. A one-ulp
// difference rarely flips a draw, so the model-level oracle below would
// miss a reassociated product; this test does not.
func TestFillMatchesTopicMajorExpression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		K, V := 1+rng.Intn(30), 1+rng.Intn(20000)
		alpha, beta := rng.Float64(), rng.Float64()/10
		vBeta := float64(V) * beta
		docTopic, topicWord, totals := make([]int, K), make([]int, K), make([]int, K)
		dt, tw, den := make([]float64, K), make([]float64, K), make([]float64, K)
		for k := 0; k < K; k++ {
			docTopic[k], topicWord[k] = rng.Intn(50), rng.Intn(5000)
			totals[k] = topicWord[k] + rng.Intn(1<<20)
			dt[k], tw[k], den[k] = float64(docTopic[k]), float64(topicWord[k]), float64(totals[k])+vBeta
		}
		want := make([]float64, K)
		var wantSum float64
		for k := 0; k < K; k++ {
			p := (float64(docTopic[k]) + alpha) *
				(float64(topicWord[k]) + beta) /
				(float64(totals[k]) + vBeta)
			want[k] = p
			wantSum += p
		}
		got := make([]float64, K)
		sum := fill(got, dt, tw, den, alpha, beta)
		if !sameBits(got, want) || math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Fatalf("trial %d: fill = %v (sum %v), want %v (sum %v)", trial, got, sum, want, wantSum)
		}
	}
}

// TestTrainMatchesTopicMajorOracle trains the word-major sampler and the
// topic-major reference on randomized corpora — every K from 1 to 30,
// empty and single-token documents, varied priors, seeds and sweep counts —
// and requires identical models and inferences.
func TestTrainMatchesTopicMajorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	for K := 1; K <= 30; K++ {
		vocab := 1 + rng.Intn(60)
		docs := make([]Document, rng.Intn(16))
		for d := range docs {
			switch rng.Intn(4) {
			case 0:
				docs[d] = nil
			case 1:
				docs[d] = randDoc(rng, 1, vocab)
			default:
				docs[d] = randDoc(rng, 2+rng.Intn(30), vocab)
			}
		}
		cfg := Config{Topics: K, Iterations: 1 + rng.Intn(15), Seed: rng.Int63()}
		if K%3 == 0 {
			cfg.Alpha, cfg.Beta = 0.5+rng.Float64(), 0.001+rng.Float64()/10
		}
		corpus := Corpus{Docs: docs, VocabSize: vocab}
		m, err := Train(corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesRef(t, m, refTrain(corpus, cfg), rng)
	}
	corpus, _ := synthCorpus(20, 30, 40, 4)
	for seed := int64(1); seed <= 3; seed++ {
		for _, iters := range []int{1, 7, 50} {
			cfg := Config{Topics: 6, Iterations: iters, Seed: seed}
			m, err := Train(corpus, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesRef(t, m, refTrain(corpus, cfg), rng)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	corpus, _ := synthCorpus(10, 20, 30, 7)
	m1, err := Train(corpus, Config{Topics: 3, Iterations: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(corpus, Config{Topics: 3, Iterations: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for d := range corpus.Docs {
		a, b := m1.DocTheta(d), m2.DocTheta(d)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("doc %d topic %d: %v != %v", d, k, a[k], b[k])
			}
		}
	}
}
