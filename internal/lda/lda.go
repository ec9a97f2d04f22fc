// Package lda implements Latent Dirichlet Allocation (Blei, Ng, Jordan 2003)
// with a collapsed Gibbs sampler, used by the TagDM framework to summarize a
// group's tag multiset into a topic-distribution signature (paper Section
// 2.1.2; the experiments use 25 global topics).
//
// The implementation is deliberately self-contained: a corpus is a slice of
// documents, each a slice of word ids; Train burns in the sampler and
// freezes topic-word statistics; Infer folds a new document in against the
// frozen statistics, which is how per-group signatures are produced after
// fitting the model on the whole dataset.
//
// Layout: the model keeps one word-major count array, wordTopic[w*K+k],
// holding exact integer counts in float64s, so a token's K conditionals
// read one contiguous row rather than one cache line in each of K
// vocabulary-long topic rows. Training's document-topic counts are flat
// too, and each topic's denominator, its total plus V·β, is cached and
// refreshed only when that total changes; after training it is frozen
// for Infer. Every conditional is still (dt+α)(tw+β)/den, summed over
// k = 0..K-1 in order and drawn from the same RNG stream, so trained
// counts, training thetas and inferences are bit-identical to the
// topic-major sampler this layout replaced (lda_test.go keeps that sampler
// as an oracle). Save and Load keep its topic-major tagdm-lda-v1 format.
package lda

import (
	"errors"
	"math/rand"
)

// Document is a bag of word ids, with repetitions.
type Document []int

// Corpus is a collection of documents over a vocabulary of VocabSize words.
type Corpus struct {
	Docs      []Document
	VocabSize int
}

// Config controls training.
type Config struct {
	// Topics is K, the number of latent topics.
	Topics int
	// Alpha is the symmetric document-topic Dirichlet prior (default 0.1,
	// suited to short documents such as group tag multisets).
	Alpha float64
	// Beta is the symmetric topic-word Dirichlet prior (default 0.01).
	Beta float64
	// Iterations is the number of Gibbs sweeps (default 200).
	Iterations int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Iterations == 0 {
		c.Iterations = 200
	}
	return c
}

// Model is a trained LDA model: frozen word-topic counts plus priors.
type Model struct {
	K         int
	VocabSize int
	Alpha     float64
	Beta      float64

	// wordTopic[w*K+k] = count of word w assigned to topic k at the end of
	// training, held as an exact integer in a float64 so the sampler's inner
	// loop reads one contiguous row per token without conversions.
	wordTopic []float64
	// topicDen[k] = float64(total count of topic k) + VocabSize*Beta, the
	// denominator of every phi[k][w]; frozen after training.
	topicDen []float64

	// docTopic distributions of the training documents (theta), row-major
	// K floats per document.
	docTheta [][]float64
}

// Train runs the collapsed Gibbs sampler on corpus and returns the model.
func Train(corpus Corpus, cfg Config) (*Model, error) {
	if cfg.Topics < 1 {
		return nil, errors.New("lda: Topics must be >= 1")
	}
	if corpus.VocabSize < 1 {
		return nil, errors.New("lda: VocabSize must be >= 1")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	K, V := cfg.Topics, corpus.VocabSize
	vBeta := float64(V) * cfg.Beta

	m := &Model{K: K, VocabSize: V, Alpha: cfg.Alpha, Beta: cfg.Beta,
		wordTopic: make([]float64, V*K), topicDen: make([]float64, K)}
	totals := make([]int, K)

	nDocs := len(corpus.Docs)
	docTopic := make([]float64, nDocs*K) // docTopic[d*K+k]
	assign := make([][]int, nDocs)       // topic of each token

	// Random initialization.
	for d, doc := range corpus.Docs {
		dt := docTopic[d*K : (d+1)*K]
		assign[d] = make([]int, len(doc))
		for i, w := range doc {
			if w < 0 || w >= V {
				return nil, errors.New("lda: word id out of vocabulary range")
			}
			k := rng.Intn(K)
			assign[d][i] = k
			dt[k]++
			m.wordTopic[w*K+k]++
			totals[k]++
		}
	}
	for k, n := range totals {
		m.topicDen[k] = float64(n) + vBeta
	}

	probs := make([]float64, K)
	for it := 0; it < cfg.Iterations; it++ {
		for d, doc := range corpus.Docs {
			dt := docTopic[d*K : (d+1)*K]
			z := assign[d]
			for i, w := range doc {
				tw := m.wordTopic[w*K : (w+1)*K]
				old := z[i]
				dt[old]--
				tw[old]--
				totals[old]--
				m.topicDen[old] = float64(totals[old]) + vBeta

				k := sample(rng, probs, fill(probs, dt, tw, m.topicDen, cfg.Alpha, cfg.Beta))
				z[i] = k
				dt[k]++
				tw[k]++
				totals[k]++
				m.topicDen[k] = float64(totals[k]) + vBeta
			}
		}
	}

	// Freeze per-document theta.
	m.docTheta = make([][]float64, nDocs)
	for d, doc := range corpus.Docs {
		m.docTheta[d] = theta(docTopic[d*K:(d+1)*K], len(doc), cfg.Alpha)
	}
	return m, nil
}

// fill sets probs[k] to the collapsed Gibbs conditional of topic k,
// (dt[k]+alpha)*(tw[k]+beta)/den[k], and returns their sum. Train and Infer
// share it so both evaluate the same expression in the same order.
func fill(probs, dt, tw, den []float64, alpha, beta float64) float64 {
	dt, tw, den = dt[:len(probs)], tw[:len(probs)], den[:len(probs)]
	var sum float64
	for k := range probs {
		p := (dt[k] + alpha) * (tw[k] + beta) / den[k]
		probs[k] = p
		sum += p
	}
	return sum
}

// theta smooths one document's topic counts into its topic distribution.
func theta(dt []float64, n int, alpha float64) []float64 {
	out := make([]float64, len(dt))
	denom := float64(n) + float64(len(dt))*alpha
	for k, c := range dt {
		out[k] = (c + alpha) / denom
	}
	return out
}

// sample draws an index proportionally to probs (which sum to sum).
func sample(rng *rand.Rand, probs []float64, sum float64) int {
	u := rng.Float64() * sum
	var acc float64
	for k, p := range probs {
		acc += p
		if u < acc {
			return k
		}
	}
	return len(probs) - 1
}

// DocTheta returns the trained topic distribution of training document d.
func (m *Model) DocTheta(d int) []float64 {
	out := make([]float64, m.K)
	copy(out, m.docTheta[d])
	return out
}

// TopicWordProb returns phi[k][w], the smoothed probability of word w under
// topic k.
func (m *Model) TopicWordProb(k, w int) float64 {
	return (m.wordTopic[w*m.K+k] + m.Beta) / m.topicDen[k]
}

// TopWords returns the n most probable word ids of topic k, most probable
// first. Useful for labeling topics in reports.
func (m *Model) TopWords(k, n int) []int {
	type wp struct {
		w int
		p float64
	}
	all := make([]wp, m.VocabSize)
	for w := 0; w < m.VocabSize; w++ {
		all[w] = wp{w, m.TopicWordProb(k, w)}
	}
	// Partial selection sort: n is small.
	if n > len(all) {
		n = len(all)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].p > all[best].p {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
		out[i] = all[i].w
	}
	return out
}

// Infer folds doc into the frozen model with a short Gibbs run and returns
// its topic distribution theta (length K, sums to 1). This is how group tag
// signatures are produced: the group's tag multiset is one document.
// Word ids outside the vocabulary carry no evidence and are dropped before
// sampling; a document with no in-vocabulary word gets the uniform theta.
func (m *Model) Infer(doc Document, iterations int, seed int64) []float64 {
	doc = m.inVocab(doc)
	if len(doc) == 0 {
		uniform := make([]float64, m.K)
		for k := range uniform {
			uniform[k] = 1.0 / float64(m.K)
		}
		return uniform
	}
	if iterations <= 0 {
		iterations = 30
	}
	K := m.K
	rng := rand.New(rand.NewSource(seed))
	dt := make([]float64, K)
	assign := make([]int, len(doc))
	for i := range doc {
		k := rng.Intn(K)
		assign[i] = k
		dt[k]++
	}
	probs := make([]float64, K)
	for it := 0; it < iterations; it++ {
		for i, w := range doc {
			old := assign[i]
			dt[old]--
			sum := fill(probs, dt, m.wordTopic[w*K:(w+1)*K], m.topicDen, m.Alpha, m.Beta)
			k := sample(rng, probs, sum)
			assign[i] = k
			dt[k]++
		}
	}
	return theta(dt, len(doc), m.Alpha)
}

// inVocab returns doc without its out-of-vocabulary ids, copying only when
// there is one to drop.
func (m *Model) inVocab(doc Document) Document {
	for i, w := range doc {
		if w < 0 || w >= m.VocabSize {
			kept := append(Document(nil), doc[:i]...)
			for _, w := range doc[i+1:] {
				if w >= 0 && w < m.VocabSize {
					kept = append(kept, w)
				}
			}
			return kept
		}
	}
	return doc
}
