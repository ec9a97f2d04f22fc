package lda

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Training is the expensive step of the signature pipeline, so models can
// be persisted and reloaded: Save writes the frozen topic-word statistics
// and priors with encoding/gob; Load restores a Model whose Infer behaves
// identically. Per-document thetas of the training corpus are included so
// DocTheta keeps working after a round trip. The format is topic-major
// (TopicWord[k][w]) while the model is word-major, so Save and Load
// transpose.

// snapshot is the gob-encoded form of a Model (gob needs exported fields).
type snapshot struct {
	K           int
	VocabSize   int
	Alpha, Beta float64
	TopicWord   [][]int
	TopicTotals []int
	DocTheta    [][]float64
}

const snapshotMagic = "tagdm-lda-v1"

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(snapshotMagic); err != nil {
		return fmt.Errorf("lda: writing header: %w", err)
	}
	s := snapshot{
		K:           m.K,
		VocabSize:   m.VocabSize,
		Alpha:       m.Alpha,
		Beta:        m.Beta,
		TopicWord:   make([][]int, m.K),
		TopicTotals: make([]int, m.K),
		DocTheta:    m.docTheta,
	}
	for k := range s.TopicWord {
		row := make([]int, m.VocabSize)
		for w := range row {
			row[w] = int(m.wordTopic[w*m.K+k])
			s.TopicTotals[k] += row[w]
		}
		s.TopicWord[k] = row
	}
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("lda: encoding model: %w", err)
	}
	return nil
}

// Load restores a model written by Save.
func Load(r io.Reader) (*Model, error) {
	dec := gob.NewDecoder(r)
	var magic string
	if err := dec.Decode(&magic); err != nil {
		return nil, fmt.Errorf("lda: reading header: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("lda: unexpected header %q", magic)
	}
	var s snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("lda: decoding model: %w", err)
	}
	if s.K < 1 || s.VocabSize < 1 || len(s.TopicWord) != s.K || len(s.TopicTotals) != s.K {
		return nil, fmt.Errorf("lda: corrupt snapshot (K=%d, V=%d)", s.K, s.VocabSize)
	}
	// Check the shape before allocating V*K counts for it.
	for k, row := range s.TopicWord {
		if len(row) != s.VocabSize {
			return nil, fmt.Errorf("lda: corrupt snapshot: topic %d has %d words", k, len(row))
		}
	}
	m := &Model{
		K:         s.K,
		VocabSize: s.VocabSize,
		Alpha:     s.Alpha,
		Beta:      s.Beta,
		wordTopic: make([]float64, s.VocabSize*s.K),
		topicDen:  make([]float64, s.K),
		docTheta:  s.DocTheta,
	}
	vBeta := float64(s.VocabSize) * s.Beta
	for k, row := range s.TopicWord {
		sum := 0
		for w, n := range row {
			if n < 0 {
				return nil, fmt.Errorf("lda: corrupt snapshot: topic %d word %d has count %d", k, w, n)
			}
			m.wordTopic[w*s.K+k] = float64(n)
			sum += n
		}
		if sum != s.TopicTotals[k] {
			return nil, fmt.Errorf("lda: corrupt snapshot: topic %d total %d, counts sum to %d", k, s.TopicTotals[k], sum)
		}
		m.topicDen[k] = float64(sum) + vBeta
	}
	for d, row := range s.DocTheta {
		if len(row) != s.K {
			return nil, fmt.Errorf("lda: corrupt snapshot: document %d theta has %d topics, want %d", d, len(row), s.K)
		}
	}
	return m, nil
}
