// Package evaluate quantifies how well the signature pipeline recovers
// the synthetic generator's latent structure. DESIGN.md's substitution
// argument — that the synthetic corpus preserves the behaviour the
// paper's experiments depend on — rests on the mined geometry reflecting
// the planted topics; this package measures that directly:
//
//   - Purity: assign each group to its dominant LDA topic and to its
//     dominant ground-truth topic (from datagen.World.TopicOfTag); purity
//     is the fraction of groups whose LDA-cluster peers share their
//     ground-truth label, computed via the standard cluster-purity formula.
//   - SeparationGap: mean pairwise signature cosine within same-truth
//     groups minus the mean across different-truth groups. Positive gaps
//     mean the geometry the mining algorithms rely on is real.
package evaluate

import (
	"fmt"

	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Report is the outcome of a structure-recovery evaluation.
type Report struct {
	// Groups is the number of groups evaluated.
	Groups int
	// Purity in [0, 1]; 1 means every LDA cluster is ground-truth pure.
	Purity float64
	// ChancePurity is the purity a random assignment would achieve (the
	// largest ground-truth class's share).
	ChancePurity float64
	// WithinCosine and AcrossCosine are the mean signature cosines for
	// same-truth and different-truth group pairs.
	WithinCosine, AcrossCosine float64
}

// SeparationGap is WithinCosine - AcrossCosine.
func (r Report) SeparationGap() float64 { return r.WithinCosine - r.AcrossCosine }

// String renders the report for logs.
func (r Report) String() string {
	return fmt.Sprintf(
		"structure recovery over %d groups: purity %.3f (chance %.3f), within-cosine %.3f, across-cosine %.3f, gap %.3f",
		r.Groups, r.Purity, r.ChancePurity, r.WithinCosine, r.AcrossCosine, r.SeparationGap())
}

// truthTopic returns the dominant ground-truth topic of a group: the
// planted topic of the majority of its tag occurrences.
func truthTopic(s *store.Store, g *groups.Group, topicOfTag []int, nTopics int) int {
	counts := make([]int, nTopics)
	for tag, n := range groups.TagBag(s, g) {
		if int(tag) < len(topicOfTag) {
			counts[topicOfTag[tag]] += n
		}
	}
	best, bestN := 0, -1
	for t, n := range counts {
		if n > bestN {
			best, bestN = t, n
		}
	}
	return best
}

// argmax returns the index of the largest weight.
func argmax(w []float64) int {
	best, bestV := 0, w[0]
	for i, v := range w[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}

// Recovery evaluates signatures (indexed by group ID) against the world's
// planted topics. nTopics is the generator's topic count.
func Recovery(w *datagen.World, s *store.Store, gs []*groups.Group, sigs []signature.Signature, nTopics int) (Report, error) {
	if len(gs) == 0 || len(gs) != len(sigs) {
		return Report{}, fmt.Errorf("evaluate: %d groups, %d signatures", len(gs), len(sigs))
	}
	truth := make([]int, len(gs))
	cluster := make([]int, len(gs))
	truthCounts := make(map[int]int)
	for i, g := range gs {
		truth[i] = truthTopic(s, g, w.TopicOfTag, nTopics)
		truthCounts[truth[i]]++
		cluster[i] = argmax(sigs[i].Dense())
	}
	// Cluster purity: sum over clusters of the majority truth count.
	type key struct{ c, t int }
	joint := make(map[key]int)
	clusterSizes := make(map[int]int)
	for i := range gs {
		joint[key{cluster[i], truth[i]}]++
		clusterSizes[cluster[i]]++
	}
	pure := 0
	for c := range clusterSizes {
		best := 0
		for t := 0; t < nTopics; t++ {
			if n := joint[key{c, t}]; n > best {
				best = n
			}
		}
		pure += best
	}
	maxClass := 0
	for _, n := range truthCounts {
		if n > maxClass {
			maxClass = n
		}
	}
	rep := Report{
		Groups:       len(gs),
		Purity:       float64(pure) / float64(len(gs)),
		ChancePurity: float64(maxClass) / float64(len(gs)),
	}
	// Cosine separation.
	var within, across float64
	var nWithin, nAcross int
	for i := 0; i < len(gs); i++ {
		for j := i + 1; j < len(gs); j++ {
			c := sigs[i].Cosine(sigs[j])
			if truth[i] == truth[j] {
				within += c
				nWithin++
			} else {
				across += c
				nAcross++
			}
		}
	}
	if nWithin > 0 {
		rep.WithinCosine = within / float64(nWithin)
	}
	if nAcross > 0 {
		rep.AcrossCosine = across / float64(nAcross)
	}
	return rep, nil
}
