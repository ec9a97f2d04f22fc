// Command custommeasure shows the framework's extension points: a
// caller-provided tag Summarizer (the paper stresses that no particular
// summarization or comparison method is mandated) and a problem spec built
// directly from constraints and objectives instead of the six canned
// Table 1 instances.
package main

import (
	"fmt"
	"log"
	"sort"

	"tagdm"
)

// prefixSummarizer is a toy custom summarizer: it buckets tags by their
// first letter, producing a 26-dimensional signature. Real users would plug
// in an embedding model, an ontology mapper (the paper mentions OpenCalais
// and WordNet), or any other house method.
type prefixSummarizer struct {
	corpus *tagdm.Dataset
}

func (p *prefixSummarizer) Dim() int     { return 26 }
func (p *prefixSummarizer) Name() string { return "first-letter-buckets" }

func (p *prefixSummarizer) Summarize(s *tagdm.Store, g *tagdm.Group) tagdm.Signature {
	w := make([]float64, 26)
	for tag, n := range tagdm.GroupTagBag(s, g) {
		name := s.Vocab.Tag(tag)
		if len(name) == 0 {
			continue
		}
		c := name[0]
		if c >= 'a' && c <= 'z' {
			w[c-'a'] += float64(n)
		}
	}
	return tagdm.SignatureFromDense(w)
}

func main() {
	ds, err := tagdm.GenerateDataset(tagdm.SmallGenerateConfig())
	if err != nil {
		log.Fatal(err)
	}
	a, err := tagdm.NewAnalysis(ds, tagdm.Options{
		CustomSummarizer: &prefixSummarizer{corpus: ds},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis over %d groups with a custom %q summarizer\n\n",
		a.NumGroups(), "first-letter-buckets")

	// A hand-built spec outside Table 1: maximize user diversity AND tag
	// diversity jointly, constrained only on item similarity — one of the
	// 98 optimizable instances the framework captures.
	spec := tagdm.ProblemSpec{
		Name: "custom: diverse users + diverse tags over similar items",
		KLo:  1, KHi: 3,
		MinSupport: a.NumActions() / 200,
		Constraints: []tagdm.Constraint{
			{Dim: tagdm.DimItems, Meas: tagdm.MeasureSimilarity, Threshold: 0.3},
		},
		Objectives: []tagdm.Objective{
			{Dim: tagdm.DimUsers, Meas: tagdm.MeasureDiversity, Weight: 0.5},
			{Dim: tagdm.DimTags, Meas: tagdm.MeasureDiversity, Weight: 1.0},
		},
	}
	res, err := a.Solve(spec)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		fmt.Println("no feasible group set under these constraints")
		return
	}
	fmt.Printf("%s\nalgorithm %s, objective %.3f, support %d\n",
		spec.Name, res.Algorithm, res.Objective, res.Support)
	descs := a.Describe(res)
	sort.Strings(descs)
	for i, d := range descs {
		fmt.Printf("  %s\n    tags: %s\n", d, a.GroupCloud(res, i, 5))
	}
}
