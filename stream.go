package tagdm

import (
	"context"
	"fmt"

	"tagdm/internal/core"
	"tagdm/internal/incremental"
	"tagdm/internal/signature"
)

// Maintainer keeps a TagDM analysis current under a stream of new tagging
// actions without rebuilding the pipeline per insert — the paper's
// Section 8 future work. Group membership and bitmap indexes update on
// every Insert. The next Solve takes a frozen snapshot, which
// re-summarizes only the groups changed since the previous one and
// rebuilds only their pair-matrix rows; Solves with no Insert in between
// reuse that snapshot.
//
// Signatures use the frequency summarizer by default (or a custom
// Summarizer): LDA would need periodic retraining, which callers can do by
// constructing a fresh Analysis at their own cadence.
type Maintainer struct {
	ds    *Dataset
	inner *incremental.Maintainer
	opts  Options
	snap  *incremental.Snapshot // the last solved snapshot
}

// NewMaintainer builds a maintainer over the dataset's current contents.
// Options.Within is not supported for streams (scoping happens per query);
// Options.Signatures other than SignatureFrequency require a
// CustomSummarizer.
func NewMaintainer(ds *Dataset, opts Options) (*Maintainer, error) {
	opts = opts.withDefaults()
	if len(opts.Within) > 0 {
		return nil, fmt.Errorf("tagdm: Within is not supported for maintained analyses")
	}
	sum := opts.CustomSummarizer
	if sum == nil {
		if opts.Signatures != SignatureFrequency {
			return nil, fmt.Errorf("tagdm: maintained analyses need SignatureFrequency or a CustomSummarizer")
		}
		sum = signature.FrequencyOfSize(ds.Vocab.Size())
	}
	inner, err := incremental.New(ds, opts.MinGroupTuples, sum)
	if err != nil {
		return nil, err
	}
	return &Maintainer{ds: ds, inner: inner, opts: opts}, nil
}

// Insert adds one tagging action. The user and item must already exist in
// the dataset; tags are interned into the vocabulary automatically.
//
// Vocabulary-growth caveat: frequency signatures index dimensions by tag
// id, so tags first seen after construction fold into the signature space
// only up to the initial vocabulary size; register the expected vocabulary
// up front (or use a CustomSummarizer with a stable space, such as a
// CategoryMapper) when brand-new tags matter. The same caveat applies to
// the streaming ingest endpoint of internal/server, whose engine is backed
// by a Maintainer exactly like this one.
func (m *Maintainer) Insert(user, item int32, rating float64, tags ...string) error {
	ids := make([]TagID, len(tags))
	for i, t := range tags {
		ids[i] = m.ds.Vocab.ID(t)
	}
	return m.inner.Insert(TaggingAction{User: user, Item: item, Rating: rating, Tags: ids})
}

// Epoch is a monotonic counter bumped on every Insert. Two equal epochs
// observe identical contents, which makes it the natural key for caching
// query results computed against a maintained analysis (the server's
// result cache keys on it).
func (m *Maintainer) Epoch() int64 { return m.inner.Version() }

// NumGroups is the current count of above-threshold groups.
func (m *Maintainer) NumGroups() int { return len(m.inner.ActiveGroups()) }

// NumActions is the current tagging action count.
func (m *Maintainer) NumActions() int { return m.inner.Store().Len() }

// Solve runs the spec with the default approximate algorithm family on a
// snapshot of the current contents.
func (m *Maintainer) Solve(spec ProblemSpec) (Result, error) {
	if m.snap == nil || m.snap.Version != m.inner.Version() {
		snap, err := m.inner.Snapshot()
		if err != nil {
			return Result{}, err
		}
		m.snap = snap
	}
	return m.snap.Engine.Solve(context.Background(), spec, core.SolveOptions{
		LSH: core.LSHOptions{Seed: m.opts.Seed, Mode: core.Fold},
		FDP: core.FDPOptions{Mode: core.Fold},
	})
}

// Describe renders a result's groups through the dataset dictionaries.
func (m *Maintainer) Describe(res Result) []string {
	return res.Describe(m.inner.Store())
}
