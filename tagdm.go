// Package tagdm is a Go implementation of the Tagging Behavior Dual Mining
// (TagDM) framework of Das, Thirumuruganathan, Amer-Yahia, Das and Yu,
// "Who Tags What? An Analysis Framework", PVLDB 5(11), 2012.
//
// TagDM analyzes the tagging behavior of user populations over item
// collections: it finds sets of describable tagging-action groups (e.g.
// {gender=male, age=teen, genre=action}) that satisfy similarity or
// diversity constraints on the user and item dimensions while maximizing a
// similarity or diversity objective on the tag dimension — questions like
// "which similar user sub-populations disagree most in how they tag the
// same kind of movie?".
//
// The package exposes the whole pipeline:
//
//	ds := tagdm.NewDataset(tagdm.NewSchema("gender", "age"), tagdm.NewSchema("genre"))
//	// ... populate users, items and tagging actions ...
//	a, err := tagdm.NewAnalysis(ds, tagdm.Options{})
//	spec, _ := tagdm.Problem(6, 3, 100, 0.5, 0.5) // Table 1, Problem 6
//	res, err := a.Solve(spec)
//
// Algorithms: the exact brute force, the LSH-based SM-LSH-Fi/Fo similarity
// maximizers, and the facility-dispersion-based DV-FDP-Fi/Fo diversity
// maximizers, all per the paper. Tag signatures can be frequency, tf-idf,
// or LDA topic distributions (the paper's configuration).
package tagdm

import (
	"context"
	"fmt"
	"io"

	"tagdm/internal/core"
	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/mining"
	"tagdm/internal/model"
	"tagdm/internal/query"
	"tagdm/internal/recommend"
	"tagdm/internal/signature"
	"tagdm/internal/store"
)

// Re-exported data model types.
type (
	// Dataset is the triple <U, I, T> plus the tagging actions G.
	Dataset = model.Dataset
	// Schema is an ordered attribute list for users or items.
	Schema = model.Schema
	// TaggingAction is one <user, item, tags> triple.
	TaggingAction = model.TaggingAction
	// TagID identifies a tag in a dataset vocabulary.
	TagID = model.TagID
	// ValueCode is a dictionary-encoded attribute value.
	ValueCode = model.ValueCode
)

// Re-exported engine types.
type (
	// ProblemSpec is a concrete TagDM problem instance <G, C, O>.
	ProblemSpec = core.ProblemSpec
	// Constraint is one hard constraint of a spec.
	Constraint = core.Constraint
	// Objective is one optimization criterion of a spec.
	Objective = core.Objective
	// Result is an algorithm outcome.
	Result = core.Result
	// LSHOptions tunes the SM-LSH family.
	LSHOptions = core.LSHOptions
	// FDPOptions tunes the DV-FDP family.
	FDPOptions = core.FDPOptions
	// ExactOptions tunes the brute-force baseline.
	ExactOptions = core.ExactOptions
	// Summarizer converts a group's tag multiset into a signature vector;
	// implement it to plug in a custom summarization method.
	Summarizer = signature.Summarizer
	// Signature is a group tag signature: a sparse weight vector.
	Signature = signature.Signature
	// InvalidSignatureError is the error an analysis reports when its
	// signatures differ in length or carry a NaN or ±Inf weight.
	InvalidSignatureError = signature.InvalidError
	// Store is the columnar tagging-action store a Summarizer reads from.
	Store = store.Store
	// Group is one describable tagging action group.
	Group = groups.Group
	// Dimension is a tagging behavior dimension (users, items, tags).
	Dimension = mining.Dimension
	// Measure is a dual mining criterion (similarity or diversity).
	Measure = mining.Measure
)

// Dimensions and measures for building custom ProblemSpecs.
const (
	// DimUsers is the user dimension.
	DimUsers = mining.Users
	// DimItems is the item dimension.
	DimItems = mining.Items
	// DimTags is the tag dimension.
	DimTags = mining.Tags
	// MeasureSimilarity is the similarity criterion.
	MeasureSimilarity = mining.Similarity
	// MeasureDiversity is the diversity criterion.
	MeasureDiversity = mining.Diversity
)

// GroupTagBag returns the multiset of tags appearing in a group's tagging
// actions; custom Summarizer implementations build signatures from it.
func GroupTagBag(s *Store, g *Group) map[TagID]int { return groups.TagBag(s, g) }

// SignatureFromDense builds a Signature from a dense weight vector, keeping
// its non-zero weights; custom Summarizer implementations return their
// weights through it.
func SignatureFromDense(w []float64) Signature { return signature.FromDense(w) }

// PairFunc is a pair-wise comparison function Fp(g1, g2) in [0, 1]; plug
// custom measures into an Analysis with SetMeasure.
type PairFunc = mining.PairFunc

// ValueSimilarity scores two attribute value strings in [0, 1] for
// domain-aware structural comparison.
type ValueSimilarity = mining.ValueSimilarity

// Constraint handling modes for the approximate algorithms.
const (
	// Filter post-processes candidates for constraint satisfiability.
	Filter = core.Filter
	// Fold folds constraints into the search itself.
	Fold = core.Fold
)

// NewSchema creates an attribute schema.
func NewSchema(names ...string) *Schema { return model.NewSchema(names...) }

// NewDataset creates an empty dataset over the two schemas.
func NewDataset(userSchema, itemSchema *Schema) *Dataset {
	return model.NewDataset(userSchema, itemSchema)
}

// Problem returns Table 1's problem instance id (1..6): at most k groups,
// support >= p, user threshold q, item threshold r, optimizing the tag
// dimension.
func Problem(id, k, p int, q, r float64) (ProblemSpec, error) {
	return core.PaperProblem(id, k, p, q, r)
}

// AllProblems enumerates the framework's distinct optimizable problem
// instances (see core.AllRoles).
func AllProblems() []ProblemSpec { return core.AllRoles() }

// SignatureMethod selects how group tag signatures are produced.
type SignatureMethod uint8

// Available signature methods.
const (
	// SignatureLDA uses an LDA topic model (the paper's configuration).
	SignatureLDA SignatureMethod = iota
	// SignatureTFIDF uses tf-idf weights over the tag vocabulary.
	SignatureTFIDF
	// SignatureFrequency uses raw tag frequencies.
	SignatureFrequency
)

// Options configures NewAnalysis.
type Options struct {
	// MinGroupTuples drops groups smaller than this (default 5, as in the
	// paper).
	MinGroupTuples int
	// Signatures selects the summarization method (default SignatureLDA).
	Signatures SignatureMethod
	// CustomSummarizer overrides Signatures with a caller-provided
	// implementation when non-nil.
	CustomSummarizer Summarizer
	// Topics is the LDA topic count (default 25).
	Topics int
	// LDAIterations is the Gibbs sweep count (default 150).
	LDAIterations int
	// Within restricts the analysis to tagging actions matching this
	// conjunctive attribute filter (e.g. {"gender": "male"}), mirroring
	// the paper's query-scoped analyses. Nil analyzes everything.
	Within map[string]string
	// Seed drives LDA training and LSH hyperplanes.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MinGroupTuples == 0 {
		o.MinGroupTuples = 5
	}
	if o.Topics == 0 {
		o.Topics = 25
	}
	if o.LDAIterations == 0 {
		o.LDAIterations = 150
	}
	return o
}

// Analysis is a prepared TagDM pipeline over one dataset: store, groups,
// signatures, and engine.
type Analysis struct {
	opts    Options
	store   *store.Store
	groups  []*groups.Group
	sigs    []signature.Signature
	engine  *core.Engine
	scopedN int // tagging actions within the Options.Within scope
}

// NewAnalysis builds the pipeline: columnar store, describable group
// enumeration, tag signatures, and the mining engine.
func NewAnalysis(ds *Dataset, opts Options) (*Analysis, error) {
	opts = opts.withDefaults()
	s, err := store.New(ds)
	if err != nil {
		return nil, err
	}
	var within *store.Bitmap
	if len(opts.Within) > 0 {
		pred, err := s.ParsePredicate(opts.Within)
		if err != nil {
			return nil, err
		}
		within = s.Eval(pred)
		if within.Count() == 0 {
			return nil, fmt.Errorf("tagdm: filter %v matches no tagging actions", opts.Within)
		}
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: opts.MinGroupTuples, Within: within}).FullyDescribed()
	if len(gs) == 0 {
		return nil, fmt.Errorf("tagdm: no describable groups with >= %d tagging actions", opts.MinGroupTuples)
	}
	sum := opts.CustomSummarizer
	if sum == nil {
		switch opts.Signatures {
		case SignatureFrequency:
			sum = signature.NewFrequency(s)
		case SignatureTFIDF:
			sum = signature.FitTFIDF(s, gs)
		default:
			lda, err := signature.TrainLDA(s, gs, opts.Topics, opts.LDAIterations, opts.Seed)
			if err != nil {
				return nil, err
			}
			sum = lda
		}
	}
	sigs := signature.SummarizeAll(sum, s, gs)
	eng, err := core.NewEngine(s, gs, sigs)
	if err != nil {
		return nil, err
	}
	scopedN := s.Len()
	if within != nil {
		scopedN = within.Count()
	}
	return &Analysis{opts: opts, store: s, groups: gs, sigs: sigs, engine: eng, scopedN: scopedN}, nil
}

// NumGroups is the number of describable groups under analysis.
func (a *Analysis) NumGroups() int { return len(a.groups) }

// NumActions is the number of tagging action tuples under analysis: the
// whole store, or the subset matching Options.Within when a scope was set.
func (a *Analysis) NumActions() int { return a.scopedN }

// Solve dispatches the spec to the right approximate algorithm family
// (SM-LSH for similarity objectives, DV-FDP otherwise), with Fold
// constraint handling and default parameters.
func (a *Analysis) Solve(spec ProblemSpec) (Result, error) {
	return a.SolveContext(context.Background(), spec)
}

// SolveContext is Solve with an explicit context: cancellation (or a
// deadline) stops the solver at its next checkpoint, and an obs trace
// span carried by the context collects per-stage child spans.
func (a *Analysis) SolveContext(ctx context.Context, spec ProblemSpec) (Result, error) {
	return a.engine.Solve(ctx, spec, core.SolveOptions{
		LSH: core.LSHOptions{Seed: a.opts.Seed, Mode: core.Fold},
		FDP: core.FDPOptions{Mode: core.Fold},
	})
}

// Exact runs the brute-force baseline. It errors when the candidate space
// exceeds the (optional) cap; restrict the analysis or lower KHi first.
func (a *Analysis) Exact(spec ProblemSpec, opts ExactOptions) (Result, error) {
	return a.ExactContext(context.Background(), spec, opts)
}

// ExactContext is Exact with an explicit context; the enumeration polls
// cancellation every few thousand candidates, so a deadline bounds the
// exponential baseline's work.
func (a *Analysis) ExactContext(ctx context.Context, spec ProblemSpec, opts ExactOptions) (Result, error) {
	return a.engine.Exact(ctx, spec, opts)
}

// SMLSH runs the LSH-based similarity maximizer with explicit options.
func (a *Analysis) SMLSH(spec ProblemSpec, opts LSHOptions) (Result, error) {
	return a.engine.SMLSH(context.Background(), spec, opts)
}

// DVFDP runs the dispersion-based optimizer with explicit options.
func (a *Analysis) DVFDP(spec ProblemSpec, opts FDPOptions) (Result, error) {
	return a.engine.DVFDP(context.Background(), spec, opts)
}

// Describe renders a result's groups through the dataset dictionaries.
func (a *Analysis) Describe(res Result) []string { return res.Describe(a.store) }

// SetMeasure overrides the concrete pair-wise measure for one
// (dimension, measure) binding, replacing the defaults (structural overlap
// for users/items, signature cosine for tags). The paper stresses that no
// particular measure is mandated; this is the extension point.
func (a *Analysis) SetMeasure(dim Dimension, meas Measure, f PairFunc) {
	a.engine.SetPairFunc(dim, meas, f)
}

// RatingAwareItemSimilarity builds the refined set-distance measure of
// Section 2.1.1 for this analysis: two groups' common items only count
// when their average ratings differ by at most tolerance. Install it with
// SetMeasure(DimItems, MeasureSimilarity, f).
func (a *Analysis) RatingAwareItemSimilarity(tolerance float64) PairFunc {
	return mining.RatingAwareJaccardItems(a.store, a.groups, tolerance)
}

// DomainAwareUserSimilarity builds a structural user measure that compares
// attribute values with valueSim instead of strict equality (e.g.
// mining-style edit distance, or an explicit domain table).
func (a *Analysis) DomainAwareUserSimilarity(valueSim ValueSimilarity) PairFunc {
	return mining.DomainAwareStructural(a.store, store.SideUser, valueSim)
}

// DomainAwareItemSimilarity is the item-side counterpart of
// DomainAwareUserSimilarity.
func (a *Analysis) DomainAwareItemSimilarity(valueSim ValueSimilarity) PairFunc {
	return mining.DomainAwareStructural(a.store, store.SideItem, valueSim)
}

// Suggestion is one recommended tag with its evidence.
type Suggestion = recommend.Suggestion

// Recommender builds a group-based tag recommender over the dataset the
// analysis was constructed from — the kind of "subsequent action" the
// paper motivates its analysis with. Suggest returns tags a (user, item)
// pair's peer group uses, backing off to item-profile peers and finally
// the global distribution.
func (a *Analysis) Recommender(ds *Dataset) *TagRecommender {
	return &TagRecommender{
		ds:    ds,
		inner: recommend.New(a.store, a.groups, ds.TagFrequencies()),
	}
}

// TagRecommender suggests tags for (user, item) pairs.
type TagRecommender struct {
	ds    *Dataset
	inner *recommend.Recommender
}

// Suggest returns up to n tag suggestions for the given user and item ids.
func (r *TagRecommender) Suggest(user, item int32, n int) ([]Suggestion, error) {
	if user < 0 || int(user) >= len(r.ds.Users) {
		return nil, fmt.Errorf("tagdm: unknown user %d", user)
	}
	if item < 0 || int(item) >= len(r.ds.Items) {
		return nil, fmt.Errorf("tagdm: unknown item %d", item)
	}
	return r.inner.Suggest(r.ds.Users[user].Attrs, r.ds.Items[item].Attrs, n), nil
}

// GroupCloud returns the rendered frequency tag cloud of the i-th group of
// a result (topN most frequent tags).
func (a *Analysis) GroupCloud(res Result, i, topN int) string {
	if i < 0 || i >= len(res.Groups) {
		return ""
	}
	return signature.RenderCloud(signature.Cloud(a.store, res.Groups[i], topN))
}

// Cloud returns the rendered frequency tag cloud of all tagging actions
// matching the conjunctive filter, as in the paper's Figures 1-2.
func (a *Analysis) Cloud(conds map[string]string, topN int) (string, error) {
	pred, err := a.store.ParsePredicate(conds)
	if err != nil {
		return "", err
	}
	bm := a.store.Eval(pred)
	g := &groups.Group{Pred: pred, Tuples: bm, Members: bm.Slice()}
	return signature.RenderCloud(signature.Cloud(a.store, g, topN)), nil
}

// GenerateConfig re-exports the synthetic data generator configuration.
type GenerateConfig = datagen.Config

// DefaultGenerateConfig mirrors the paper's dataset scale.
func DefaultGenerateConfig() GenerateConfig { return datagen.Default() }

// SmallGenerateConfig is a fast configuration for demos and tests.
func SmallGenerateConfig() GenerateConfig { return datagen.Small() }

// GenerateDataset synthesizes a MovieLens-like tagging dataset (see
// internal/datagen for the latent structure).
func GenerateDataset(cfg GenerateConfig) (*Dataset, error) {
	w, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return w.Dataset, nil
}

// ReadDatasetJSON loads a dataset written by Dataset.WriteJSON.
func ReadDatasetJSON(r io.Reader) (*Dataset, error) { return model.ReadJSON(r) }

// ParseQuery compiles a TagDM query string, e.g.
//
//	ANALYZE PROBLEM 3 WHERE genre=drama WITH k=3, support=1%
//	ANALYZE MAXIMIZE diversity(tags) SUBJECT TO similarity(users) >= 0.5
//
// without executing it. Use RunQuery to parse and execute in one step.
func ParseQuery(q string) (*QueryRequest, error) { return query.Parse(q) }

// QueryRequest is a parsed analysis query.
type QueryRequest = query.Request

// RunQuery parses and executes a query over the dataset: the WHERE clause
// scopes the analysis (merged into opts.Within, query values win), the
// problem or MAXIMIZE clause becomes the spec, and the default approximate
// algorithm family solves it. It returns the scoped analysis alongside the
// result so callers can render group descriptions and clouds.
func RunQuery(ds *Dataset, q string, opts Options) (*Analysis, Result, error) {
	req, err := query.Parse(q)
	if err != nil {
		return nil, Result{}, err
	}
	if len(req.Where) > 0 {
		merged := make(map[string]string, len(opts.Within)+len(req.Where))
		for k, v := range opts.Within {
			merged[k] = v
		}
		for k, v := range req.Where {
			merged[k] = v
		}
		opts.Within = merged
	}
	a, err := NewAnalysis(ds, opts)
	if err != nil {
		return nil, Result{}, err
	}
	spec, err := req.Resolve(a.NumActions())
	if err != nil {
		return nil, Result{}, err
	}
	res, err := a.Solve(spec)
	if err != nil {
		return nil, Result{}, err
	}
	return a, res, nil
}
