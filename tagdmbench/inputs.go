package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"tagdm/internal/datagen"
	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/store"
)

// Everything a workload sends is derived from --seed here: the corpus the
// server loads, the ANALYZE statement stream and the ingest stream. The
// program under test only ever sees these generated inputs.

// smallCorpus is the repository's small generated corpus (~110 groups).
func smallCorpus(seed int64) datagen.Config {
	c := datagen.Small()
	c.Seed = seed
	return c
}

// writeCorpus generates the corpus and writes it as dataset JSON for the
// server's -data flag.
func writeCorpus(cfg datagen.Config, path string) (*model.Dataset, error) {
	w, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := w.Dataset.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return w.Dataset, nil
}

// statementSpace enumerates distinct ANALYZE statements: problems × k ×
// support × q × r (1,125 unscoped statements), plus problems × k over each
// WHERE filter of scopeFilters. Statements are
// listed in popularity-rank order with the problem varying fastest, so
// every stretch of the Zipf head mixes the problems the same way whatever
// the seed. Diversity problems 4-6 appear for every parameter combination
// and similarity problems 1-3 for every other one: two thirds of the
// statements are DV-FDP solves and one third SM-LSH, so the median falls
// inside one family's cost range instead of in the gap between the two.
func statementSpace(ds *model.Dataset) (unscopedStmts, scopedStmts []string, err error) {
	ks := []int{3, 2}
	supports := []string{"1%", "2%", "0.5%", "1.5%", "3%"}
	thresholds := []string{"0.5", "0.4", "0.6", "0.3", "0.7"}
	combo := 0
	for _, q := range thresholds {
		for _, r := range thresholds {
			for _, sup := range supports {
				for _, k := range ks {
					for p := 1; p <= 6; p++ {
						if p <= 3 && combo%2 == 1 {
							continue
						}
						unscopedStmts = append(unscopedStmts, fmt.Sprintf(
							"ANALYZE PROBLEM %d WITH k=%d, support=%s, q=%s, r=%s", p, k, sup, q, r))
					}
					combo++
				}
			}
		}
	}
	filters, err := scopeFilters(ds)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range filters {
		for _, k := range []int{3, 2} {
			for p := 1; p <= 6; p++ {
				scopedStmts = append(scopedStmts, fmt.Sprintf(
					"ANALYZE PROBLEM %d WHERE %s WITH k=%d, support=1%%", p, f, k))
			}
		}
	}
	return unscopedStmts, scopedStmts, nil
}

// scopeFilters lists an `attr='value'` filter for every value of every
// user and item attribute in the corpus, broad ones such as a gender
// included, in name order. It leaves out only the values whose scope holds
// no group of at least serverMinTuples actions: the server refuses those
// with 422, and ingest (copies of corpus actions) never empties a scope.
func scopeFilters(ds *model.Dataset) ([]string, error) {
	st, err := store.New(ds)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, schema := range []*model.Schema{ds.UserSchema, ds.ItemSchema} {
		for i := 0; i < schema.Len(); i++ {
			attr := schema.Attr(i)
			for _, value := range attr.Values() {
				if strings.Contains(value, "'") {
					continue // not expressible as a quoted WHERE value
				}
				pred, err := st.ParsePredicate(map[string]string{attr.Name: value})
				if err != nil {
					return nil, err
				}
				bm := st.Eval(pred)
				if bm.Count() == 0 || len((&groups.Enumerator{Store: st, MinTuples: serverMinTuples, Within: bm}).FullyDescribed()) == 0 {
					continue
				}
				out = append(out, fmt.Sprintf("%s='%s'", attr.Name, value))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// op is one request of a workload's stream.
type op struct {
	ingest bool
	// stmt indexes the statement list for analyze ops.
	stmt int
	// traced asks the server for the request's span tree.
	traced bool
	body   []byte
}

// streamConfig shapes a workload's request mix.
type streamConfig struct {
	ingestShare float64
	scopedShare float64
	// zipfS is the Zipf exponent of unscoped statement popularity.
	zipfS float64
}

// opStream draws n ops: each is an ingest (a copy of a random corpus
// action, so every reference is valid) with probability ingestShare,
// otherwise an ANALYZE, which with probability scopedShare is a scoped
// statement drawn uniformly, so every attribute value is as likely a scope
// as any other, and otherwise an unscoped one drawn by Zipf popularity.
// traceShare of analyzes ask for their span tree. stmts is the combined
// statement list the op indexes refer to.
func opStream(ds *model.Dataset, rng *rand.Rand, cfg streamConfig, unscoped, scoped []string, n int, traceShare float64) (ops []op, stmts []string) {
	stmts = append(append(stmts, unscoped...), scoped...)
	zu := rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(unscoped)-1))
	ops = make([]op, n)
	for i := range ops {
		if rng.Float64() < cfg.ingestShare {
			a := ds.Actions[rng.Intn(len(ds.Actions))]
			ops[i] = op{ingest: true, body: ingestBody(ds, a)}
			continue
		}
		stmt := int(zu.Uint64())
		if rng.Float64() < cfg.scopedShare {
			stmt = len(unscoped) + rng.Intn(len(scoped))
		}
		traced := rng.Float64() < traceShare
		body, _ := json.Marshal(struct {
			Query string `json:"query"`
			Trace bool   `json:"trace,omitempty"`
		}{stmts[stmt], traced})
		ops[i] = op{stmt: stmt, traced: traced, body: body}
	}
	return ops, stmts
}

type ingestAction struct {
	User   int32    `json:"user"`
	Item   int32    `json:"item"`
	Rating float64  `json:"rating,omitempty"`
	Tags   []string `json:"tags"`
}

func ingestBody(ds *model.Dataset, a model.TaggingAction) []byte {
	act := ingestAction{User: a.User, Item: a.Item, Rating: a.Rating}
	for _, t := range a.Tags {
		act.Tags = append(act.Tags, ds.Vocab.Tag(t))
	}
	body, _ := json.Marshal(struct {
		Actions []ingestAction `json:"actions"`
	}{[]ingestAction{act}})
	return body
}
