package tagdm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"tagdm/internal/core"
	"tagdm/internal/groups"
	"tagdm/internal/model"
	"tagdm/internal/signature"
	"tagdm/internal/store"
	"tagdm/internal/wal"
)

// Analysis persistence: Save captures everything needed to answer queries
// — the dataset and the computed group signatures — so an analysis whose
// construction cost minutes (LDA training dominates) reloads in
// milliseconds. The group universe is re-derived from the dataset on load
// (enumeration is cheap and deterministic), and the saved signatures are
// validated against it.
//
// On-disk format (v2): the gob payload is wrapped in the self-validating
// envelope shared with the server's checkpoints —
// [8-byte magic][u64 payload length][u32 crc32c][payload] — so Load
// distinguishes truncation, corruption, and wrong-file errors instead of
// surfacing a cryptic gob failure mid-decode. Files written by pre-v2
// builds (bare gob, no envelope) are rejected with a bad-magic error.

// analysisMagic identifies a v2 analysis snapshot (8 bytes, as the
// envelope requires).
const analysisMagic = "tagdman2"

type analysisSnapshot struct {
	// FormatVersion versions the payload schema within the v2 envelope.
	FormatVersion  int
	MinGroupTuples int
	Topics         int
	Seed           int64
	Within         map[string]string
	DatasetJSON    []byte
	Sigs           [][]float64 // dense rows: Signature.Dense, back by FromDense
}

const analysisFormatVersion = 2

// Save writes the analysis (dataset + signatures + options) to w.
func (a *Analysis) Save(w io.Writer) error {
	var ds bytes.Buffer
	if err := a.datasetOf().WriteJSON(&ds); err != nil {
		return fmt.Errorf("tagdm: serializing dataset: %w", err)
	}
	snap := analysisSnapshot{
		FormatVersion:  analysisFormatVersion,
		MinGroupTuples: a.opts.MinGroupTuples,
		Topics:         a.opts.Topics,
		Seed:           a.opts.Seed,
		Within:         a.opts.Within,
		DatasetJSON:    ds.Bytes(),
		Sigs:           make([][]float64, len(a.sigs)),
	}
	for i, s := range a.sigs {
		snap.Sigs[i] = s.Dense()
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("tagdm: encoding analysis: %w", err)
	}
	if _, err := w.Write(wal.EncodeEnvelope(analysisMagic, payload.Bytes())); err != nil {
		return fmt.Errorf("tagdm: writing analysis: %w", err)
	}
	return nil
}

// datasetOf reconstructs a Dataset view of the store's contents. The store
// was built by denormalizing a dataset, so this inverts that step; user
// and item tables are reconstructed from the store's schemas and tuple
// payloads.
func (a *Analysis) datasetOf() *Dataset {
	// The store does not retain the original user/item tables, so rebuild
	// them from the expanded tuples: every (user id, attrs) pair seen in
	// a tuple is a user row. Users or items with no tagging actions are
	// not representable in the expanded form, which is fine for replaying
	// queries (they cannot appear in any group).
	ds := NewDataset(a.store.UserSchema, a.store.ItemSchema)
	ds.Vocab = a.store.Vocab
	seenU := map[int32]int32{}
	seenI := map[int32]int32{}
	cols := a.store.Columns()
	for t := 0; t < a.store.Len(); t++ {
		uid := a.store.TupleUser(t)
		if _, ok := seenU[uid]; !ok {
			attrs := make([]ValueCode, 0, a.store.UserSchema.Len())
			for _, c := range cols {
				if c.Side == store.SideUser {
					attrs = append(attrs, a.store.Value(t, c))
				}
			}
			for int32(len(ds.Users)) <= uid {
				ds.Users = append(ds.Users, model.User{
					ID:    int32(len(ds.Users)),
					Attrs: make([]ValueCode, a.store.UserSchema.Len()),
				})
			}
			ds.Users[uid].Attrs = attrs
			seenU[uid] = uid
		}
		iid := a.store.TupleItem(t)
		if _, ok := seenI[iid]; !ok {
			attrs := make([]ValueCode, 0, a.store.ItemSchema.Len())
			for _, c := range cols {
				if c.Side == store.SideItem {
					attrs = append(attrs, a.store.Value(t, c))
				}
			}
			for int32(len(ds.Items)) <= iid {
				ds.Items = append(ds.Items, model.Item{
					ID:    int32(len(ds.Items)),
					Attrs: make([]ValueCode, a.store.ItemSchema.Len()),
				})
			}
			ds.Items[iid].Attrs = attrs
			seenI[iid] = iid
		}
		ds.Actions = append(ds.Actions, TaggingAction{
			User:   uid,
			Item:   iid,
			Tags:   a.store.TupleTags(t),
			Rating: a.store.TupleRating(t),
		})
	}
	return ds
}

// LoadAnalysis restores an analysis written by Save. Signatures are reused
// as saved, so the expensive summarization (LDA) is skipped entirely.
// Truncated or corrupt input is rejected up front by the envelope's length
// and checksum, with an error naming the failure mode.
func LoadAnalysis(r io.Reader) (*Analysis, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tagdm: reading analysis snapshot: %w", err)
	}
	payload, err := wal.DecodeEnvelope(analysisMagic, data)
	if err != nil {
		return nil, fmt.Errorf("tagdm: invalid analysis snapshot: %w", err)
	}
	var snap analysisSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("tagdm: decoding analysis: %w", err)
	}
	if snap.FormatVersion != analysisFormatVersion {
		return nil, fmt.Errorf("tagdm: analysis snapshot format version %d, want %d",
			snap.FormatVersion, analysisFormatVersion)
	}
	ds, err := ReadDatasetJSON(bytes.NewReader(snap.DatasetJSON))
	if err != nil {
		return nil, fmt.Errorf("tagdm: restoring dataset: %w", err)
	}
	s, err := store.New(ds)
	if err != nil {
		return nil, err
	}
	var within *store.Bitmap
	if len(snap.Within) > 0 {
		pred, err := s.ParsePredicate(snap.Within)
		if err != nil {
			return nil, err
		}
		within = s.Eval(pred)
	}
	gs := (&groups.Enumerator{Store: s, MinTuples: snap.MinGroupTuples, Within: within}).FullyDescribed()
	if len(gs) != len(snap.Sigs) {
		return nil, fmt.Errorf("tagdm: snapshot has %d signatures but enumeration yields %d groups",
			len(snap.Sigs), len(gs))
	}
	sigs := make([]signature.Signature, len(gs))
	for i, w := range snap.Sigs {
		sigs[i] = signature.FromDense(w)
	}
	eng, err := core.NewEngine(s, gs, sigs)
	if err != nil {
		return nil, err
	}
	scopedN := s.Len()
	if within != nil {
		scopedN = within.Count()
	}
	return &Analysis{
		opts: Options{
			MinGroupTuples: snap.MinGroupTuples,
			Topics:         snap.Topics,
			Seed:           snap.Seed,
			Within:         snap.Within,
		},
		store:   s,
		groups:  gs,
		sigs:    sigs,
		engine:  eng,
		scopedN: scopedN,
	}, nil
}
