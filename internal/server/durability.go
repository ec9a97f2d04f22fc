package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tagdm/internal/incremental"
	"tagdm/internal/model"
	"tagdm/internal/obs"
	"tagdm/internal/signature"
	"tagdm/internal/wal"
)

// Durability layer. With Config.DataDir set, the server's state machine is
//
//	boot      = load newest valid checkpoint + replay the WAL tail
//	ingest    = apply batch in memory, append it to the WAL, ack after the
//	            group commit is durable, only then publish a snapshot
//	checkpoint = capture the maintainer under the write lock, sync the WAL,
//	            write the checkpoint file atomically, rotate and prune
//
// A checkpoint file checkpoint-<seq>.ckpt persists everything needed to
// rebuild the maintainer byte-identically: the dataset rendered in the
// model JSON format (which pins every dictionary code assignment), the
// active-group keys in ID order (solver tie-breaking depends on group ID
// order, which follows activation order, not enumeration order), the
// signature fold width frozen at first boot, and the WAL sequence the
// checkpoint covers. <seq> is that covered sequence. The newest two
// checkpoints are kept so a crash torn mid-checkpoint falls back to the
// previous one; replay then verifies WAL continuity and fails loudly if
// the tail it needs was already pruned, rather than silently losing
// acknowledged records.

const (
	ckptMagic       = "tagdmck1"
	ckptPrefix      = "checkpoint-"
	ckptSuffix      = ".ckpt"
	keepCheckpoints = 2
)

// checkpointBody is the gob payload inside the checkpoint envelope.
type checkpointBody struct {
	// Epoch is the maintainer version at capture; recovery resumes from it
	// so epochs survive restarts.
	Epoch int64
	// WALSeq is the last WAL sequence whose effects the checkpoint
	// contains; replay starts after it.
	WALSeq uint64
	// MinGroupTuples pins the activation threshold; restoring under a
	// different threshold would invalidate ActiveKeys.
	MinGroupTuples int
	// SigSize is the frequency-summarizer fold width fixed at first boot
	// (the vocabulary size then). Signatures fold grown vocabularies into
	// this width, so recovery must reuse it for identical solver answers.
	SigSize int
	// ActiveKeys are the active groups' full-assignment keys in ID order.
	ActiveKeys []string
	// DatasetJSON is the dataset in model JSON format: schemas, dictionary
	// code assignments, users, items and every action in insert order.
	DatasetJSON []byte
	// Actions double-checks DatasetJSON decoded to the captured length.
	Actions int
}

// durability bundles the handles of a durable server.
type durability struct {
	dir string
	fs  wal.FS
	log *wal.Log
}

// RecoveryInfo describes what a durable boot found on disk; surfaced in
// /v1/stats.
type RecoveryInfo struct {
	// Recovered is true when state came from a checkpoint (not first boot).
	Recovered bool `json:"recovered"`
	// CheckpointSeq is the WAL sequence the loaded checkpoint covered.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointEpoch is the epoch the loaded checkpoint resumed from.
	CheckpointEpoch int64 `json:"checkpoint_epoch"`
	// ReplayedRecords / ReplayedActions count the WAL tail replayed on top.
	ReplayedRecords int `json:"replayed_records"`
	ReplayedActions int `json:"replayed_actions"`
	// TornTailBytes is how many bytes of torn (unacknowledged) tail the WAL
	// truncated during open.
	TornTailBytes int64 `json:"torn_tail_bytes"`
}

// degraded is the sticky read-only state entered on a disk failure.
type degraded struct {
	reason string
	at     time.Time
}

// degrade latches read-only mode on the first disk failure. Ingest and
// refresh return 503 from then on; analyze keeps serving the last published
// snapshot (which by construction only ever contained durably acknowledged
// data, because publication happens after the WAL ack). The context is the
// operation that tripped the failure: the access-log line carries its
// request ID, so the degradation can be traced to the request that hit it.
func (s *Server) degrade(ctx context.Context, op string, err error) {
	d := &degraded{reason: fmt.Sprintf("%s: %v", op, err), at: time.Now()}
	if s.degradedP.CompareAndSwap(nil, d) {
		s.metrics.degradations.Inc()
		if s.cfg.AccessLog != nil {
			attrs := []slog.Attr{slog.String("reason", d.reason)}
			if id := obs.RequestIDFrom(ctx); id != "" {
				attrs = append(attrs, slog.String("request_id", id))
			}
			s.cfg.AccessLog.LogAttrs(ctx, slog.LevelError, "entering read-only mode", attrs...)
		}
	}
}

// degradedReason reports the sticky read-only state.
func (s *Server) degradedReason() (string, bool) {
	if d := s.degradedP.Load(); d != nil {
		return d.reason, true
	}
	return "", false
}

// checkDurable latches failures the WAL hit outside a request (interval
// fsync ticker, background flush). Cheap; called from ingest and healthz
// with the request context, which degrade threads into the access log.
func (s *Server) checkDurable(ctx context.Context) {
	if s.dur == nil {
		return
	}
	if err := s.dur.log.Err(); err != nil {
		s.degrade(ctx, "wal", err)
	}
}

// openDurable initializes s.ds/s.maint/s.sigSize from the data dir (or the
// seed dataset on first boot), opens the WAL, replays its tail, and writes
// the initial checkpoint on first boot. Called from New before the server
// is shared, so no locking.
func (s *Server) openDurable(root *obs.Span) error {
	cfg := s.cfg
	fs := cfg.WALFS
	if fs == nil {
		fs = wal.OSFS{}
	}
	if err := fs.MkdirAll(cfg.DataDir); err != nil {
		return fmt.Errorf("server: creating data dir: %w", err)
	}

	loadSpan := root.StartChild("load_checkpoint")
	ckpt, err := loadLatestCheckpoint(fs, cfg.DataDir)
	loadSpan.End()
	if err != nil {
		return err
	}
	var fromSeq uint64
	if ckpt != nil {
		if ckpt.MinGroupTuples != cfg.MinGroupTuples {
			return fmt.Errorf("server: checkpoint was written with min-group-tuples=%d, config says %d; "+
				"changing the threshold invalidates the persisted group universe", ckpt.MinGroupTuples, cfg.MinGroupTuples)
		}
		ds, err := model.ReadJSON(bytes.NewReader(ckpt.DatasetJSON))
		if err != nil {
			return fmt.Errorf("server: decoding checkpoint dataset: %w", err)
		}
		if len(ds.Actions) != ckpt.Actions {
			return fmt.Errorf("server: checkpoint dataset has %d actions, header says %d", len(ds.Actions), ckpt.Actions)
		}
		maint, err := incremental.Restore(ds, ckpt.MinGroupTuples,
			signature.FrequencyOfSize(ckpt.SigSize), ckpt.ActiveKeys, ckpt.Epoch)
		if err != nil {
			return fmt.Errorf("server: restoring from checkpoint: %w", err)
		}
		s.ds, s.maint, s.sigSize = ds, maint, ckpt.SigSize
		fromSeq = ckpt.WALSeq
		s.recovery.Recovered = true
		s.recovery.CheckpointSeq = ckpt.WALSeq
		s.recovery.CheckpointEpoch = ckpt.Epoch
	} else {
		if cfg.Dataset == nil {
			return fmt.Errorf("server: no checkpoint in %s and no Config.Dataset to seed from", cfg.DataDir)
		}
		sum := signature.FrequencyOfSize(cfg.Dataset.Vocab.Size())
		maint, err := incremental.New(cfg.Dataset, cfg.MinGroupTuples, sum)
		if err != nil {
			return err
		}
		s.ds, s.maint, s.sigSize = cfg.Dataset, maint, cfg.Dataset.Vocab.Size()
	}

	openSpan := root.StartChild("wal_open")
	log, err := wal.Open(cfg.DataDir, wal.Options{
		Sync: cfg.FsyncMode,
		FS:   fs,
		OnSync: func(d time.Duration, err error) {
			s.metrics.walFsyncSeconds.Observe(d.Seconds())
		},
	})
	openSpan.End()
	if err != nil {
		return err
	}
	s.dur = &durability{dir: cfg.DataDir, fs: fs, log: log}
	s.recovery.TornTailBytes = log.Recovery().TornBytes
	s.ckptLastSeq.Store(fromSeq)
	s.ckptLastEpoch.Store(s.recovery.CheckpointEpoch)

	// Replay the tail through the identical validate+apply path ingest
	// uses, verifying sequence continuity: a gap means acknowledged records
	// were lost (e.g. a pruned segment under a corrupt checkpoint), which
	// must fail the boot, not silently diverge.
	replaySpan := root.StartChild("replay")
	expect := fromSeq + 1
	err = log.Replay(fromSeq, func(seq uint64, payload []byte) error {
		if seq != expect {
			return fmt.Errorf("server: WAL gap: next record is seq %d, want %d — "+
				"acknowledged records are missing, refusing to recover", seq, expect)
		}
		expect++
		var req IngestRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return fmt.Errorf("server: decoding WAL record %d: %w", seq, err)
		}
		if err := s.validateBatchLocked(req.Actions); err != nil {
			return fmt.Errorf("server: WAL record %d does not apply: %w", seq, err)
		}
		var resp IngestResponse
		if err := s.applyBatchLocked(req.Actions, &resp); err != nil {
			return fmt.Errorf("server: WAL record %d failed to apply: %w", seq, err)
		}
		s.recovery.ReplayedRecords++
		s.recovery.ReplayedActions += resp.Inserted
		return nil
	})
	replaySpan.End()
	if err != nil {
		//tagdm:allow-discard boot already failing; the replay error is the one worth surfacing
		log.Close()
		s.dur = nil
		return err
	}

	// First boot: checkpoint the seed immediately so every subsequent boot
	// is uniformly "checkpoint + tail", and so the server can boot from the
	// data dir alone (no corpus flags).
	if ckpt == nil {
		//tagdm:nolint ctxflow -- boot path: no request context exists before the server is up
		if err := s.Checkpoint(context.Background()); err != nil {
			//tagdm:allow-discard boot already failing; the checkpoint error is the one worth surfacing
			log.Close()
			s.dur = nil
			return fmt.Errorf("server: writing initial checkpoint: %w", err)
		}
	}
	return nil
}

// Checkpoint captures the maintainer state, makes the WAL durable up to the
// covered sequence, writes the checkpoint file atomically and prunes WAL
// segments and old checkpoints it supersedes. Safe to call concurrently
// with ingest: the capture holds the write lock only for the in-memory
// serialization; all disk I/O happens outside it. The context identifies
// the caller in degradation log lines; the checkpoint itself is not
// interruptible (a half-applied checkpoint would be worse than a slow one).
func (s *Server) Checkpoint(ctx context.Context) error {
	if s.dur == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if reason, ok := s.degradedReason(); ok {
		return fmt.Errorf("server: read-only (%s), not checkpointing", reason)
	}
	start := time.Now()

	s.mu.Lock()
	covered := s.dur.log.NextSeq() - 1
	body := checkpointBody{
		Epoch:          s.maint.Version(),
		WALSeq:         covered,
		MinGroupTuples: s.cfg.MinGroupTuples,
		SigSize:        s.sigSize,
		ActiveKeys:     s.maint.ActiveKeys(),
		Actions:        s.maint.Store().Len(),
	}
	datasetJSON, err := s.encodeDatasetLocked()
	// Reset the progress counter at capture so actions ingested during the
	// checkpoint count toward the next one; if the checkpoint fails before
	// its file is durable, add the saved count back so the next automatic
	// checkpoint is not deferred by a full CheckpointEvery window.
	savedProgress := s.sinceCkpt
	s.sinceCkpt = 0
	s.mu.Unlock()
	restoreProgress := func() {
		s.mu.Lock()
		s.sinceCkpt += savedProgress
		s.mu.Unlock()
	}
	if err != nil {
		restoreProgress()
		s.metrics.checkpointErrors.Inc()
		return fmt.Errorf("server: serializing dataset for checkpoint: %w", err)
	}
	body.DatasetJSON = datasetJSON

	// Everything the checkpoint covers must be durable before the
	// checkpoint claims coverage.
	if err := s.dur.log.Sync(); err != nil {
		restoreProgress()
		s.metrics.checkpointErrors.Inc()
		s.degrade(ctx, "wal sync for checkpoint", err)
		return err
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(body); err != nil {
		restoreProgress()
		s.metrics.checkpointErrors.Inc()
		return fmt.Errorf("server: encoding checkpoint: %w", err)
	}
	if err := writeFileAtomic(s.dur.fs, s.dur.dir, ckptName(covered),
		wal.EncodeEnvelope(ckptMagic, payload.Bytes())); err != nil {
		restoreProgress()
		s.metrics.checkpointErrors.Inc()
		s.degrade(ctx, "checkpoint write", err)
		return err
	}

	// The checkpoint is durable; everything before it is dead weight.
	if err := s.dur.log.Rotate(); err != nil {
		s.metrics.checkpointErrors.Inc()
		s.degrade(ctx, "wal rotate", err)
		return err
	}
	//tagdm:allow-discard best effort; replay skips covered segments anyway
	_ = s.dur.log.RemoveBefore(covered)
	s.pruneCheckpoints()

	s.ckptLastSeq.Store(covered)
	s.ckptLastEpoch.Store(body.Epoch)
	s.metrics.checkpoints.Inc()
	s.metrics.checkpointTime.Observe(time.Since(start).Seconds())
	return nil
}

// maybeCheckpointAsync starts a background checkpoint when enough actions
// accumulated since the last one. At most one checkpoint runs at a time;
// extra triggers are dropped (the next batch re-triggers).
func (s *Server) maybeCheckpointAsync() {
	if s.dur == nil || s.cfg.CheckpointEvery <= 0 {
		return
	}
	s.mu.Lock()
	due := s.sinceCkpt >= s.cfg.CheckpointEvery
	s.mu.Unlock()
	if !due || !s.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.ckptRunning.Store(false)
		//tagdm:nolint ctxflow -- detached by design: the checkpoint outlives the request that triggered it
		_ = s.Checkpoint(context.Background()) //tagdm:allow-discard errors latch degraded mode and surface via /healthz
	}()
}

// encodeDatasetLocked renders the current corpus in the model JSON format.
// The maintainer's store — not Dataset.Actions — is the source of truth for
// actions (Insert grows the store only), so actions are read back out of it
// in insert order. Dictionaries are shared append-only structures; the JSON
// format pins their code assignments so a recovered dataset re-encodes
// every value and tag to the same codes. It writes only into an in-memory
// buffer — no disk I/O — so it is safe under s.mu.
//
//tagdm:nonblocking
func (s *Server) encodeDatasetLocked() ([]byte, error) {
	st := s.maint.Store()
	d := &model.Dataset{
		UserSchema: s.ds.UserSchema,
		ItemSchema: s.ds.ItemSchema,
		Vocab:      s.ds.Vocab,
		Users:      s.ds.Users,
		Items:      s.ds.Items,
		Actions:    make([]model.TaggingAction, st.Len()),
	}
	for i := range d.Actions {
		d.Actions[i] = model.TaggingAction{
			User:   st.TupleUser(i),
			Item:   st.TupleItem(i),
			Tags:   st.TupleTags(i),
			Rating: st.TupleRating(i),
		}
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func ckptName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, seq, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listCheckpoints returns checkpoint sequence numbers in dir, ascending.
func listCheckpoints(fs wal.FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseCkptName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// loadLatestCheckpoint returns the newest checkpoint that decodes cleanly,
// or nil when the dir holds none. A corrupt newest checkpoint (e.g. torn by
// a crash mid-write before the atomic rename, or bit rot) falls back to the
// previous one; the WAL continuity check during replay catches the case
// where that older checkpoint's tail was already pruned.
func loadLatestCheckpoint(fs wal.FS, dir string) (*checkpointBody, error) {
	seqs, err := listCheckpoints(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("server: listing checkpoints: %w", err)
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		body, err := readCheckpoint(fs, filepath.Join(dir, ckptName(seqs[i])))
		if err != nil {
			lastErr = err
			continue
		}
		return body, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("server: no valid checkpoint (newest error: %w)", lastErr)
	}
	return nil, nil
}

func readCheckpoint(fs wal.FS, path string) (*checkpointBody, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	//tagdm:allow-discard read-only checkpoint handle, nothing buffered to lose
	defer f.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	payload, err := wal.DecodeEnvelope(ckptMagic, buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	var body checkpointBody
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &body, nil
}

// pruneCheckpoints removes all but the newest keepCheckpoints checkpoint
// files. Best effort: a failed removal only costs disk.
func (s *Server) pruneCheckpoints() {
	seqs, err := listCheckpoints(s.dur.fs, s.dur.dir)
	if err != nil {
		return
	}
	for len(seqs) > keepCheckpoints {
		//tagdm:allow-discard best effort by contract: a failed removal only costs disk
		_ = s.dur.fs.Remove(filepath.Join(s.dur.dir, ckptName(seqs[0])))
		seqs = seqs[1:]
	}
}

// writeFileAtomic writes data to dir/name via a temp file, fsync, rename
// and directory fsync — the standard crash-safe publish protocol.
func writeFileAtomic(fs wal.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		//tagdm:allow-discard the write error is the durability signal; close is cleanup of a doomed temp file
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		//tagdm:allow-discard the sync error is the durability signal; close is cleanup of a doomed temp file
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}
