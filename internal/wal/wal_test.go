package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func quickOpts() Options {
	return Options{Sync: SyncAlways}
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%04d", tag, i))); err != nil {
			t.Fatalf("Append %s-%d: %v", tag, i, err)
		}
	}
}

func collect(t *testing.T, l *Log, fromSeq uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	if err := l.Replay(fromSeq, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, quickOpts())
	appendN(t, l, 20, "rec")
	if got := l.LastSeq(); got != 20 {
		t.Fatalf("LastSeq = %d, want 20", got)
	}
	got := collect(t, l, 0)
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("rec-%04d", i)
		if got[uint64(i+1)] != want {
			t.Fatalf("seq %d = %q, want %q", i+1, got[uint64(i+1)], want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen resumes the sequence.
	l2 := mustOpen(t, dir, quickOpts())
	defer l2.Close()
	if l2.Recovery().TornTruncated {
		t.Fatal("clean log reported torn truncation")
	}
	if got := l2.LastSeq(); got != 20 {
		t.Fatalf("reopened LastSeq = %d, want 20", got)
	}
	if seq, err := l2.Append([]byte("after")); err != nil || seq != 21 {
		t.Fatalf("Append after reopen = (%d, %v), want (21, nil)", seq, err)
	}
}

// TestTornTailTruncatedAtEveryOffset is the core crash-safety property:
// whatever byte prefix of a segment a crash leaves behind, Open recovers
// exactly the complete frames and truncates the rest.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	l := mustOpen(t, src, quickOpts())
	// Varied payload sizes so offsets hit every part of a frame.
	payloads := [][]byte{
		[]byte("a"), []byte("bb-bb"), bytes.Repeat([]byte("c"), 100),
		[]byte("dddd"), bytes.Repeat([]byte("e"), 33),
	}
	frameEnds := []int64{0}
	var off int64
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
		off += int64(frameHeaderSize + seqSize + len(p))
		frameEnds = append(frameEnds, off)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segPath := filepath.Join(src, segName(1))
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if int64(len(whole)) != off {
		t.Fatalf("segment is %d bytes, expected %d", len(whole), off)
	}

	completeFrames := func(prefix int64) int {
		n := 0
		for _, e := range frameEnds[1:] {
			if e <= prefix {
				n++
			}
		}
		return n
	}

	for cut := int64(0); cut <= int64(len(whole)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), whole[:cut], 0o644); err != nil {
			t.Fatalf("write prefix: %v", err)
		}
		lr, err := Open(dir, quickOpts())
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		wantFrames := completeFrames(cut)
		rec := lr.Recovery()
		if int(rec.LastSeq) != wantFrames {
			t.Fatalf("cut=%d: recovered LastSeq %d, want %d", cut, rec.LastSeq, wantFrames)
		}
		atBoundary := cut == frameEnds[wantFrames]
		if rec.TornTruncated == atBoundary && cut > 0 {
			t.Fatalf("cut=%d: TornTruncated=%v but frame boundary=%v", cut, rec.TornTruncated, atBoundary)
		}
		got := collect(t, lr, 0)
		if len(got) != wantFrames {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(got), wantFrames)
		}
		for i := 0; i < wantFrames; i++ {
			if got[uint64(i+1)] != string(payloads[i]) {
				t.Fatalf("cut=%d: seq %d payload mismatch", cut, i+1)
			}
		}
		// The log must be appendable after recovery.
		if seq, err := lr.Append([]byte("post-crash")); err != nil || int(seq) != wantFrames+1 {
			t.Fatalf("cut=%d: post-recovery Append = (%d, %v)", cut, seq, err)
		}
		lr.Close()
	}
}

// TestCorruptMiddleIsFatal: flipping a byte inside an acknowledged record
// of a non-final segment must fail Open, not silently drop data.
func TestCorruptMiddleIsFatal(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, quickOpts())
	appendN(t, l, 5, "seg1")
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendN(t, l, 5, "seg2")
	l.Close()

	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, quickOpts()); err == nil {
		t.Fatal("Open succeeded despite corruption in a non-final segment")
	}
}

func TestRotateAndRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, quickOpts())
	defer l.Close()
	appendN(t, l, 3, "a") // seqs 1..3 in segment 1
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendN(t, l, 3, "b") // seqs 4..6 in segment 2
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendN(t, l, 3, "c") // seqs 7..9 in segment 3

	// Checkpoint covering seq 3: segment 1 removable, 2 and 3 not.
	if err := l.RemoveBefore(3); err != nil {
		t.Fatalf("RemoveBefore(3): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 still present after RemoveBefore(3): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(4))); err != nil {
		t.Fatalf("segment 4 missing: %v", err)
	}
	// A checkpoint mid-segment (seq 5) must not remove segment 2.
	if err := l.RemoveBefore(5); err != nil {
		t.Fatalf("RemoveBefore(5): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(4))); err != nil {
		t.Fatalf("segment 4 wrongly removed by mid-segment cutoff: %v", err)
	}

	got := collect(t, l, 3)
	if len(got) != 6 {
		t.Fatalf("replayed %d records after removal, want 6", len(got))
	}
	if got[4] != "b-0000" || got[9] != "c-0002" {
		t.Fatalf("replay content wrong: %v", got)
	}
}

func TestRotateEmptySegmentIsNoOp(t *testing.T) {
	// Regression: rotating an empty segment used to create a second
	// segment with the same name, and RemoveBefore then unlinked the file
	// the live segment was still writing to — appends after a first-boot
	// checkpoint (rotate at seq 0, RemoveBefore(0)) vanished on restart.
	dir := t.TempDir()
	l := mustOpen(t, dir, quickOpts())
	if err := l.Rotate(); err != nil { // empty log: must be a no-op
		t.Fatalf("Rotate: %v", err)
	}
	if err := l.RemoveBefore(0); err != nil {
		t.Fatalf("RemoveBefore(0): %v", err)
	}
	appendN(t, l, 2, "a")
	if err := l.Rotate(); err != nil { // real rotation at seq 2
		t.Fatalf("Rotate: %v", err)
	}
	if err := l.Rotate(); err != nil { // fresh segment again: no-op
		t.Fatalf("second Rotate: %v", err)
	}
	if err := l.RemoveBefore(2); err != nil {
		t.Fatalf("RemoveBefore(2): %v", err)
	}
	appendN(t, l, 2, "b")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened := mustOpen(t, dir, quickOpts())
	defer reopened.Close()
	// RemoveBefore(2) legitimately dropped seqs 1-2 (covered by the
	// checkpoint); the appends after the no-op rotations must survive —
	// pre-fix they were written to an unlinked file and vanished here.
	got := collect(t, reopened, 0)
	if len(got) != 2 || got[3] != "b-0000" || got[4] != "b-0001" {
		t.Fatalf("records lost across empty-segment rotation: %v", got)
	}
}

// TestGroupCommitBatchesFsyncs: records enqueued while a write+fsync is in
// flight all ride the next one. The first record's fsync is held open
// while n-1 more are enqueued concurrently, so exactly two fsyncs serve n
// appends.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	l := mustOpen(t, dir, Options{Sync: SyncAlways, FS: ffs})
	defer l.Close()

	const n = 64
	entered, release := ffs.HoldNextSync()
	defer release(false)
	tickets := make([]*Ticket, n)
	tickets[0] = l.Enqueue([]byte(fmt.Sprintf("conc-%04d", 0)))
	<-entered // the flusher is inside the first record's fsync
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tickets[i] = l.Enqueue([]byte(fmt.Sprintf("conc-%04d", i)))
		}(i)
	}
	wg.Wait()
	release(false)
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	// One fsync for the first record, one for everything that piled up
	// behind it.
	if st.Syncs != 2 {
		t.Fatalf("Syncs = %d for %d appends, want 2; group commit not batching", st.Syncs, n)
	}
	if got := collect(t, l, 0); len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
}

func TestEnqueueOrderIsSeqOrder(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Sync: SyncNone})
	defer l.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock() // models the server holding s.mu across apply+Enqueue
			tk := l.Enqueue([]byte(fmt.Sprintf("%d", i)))
			mu.Unlock()
			if err := tk.Wait(); err != nil {
				t.Errorf("wait: %v", err)
			}
		}(i)
	}
	wg.Wait()
	// Replay order must be strictly sequential regardless of goroutine
	// interleaving.
	var prev uint64
	if err := l.Replay(0, func(seq uint64, _ []byte) error {
		if seq != prev+1 {
			return fmt.Errorf("seq %d after %d", seq, prev)
		}
		prev = seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncFailureIsSticky(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Sync: SyncAlways, FS: ffs})
	defer l.Close()
	appendN(t, l, 3, "ok")
	ffs.ArmSyncFault(0) // next fsync fails
	if _, err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("Append succeeded despite injected fsync failure")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("error %v does not unwrap to ErrInjected", err)
	}
	if l.Err() == nil {
		t.Fatal("sticky failure not latched")
	}
	// Later appends fail fast even after the fault is disarmed: the log
	// can't know what state the file is in.
	ffs.Disarm()
	if _, err := l.Append([]byte("still-doomed")); err == nil {
		t.Fatal("Append succeeded after latched failure")
	}
	if !l.Stats().Failed {
		t.Fatal("Stats().Failed = false after latched failure")
	}
}

// TestSyncFailureFailsRecordsQueuedBehindIt: a record enqueued while an
// earlier batch's fsync is in flight must not be written, let alone
// acknowledged, once that fsync fails. Otherwise the log would hold an
// acknowledged record behind one that may be lost, and replay refuses a
// gap.
func TestSyncFailureFailsRecordsQueuedBehindIt(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Sync: SyncAlways, FS: ffs})
	defer l.Close()
	appendN(t, l, 2, "ok")
	entered, release := ffs.HoldNextSync()
	defer release(false)
	held := l.Enqueue([]byte("held"))
	<-entered // seq 3's fsync is in flight
	queued := l.Enqueue([]byte("queued"))
	release(true)
	if err := held.Wait(); !errors.Is(err, ErrInjected) {
		t.Fatalf("seq %d: Wait = %v, want the injected fsync failure", held.Seq(), err)
	}
	if err := queued.Wait(); !errors.Is(err, ErrInjected) {
		t.Fatalf("seq %d acknowledged (Wait = %v) after seq %d failed", queued.Seq(), err, held.Seq())
	}
	if got := l.LastSeq(); got != 2 {
		t.Fatalf("LastSeq = %d, want 2", got)
	}
	l.Close()
	l2 := mustOpen(t, dir, quickOpts())
	defer l2.Close()
	if got := collect(t, l2, 0); got[queued.Seq()] != "" {
		t.Fatalf("record queued behind the failed fsync reached the disk: %v", got)
	}
}

func TestShortWriteRecoverable(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Sync: SyncAlways, FS: ffs})
	appendN(t, l, 3, "good")
	// Arm a short write partway into the next frame: the file gains a
	// torn tail exactly as a crash mid-write would leave it.
	ffs.ArmWriteFault(7, true)
	if _, err := l.Append(bytes.Repeat([]byte("x"), 50)); err == nil {
		t.Fatal("Append succeeded despite injected short write")
	}
	l.Close()

	// Recovery sees 3 intact records and truncates the torn bytes.
	l2 := mustOpen(t, dir, quickOpts())
	defer l2.Close()
	rec := l2.Recovery()
	if rec.LastSeq != 3 {
		t.Fatalf("recovered LastSeq = %d, want 3", rec.LastSeq)
	}
	if !rec.TornTruncated {
		t.Fatal("short write did not register as torn tail")
	}
	if got := collect(t, l2, 0); len(got) != 3 {
		t.Fatalf("replayed %d, want 3", len(got))
	}
}

func TestCloseFlushesPending(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OSFS{})
	l := mustOpen(t, dir, Options{Sync: SyncAlways, FS: ffs})
	// Hold the first record's fsync so the second is still pending when
	// Close runs.
	entered, release := ffs.HoldNextSync()
	defer release(false)
	first := l.Enqueue([]byte("in-flight"))
	<-entered
	tk := l.Enqueue([]byte("pending"))
	done := make(chan error, 1)
	go func() { done <- tk.Wait() }()
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for !l.isClosed() {
		runtime.Gosched()
	}
	if got := l.LastSeq(); got != 0 {
		t.Fatalf("LastSeq = %d before the held fsync was released, want 0", got)
	}
	release(false)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := first.Wait(); err != nil {
		t.Fatalf("in-flight ticket failed at close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("pending ticket failed at close: %v", err)
	}
	l2 := mustOpen(t, dir, quickOpts())
	defer l2.Close()
	if got := collect(t, l2, 0); got[2] != "pending" {
		t.Fatalf("pending record lost: %v", got)
	}
}

func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, quickOpts())
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestRotateRacingEnqueue pins the fix for a race where a record enqueued
// while Rotate was mid-drain (Enqueue only takes mu, Rotate's write+fsync
// holds only wmu) could be assigned a sequence below the new segment's
// firstSeq yet be flushed as that segment's first frame — on the next Open
// the sequence mismatch read as a torn tail, silently dropping the
// acknowledged record. Hammer rotations against concurrent appends, then
// reopen and verify every acknowledged record survived.
func TestRotateRacingEnqueue(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{Sync: SyncNone})

	const n = 400
	done := make(chan struct{})
	var rotErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := l.Rotate(); err != nil {
				rotErr = err
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r-%04d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	if rotErr != nil {
		t.Fatalf("Rotate: %v", rotErr)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened := mustOpen(t, dir, quickOpts())
	defer reopened.Close()
	if reopened.Recovery().TornTruncated {
		t.Fatal("clean shutdown reported torn truncation — a record landed in the wrong segment")
	}
	got := collect(t, reopened, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("r-%04d", i); got[uint64(i+1)] != want {
			t.Fatalf("seq %d = %q, want %q", i+1, got[uint64(i+1)], want)
		}
	}
}

func TestDecodeEnvelopeRejectsTrailingBytes(t *testing.T) {
	const magic = "testmag1"
	payload := []byte("payload-bytes")
	enc := EncodeEnvelope(magic, payload)

	if got, err := DecodeEnvelope(magic, enc); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean decode = (%q, %v), want (%q, nil)", got, err, payload)
	}
	// A shorter envelope written over a longer file leaves trailing
	// garbage past the declared length; it must not pass validation.
	if _, err := DecodeEnvelope(magic, append(bytes.Clone(enc), "junk"...)); !errors.Is(err, ErrEnvelopeTrailing) {
		t.Fatalf("decode with trailing bytes = %v, want ErrEnvelopeTrailing", err)
	}
	if _, err := DecodeEnvelope(magic, enc[:len(enc)-1]); !errors.Is(err, ErrEnvelopeTruncated) {
		t.Fatalf("decode truncated = %v, want ErrEnvelopeTruncated", err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"none", SyncNone, true},
		{"bogus", 0, false},
	} {
		got, err := ParseSyncMode(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncMode(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
