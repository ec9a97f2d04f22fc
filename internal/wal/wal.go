// Package wal implements the write-ahead log under the server's durable
// ingest path: length-prefixed, CRC32C-checksummed records appended to
// segment files with group commit, so an ingest batch is only
// acknowledged after its record is durable. The flusher writes and fsyncs
// whatever is pending as soon as it is kicked; records enqueued while that
// write+fsync is in flight pile up behind it and share the next one.
//
// On-disk format. A segment file named wal-<firstSeq>.log holds frames
//
//	[len u32 LE][crc32c u32 LE][data]   where data = [seq u64 LE][payload]
//
// with consecutive sequence numbers. The CRC covers data. A crash can leave
// a torn frame at the tail of the newest segment; Open detects it by
// length/checksum/sequence validation and truncates the file back to the
// last valid frame boundary instead of failing — a torn tail is by
// construction an unacknowledged record. Corruption anywhere else (an
// acknowledged record) is fatal and reported as an error.
//
// Checkpoints interact with the log through Rotate (start a new segment so
// a checkpoint can own a clean suffix boundary) and RemoveBefore (drop
// segments wholly covered by a durable checkpoint).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncMode selects when appends are fsynced.
type SyncMode int

const (
	// SyncAlways fsyncs every group-committed batch before acknowledging
	// the records in it. Survives both process crash and OS crash.
	SyncAlways SyncMode = iota
	// SyncInterval acknowledges after the buffered write and fsyncs every
	// syncEvery. Survives process crash; an OS crash can lose up to one
	// interval of acknowledged records.
	SyncInterval
	// SyncNone never fsyncs explicitly; durability is whatever the OS
	// page cache provides. For benchmarks and tests.
	SyncNone
)

// syncEvery is the fsync period under SyncInterval.
const syncEvery = 100 * time.Millisecond

// ParseSyncMode maps the -fsync flag values to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want always, interval or none)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// Options tunes a Log. A batch is whatever piled up behind the
// write+fsync in flight, so a lone append is flushed at once and
// concurrent appends share fsyncs.
type Options struct {
	// Sync selects the fsync policy. Default SyncAlways.
	Sync SyncMode
	// FS is the filesystem; nil means the real one. Tests inject a FaultFS
	// here.
	FS FS
	// OnSync, when non-nil, observes every fsync with its duration and
	// error — the hook the server uses to feed the fsync-latency
	// histogram without the wal package depending on the metrics layer.
	OnSync func(d time.Duration, err error)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

const (
	frameHeaderSize = 8       // u32 len + u32 crc
	seqSize         = 8       // u64 seq inside data
	maxRecordBytes  = 1 << 30 // sanity bound on a single record
	segPrefix       = "wal-"
	segSuffix       = ".log"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// RecoveryInfo reports what Open found and repaired.
type RecoveryInfo struct {
	// Segments is the number of live segment files.
	Segments int
	// LastSeq is the sequence number of the last valid record (0 when the
	// log is empty).
	LastSeq uint64
	// TornBytes is how many trailing bytes were truncated off the newest
	// segment because they did not form a valid frame.
	TornBytes int64
	// TornTruncated reports whether a torn tail was found and removed.
	TornTruncated bool
}

// Stats is a point-in-time snapshot of the log's internal counters, read
// by the server's /metrics gauges and /v1/stats durability block.
type Stats struct {
	Appends   int64 // records appended this process
	Syncs     int64 // fsyncs issued
	SizeBytes int64 // bytes across live segments
	LastSeq   uint64
	Failed    bool // sticky failure latched (disk gave an error)
}

type segment struct {
	firstSeq uint64 // seq of the first record this segment may hold
	lastSeq  uint64 // last record actually in it (0 if empty)
	size     int64
}

type ticket struct {
	frame []byte // fully framed record
	seq   uint64
	done  chan error
}

// Ticket is a pending append. Wait blocks until the record's group commit
// completes (including fsync under SyncAlways) and returns its outcome.
type Ticket struct{ t *ticket }

// Seq is the record's sequence number.
func (tk *Ticket) Seq() uint64 { return tk.t.seq }

// Wait blocks until the record is durable per the log's sync mode.
func (tk *Ticket) Wait() error { return <-tk.t.done }

// Log is an append-only write-ahead log over segment files. Enqueue is
// cheap and non-blocking (safe to call under the caller's own write lock
// to pin ordering); Wait rides the group commit: one flusher goroutine
// writes (and under SyncAlways fsyncs) everything pending as one batch,
// and records enqueued meanwhile form the next batch. All methods are safe
// for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu guards queue state: pending tickets, sequence assignment and the
	// closed/failed flags. It is never held across disk I/O.
	//
	//tagdm:mutex nonblocking
	mu      sync.Mutex
	pending []*ticket
	nextSeq uint64
	closed  bool
	failed  error

	// wmu serializes disk writes: the flusher's batch writes, Rotate and
	// Close. Taken without mu; never the other way around.
	wmu      sync.Mutex
	f        File
	bw       *bufio.Writer
	segments []segment // ascending; last is the open one

	kick    chan struct{} // 1-slot: a flush is owed
	quit    chan struct{}
	flusher sync.WaitGroup

	nAppends atomic.Int64
	nSyncs   atomic.Int64
	size     atomic.Int64
	lastSeq  atomic.Uint64
	recov    RecoveryInfo
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open scans dir, validates every frame, truncates a torn tail off the
// newest segment, and returns a log positioned to append after the last
// valid record. The first record ever appended gets sequence 1.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []segment
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			segs = append(segs, segment{firstSeq: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })

	l := &Log{
		dir:     dir,
		opts:    opts,
		nextSeq: 1,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	// Validate each segment; only the newest may have a torn tail.
	for i := range segs {
		final := i == len(segs)-1
		info, err := scanSegment(fs, filepath.Join(dir, segName(segs[i].firstSeq)), segs[i].firstSeq, final)
		if err != nil {
			return nil, err
		}
		if info.tornBytes > 0 {
			path := filepath.Join(dir, segName(segs[i].firstSeq))
			if err := fs.Truncate(path, info.validSize); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
			l.recov.TornTruncated = true
			l.recov.TornBytes = info.tornBytes
		}
		segs[i].lastSeq = info.lastSeq
		segs[i].size = info.validSize
		if info.lastSeq > 0 {
			l.nextSeq = info.lastSeq + 1
			l.recov.LastSeq = info.lastSeq
		}
	}
	l.segments = segs
	l.recov.Segments = len(segs)
	l.lastSeq.Store(l.recov.LastSeq)
	var total int64
	for _, s := range segs {
		total += s.size
	}
	l.size.Store(total)

	// Append into the newest segment, or a fresh one on an empty dir.
	if len(l.segments) == 0 {
		l.segments = []segment{{firstSeq: l.nextSeq}}
	}
	cur := &l.segments[len(l.segments)-1]
	f, err := fs.OpenAppend(filepath.Join(dir, segName(cur.firstSeq)))
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)

	l.flusher.Add(1)
	go l.runFlusher()
	if opts.Sync == SyncInterval {
		l.flusher.Add(1)
		go l.runSyncTicker()
	}
	return l, nil
}

type segScan struct {
	lastSeq   uint64
	validSize int64
	tornBytes int64
}

// scanSegment walks every frame of one segment. In the final segment an
// invalid frame marks a torn tail (reported for truncation); anywhere else
// it is corruption of acknowledged data and therefore an error.
func scanSegment(fs FS, path string, firstSeq uint64, final bool) (segScan, error) {
	f, err := fs.Open(path)
	if err != nil {
		return segScan{}, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	//tagdm:allow-discard read-only scan handle, nothing buffered to lose
	defer f.Close()
	var out segScan
	expect := firstSeq
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [frameHeaderSize]byte
	var offset int64
	var buf []byte
	for {
		n, err := readFull(r, hdr[:])
		if n == 0 && err != nil {
			return out, nil // clean EOF at a frame boundary
		}
		bad := func(why string) (segScan, error) {
			if final {
				out.tornBytes = mustSize(fs, path) - out.validSize
				return out, nil
			}
			return segScan{}, fmt.Errorf("wal: %s: corrupt frame at offset %d (%s) in non-final segment", path, offset, why)
		}
		if n < len(hdr) || err != nil {
			return bad("short header")
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length < seqSize || length > maxRecordBytes {
			return bad("implausible length")
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if m, err := readFull(r, buf); m < int(length) || err != nil {
			return bad("short data")
		}
		if crc32.Checksum(buf, crcTable) != crc {
			return bad("checksum mismatch")
		}
		seq := binary.LittleEndian.Uint64(buf[:seqSize])
		if seq != expect {
			return bad(fmt.Sprintf("sequence %d, want %d", seq, expect))
		}
		expect++
		out.lastSeq = seq
		offset += int64(frameHeaderSize) + int64(length)
		out.validSize = offset
	}
}

func mustSize(fs FS, path string) int64 {
	n, err := fs.Stat(path)
	if err != nil {
		return 0
	}
	return n
}

// readFull is io.ReadFull without the error wrapping noise: returns bytes
// read and the terminal error, tolerating io.EOF mid-way.
func readFull(r *bufio.Reader, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Enqueue frames payload, assigns it the next sequence number and queues
// it for the group-commit flusher: the record joins the batch the next
// write+fsync takes, which starts as soon as the one in flight (if any)
// completes. It never blocks on disk I/O, so callers may hold their own
// state lock across it to guarantee the WAL order matches their in-memory
// apply order. Wait on the ticket after releasing that lock.
//
//tagdm:nonblocking
func (l *Log) Enqueue(payload []byte) *Ticket {
	t := &ticket{done: make(chan error, 1)}
	l.mu.Lock()
	if l.closed || l.failed != nil {
		err := l.failed
		if err == nil {
			err = ErrClosed
		}
		l.mu.Unlock()
		t.done <- err
		return &Ticket{t}
	}
	t.seq = l.nextSeq
	l.nextSeq++
	data := make([]byte, frameHeaderSize+seqSize+len(payload))
	binary.LittleEndian.PutUint32(data[0:4], uint32(seqSize+len(payload)))
	binary.LittleEndian.PutUint64(data[frameHeaderSize:], t.seq)
	copy(data[frameHeaderSize+seqSize:], payload)
	binary.LittleEndian.PutUint32(data[4:8], crc32.Checksum(data[frameHeaderSize:], crcTable))
	t.frame = data
	l.pending = append(l.pending, t)
	l.mu.Unlock()
	// A full slot already owes a flush that runs after this record is
	// pending, so dropping the send loses nothing.
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return &Ticket{t}
}

// Append is Enqueue + Wait: it returns once the record is durable per the
// sync mode, carrying its sequence number.
func (l *Log) Append(payload []byte) (uint64, error) {
	t := l.Enqueue(payload)
	return t.Seq(), t.Wait()
}

func (l *Log) runFlusher() {
	defer l.flusher.Done()
	for {
		select {
		case <-l.quit:
			return
		case <-l.kick:
		}
		l.flushPending()
	}
}

// takePending steals the pending batch under mu.
func (l *Log) takePending() []*ticket {
	l.mu.Lock()
	batch := l.pending
	l.pending = nil
	l.mu.Unlock()
	return batch
}

// flushPending writes and (per sync mode) fsyncs everything pending, then
// completes the tickets. Called by the flusher goroutine, Rotate, Sync and
// Close; wmu serializes them.
func (l *Log) flushPending() {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.flushPendingLocked()
}

func (l *Log) flushPendingLocked() {
	batch := l.takePending()
	if len(batch) == 0 {
		return
	}
	err := l.writeBatchLocked(batch)
	if err != nil {
		l.fail(err)
	}
	for _, t := range batch {
		t.done <- err
	}
}

// writeBatchLocked appends the frames and fsyncs under SyncAlways. Caller
// holds wmu.
func (l *Log) writeBatchLocked(batch []*ticket) error {
	var wrote int64
	for _, t := range batch {
		if _, err := l.bw.Write(t.frame); err != nil {
			return fmt.Errorf("wal: write: %w", err)
		}
		wrote += int64(len(t.frame))
	}
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	last := batch[len(batch)-1].seq
	l.nAppends.Add(int64(len(batch)))
	l.size.Add(wrote)
	l.segments[len(l.segments)-1].size += wrote
	l.segments[len(l.segments)-1].lastSeq = last
	l.lastSeq.Store(last)
	return nil
}

func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	l.nSyncs.Add(1)
	if l.opts.OnSync != nil {
		l.opts.OnSync(time.Since(start), err)
	}
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

func (l *Log) runSyncTicker() {
	defer l.flusher.Done()
	tick := time.NewTicker(syncEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-tick.C:
			l.wmu.Lock()
			if l.failedNow() == nil && l.f != nil {
				if err := l.syncLocked(); err != nil {
					l.fail(err)
				}
			}
			l.wmu.Unlock()
		}
	}
}

func (l *Log) failedNow() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// fail latches the first disk error; every later Enqueue fails fast with
// it. The server maps this to read-only degradation.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.mu.Unlock()
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error { return l.failedNow() }

// LastSeq is the sequence number of the last durably written record.
// Records enqueued but not yet flushed are not counted.
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

// NextSeq returns the sequence number the next Enqueue will be assigned.
// All records with smaller sequence numbers have been enqueued (though not
// necessarily flushed yet); the server snapshots this under its write lock
// to stamp checkpoint coverage.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Sync flushes pending records and fsyncs the current segment.
func (l *Log) Sync() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.flushPendingLocked()
	if err := l.failedNow(); err != nil {
		return err
	}
	if l.opts.Sync != SyncAlways { // SyncAlways already fsynced in flush
		if err := l.syncLocked(); err != nil {
			l.fail(err)
			return err
		}
	}
	return nil
}

// Rotate flushes and fsyncs the open segment, closes it, and starts a new
// one. Checkpoints call it so that RemoveBefore can later drop the closed
// prefix wholesale.
func (l *Log) Rotate() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	// The drained check and the nextSeq read must share one l.mu critical
	// section: Enqueue only takes l.mu, so a record enqueued during the
	// drain's write+fsync would otherwise carry a sequence below `first`
	// yet be flushed into the new wal-<first> segment, which recovery
	// would misread as a torn tail (dropping an acknowledged record) or as
	// corruption. Records enqueued after the check get seq >= first and
	// land in the new segment — correct — because the flusher blocks on
	// wmu until the swap below completes.
	var first uint64
	for {
		l.flushPendingLocked()
		if err := l.failedNow(); err != nil {
			return err
		}
		l.mu.Lock()
		drained := len(l.pending) == 0
		first = l.nextSeq
		l.mu.Unlock()
		if drained {
			break
		}
	}
	if l.opts.Sync != SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.fail(err)
			return err
		}
	}
	// An empty open segment is already the fresh segment a rotation would
	// produce; rotating it would create a second segment with the same
	// firstSeq-derived name, and RemoveBefore would then unlink the file
	// the live segment still writes to — silently losing acknowledged
	// records. Skip instead.
	if cur := l.segments[len(l.segments)-1]; cur.firstSeq == first {
		return nil
	}
	if err := l.f.Close(); err != nil {
		l.fail(err)
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	f, err := l.opts.FS.OpenAppend(filepath.Join(l.dir, segName(first)))
	if err != nil {
		l.fail(err)
		return fmt.Errorf("wal: opening new segment: %w", err)
	}
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		l.fail(err)
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segments = append(l.segments, segment{firstSeq: first})
	return nil
}

// RemoveBefore deletes closed segments whose records all have sequence
// numbers <= seq — safe once a checkpoint covering seq is durable. The
// open segment is never removed.
func (l *Log) RemoveBefore(seq uint64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	var kept []segment
	var firstErr error
	for i, s := range l.segments {
		// A closed segment's coverage ends where the next one starts.
		if i == len(l.segments)-1 || l.segments[i+1].firstSeq > seq+1 {
			kept = append(kept, l.segments[i:]...)
			break
		}
		if err := l.opts.FS.Remove(filepath.Join(l.dir, segName(s.firstSeq))); err != nil && firstErr == nil {
			firstErr = err
			kept = append(kept, l.segments[i:]...)
			break
		}
		l.size.Add(-s.size)
	}
	l.segments = kept
	return firstErr
}

// Replay streams every valid record with sequence number > fromSeq to fn
// in order. It reads the segment files directly, so call it after Open
// (which repairs torn tails) and before concurrent appends start. A fn
// error aborts the replay and is returned.
func (l *Log) Replay(fromSeq uint64, fn func(seq uint64, payload []byte) error) error {
	l.wmu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.wmu.Unlock()
	for _, s := range segs {
		if s.lastSeq != 0 && s.lastSeq <= fromSeq {
			continue // wholly covered by the checkpoint
		}
		path := filepath.Join(l.dir, segName(s.firstSeq))
		if err := replaySegment(l.opts.FS, path, s.firstSeq, fromSeq, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(fs FS, path string, firstSeq, fromSeq uint64, fn func(uint64, []byte) error) error {
	f, err := fs.Open(path)
	if err != nil {
		return fmt.Errorf("wal: opening %s for replay: %w", path, err)
	}
	//tagdm:allow-discard read-only replay handle, nothing buffered to lose
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [frameHeaderSize]byte
	for {
		n, err := readFull(r, hdr[:])
		if n == 0 && err != nil {
			return nil
		}
		if n < len(hdr) || err != nil {
			return fmt.Errorf("wal: %s: short frame header during replay", path)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length < seqSize || length > maxRecordBytes {
			return fmt.Errorf("wal: %s: implausible frame length %d during replay", path, length)
		}
		data := make([]byte, length)
		if m, err := readFull(r, data); m < int(length) || err != nil {
			return fmt.Errorf("wal: %s: short frame during replay", path)
		}
		if crc32.Checksum(data, crcTable) != crc {
			return fmt.Errorf("wal: %s: checksum mismatch during replay", path)
		}
		seq := binary.LittleEndian.Uint64(data[:seqSize])
		if seq <= fromSeq {
			continue
		}
		if err := fn(seq, data[seqSize:]); err != nil {
			return err
		}
	}
}

// Recovery reports what Open found and repaired.
func (l *Log) Recovery() RecoveryInfo { return l.recov }

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.nAppends.Load(),
		Syncs:     l.nSyncs.Load(),
		SizeBytes: l.size.Load(),
		LastSeq:   l.lastSeq.Load(),
		Failed:    l.failedNow() != nil,
	}
}

// Close flushes and fsyncs pending records, stops the flusher and closes
// the open segment. Idempotent. Appends racing Close fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	l.flusher.Wait()

	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.flushPendingLocked()
	var err error
	if l.failedNow() == nil && l.opts.Sync != SyncAlways {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
