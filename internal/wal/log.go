// Package wal implements H-Store-style durability for the engine: a
// command log of client requests (upstream backup for streaming workflows,
// §2) plus periodic full snapshots. Recovery loads the latest snapshot and
// replays the log suffix through the partition engine; because execution is
// serial and procedures are deterministic, replay reconstructs the exact
// pre-crash state.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy controls when the log file is fsync'd.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncNever leaves flushing to the OS (fastest, weakest).
	SyncNever SyncPolicy = iota
	// SyncEveryRecord fsyncs after each append — one fsync on the critical
	// path of every commit.
	SyncEveryRecord
	// SyncGroupCommit batches fsyncs: appends return a commit future and a
	// daemon fsyncs once per batch (Options.GroupCommitInterval /
	// GroupCommitMaxBatch), resolving every future the fsync covered. One
	// fsync amortizes over the whole in-flight batch.
	SyncGroupCommit
)

// Group-commit defaults, used when the corresponding Options field is zero.
const (
	DefaultGroupCommitInterval = 2 * time.Millisecond
	DefaultGroupCommitMaxBatch = 64
)

// Options configures OpenLogOpts.
type Options struct {
	// Policy selects when appended records are forced to stable storage.
	Policy SyncPolicy
	// GroupCommitInterval is the longest a SyncGroupCommit record waits for
	// its fsync (the commit daemon's tick). Zero means the default.
	GroupCommitInterval time.Duration
	// GroupCommitMaxBatch fsyncs early once this many appends are pending,
	// bounding batch size under load. Zero means the default.
	GroupCommitMaxBatch int
	// GroupCommitMaxInterval > 0 makes the daemon's tick adaptive: an EWMA
	// of observed fsync latency, clamped to [GroupCommitMinInterval,
	// GroupCommitMaxInterval]. Slow media batch longer (one fsync
	// amortizes over more commits, and ticking faster than the disk can
	// fsync only queues); fast media flush sooner, cutting commit latency
	// below what a fixed tick would add. GroupCommitInterval is ignored
	// while adapting.
	GroupCommitMinInterval time.Duration
	GroupCommitMaxInterval time.Duration
	// OnSyncBatch, when non-nil, is called by the commit daemon after each
	// successful fsync that covered at least one pending future, with the
	// number of records the fsync made durable — the observable batching
	// the 2PC force amortization reports as a histogram. Called from the
	// daemon goroutine; keep it cheap and non-blocking.
	OnSyncBatch func(n int)
}

// commitWaiter is one unresolved commit future: the record at lsn has been
// appended (buffered) but not yet fsync'd.
type commitWaiter struct {
	lsn uint64
	ch  chan error
}

// Log is an append-only record log. Each record is framed as
// [len u32][crc32 u32][lsn u64][payload] with the CRC covering lsn+payload;
// a torn tail is detected and ignored at read time, which is exactly the
// semantics command logging needs (the interrupted transaction never
// acked, so dropping it is correct). Carrying the LSN in the frame makes
// replay robust to a crash between snapshot-write and log-truncate: stale
// records are recognizable by LSN and skipped.
//
// Appends go through a buffered writer, so even SyncNever pays one write(2)
// per flush rather than per record; Sync, Truncate, and Close flush first.
// Under SyncGroupCommit a commit daemon shares the Log with the appender;
// mu guards the writer, the LSN counter, and the pending futures.
type Log struct {
	path   string
	policy SyncPolicy

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	lsn     uint64         // last assigned LSN
	buf     []byte         // frame scratch, reused across appends
	pending []commitWaiter // futures awaiting the next fsync (LSN order)
	err     error          // sticky: a write/fsync failure poisons the log

	// group-commit daemon plumbing (nil unless policy is SyncGroupCommit).
	interval time.Duration
	maxBatch int
	kick     chan struct{}   // batch-full nudge
	syncReq  chan chan error // SyncNow rendezvous
	quit     chan struct{}
	done     chan struct{}
	stop     sync.Once

	// Adaptive tick (GroupCommitMaxInterval > 0): fsyncEWMA tracks observed
	// fsync latency and curInterval holds the clamped tick, both in
	// nanoseconds (atomics: the daemon writes, metrics/tests read).
	adaptive    bool
	minInterval time.Duration
	maxInterval time.Duration
	fsyncEWMA   atomic.Int64
	curInterval atomic.Int64
	// idle is set while the daemon is parked with nothing pending;
	// AppendAsync nudges it through kick, so an idle log costs no
	// periodic wakeups even at a sub-millisecond adaptive tick.
	idle atomic.Bool

	// onSyncBatch is Options.OnSyncBatch (nil when unset).
	onSyncBatch func(n int)
}

// OpenLog opens (creating if needed) the log at path and positions for
// appending. startLSN is the LSN of the last record already in the file
// (use ScanLog to discover it).
func OpenLog(path string, startLSN uint64, policy SyncPolicy) (*Log, error) {
	return OpenLogOpts(path, startLSN, Options{Policy: policy})
}

// OpenLogOpts opens a log with explicit options; SyncGroupCommit starts the
// commit daemon, which runs until Close.
//
// When the open creates the file and the policy syncs, the parent
// directory is fsync'd before returning, so the records later acked from
// a fresh directory cannot lose their file's name on power loss.
func OpenLogOpts(path string, startLSN uint64, o Options) (*Log, error) {
	f, created, err := openAppend(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	if created && o.Policy != SyncNever {
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: open log: sync directory: %w", err)
		}
	}
	l := &Log{
		path:   path,
		policy: o.Policy,
		f:      f,
		w:      bufio.NewWriterSize(f, 1<<16),
		lsn:    startLSN,
	}
	if o.Policy == SyncGroupCommit {
		l.onSyncBatch = o.OnSyncBatch
		l.interval = o.GroupCommitInterval
		if l.interval <= 0 {
			l.interval = DefaultGroupCommitInterval
		}
		l.maxBatch = o.GroupCommitMaxBatch
		if l.maxBatch <= 0 {
			l.maxBatch = DefaultGroupCommitMaxBatch
		}
		if o.GroupCommitMaxInterval > 0 {
			l.adaptive = true
			l.minInterval = o.GroupCommitMinInterval
			if l.minInterval < 100*time.Microsecond {
				l.minInterval = 100 * time.Microsecond
			}
			l.maxInterval = o.GroupCommitMaxInterval
			if l.maxInterval < l.minInterval {
				l.maxInterval = l.minInterval
			}
			l.curInterval.Store(int64(l.minInterval)) // optimistic start
		} else {
			l.curInterval.Store(int64(l.interval))
		}
		l.kick = make(chan struct{}, 1)
		l.syncReq = make(chan chan error)
		l.quit = make(chan struct{})
		l.done = make(chan struct{})
		go l.daemon()
	}
	return l, nil
}

// openAppend opens path for appending, creating it if missing, and
// reports whether this call created it.
func openAppend(path string) (f *os.File, created bool, err error) {
	for {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if !errors.Is(err, os.ErrNotExist) {
			return f, false, err
		}
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if !errors.Is(err, os.ErrExist) {
			return f, err == nil, err
		}
		// Another opener created it between the two calls: open theirs.
	}
}

// CurrentInterval reports the commit daemon's tick: fixed, or the latest
// adaptive value (tests and metrics).
func (l *Log) CurrentInterval() time.Duration {
	return time.Duration(l.curInterval.Load())
}

// FsyncEWMA reports the daemon's running estimate of fsync latency (zero
// until the first measured fsync).
func (l *Log) FsyncEWMA() time.Duration {
	return time.Duration(l.fsyncEWMA.Load())
}

// observeFsync folds one measured fsync into the EWMA (alpha 1/4) and
// re-clamps the adaptive tick.
func (l *Log) observeFsync(d time.Duration) {
	if !l.adaptive {
		return
	}
	prev := l.fsyncEWMA.Load()
	next := int64(d)
	if prev > 0 {
		next = prev + (int64(d)-prev)/4
	}
	l.fsyncEWMA.Store(next)
	iv := time.Duration(next)
	if iv < l.minInterval {
		iv = l.minInterval
	}
	if iv > l.maxInterval {
		iv = l.maxInterval
	}
	l.curInterval.Store(int64(iv))
}

// GroupCommit reports whether the log batches fsyncs behind commit futures.
func (l *Log) GroupCommit() bool { return l.policy == SyncGroupCommit }

// appendFrame encodes and buffers one record. Caller holds l.mu.
func (l *Log) appendFrame(payload []byte) (uint64, error) {
	if l.err != nil {
		return 0, fmt.Errorf("wal: log poisoned by earlier failure: %w", l.err)
	}
	lsn := l.lsn + 1
	l.buf = l.buf[:0]
	var lsnB [8]byte
	binary.LittleEndian.PutUint64(lsnB[:], lsn)
	crc := crc32.NewIEEE()
	crc.Write(lsnB[:])
	crc.Write(payload)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(8+len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc.Sum32())
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, lsnB[:]...)
	l.buf = append(l.buf, payload...)
	if _, err := l.w.Write(l.buf); err != nil {
		l.err = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.lsn = lsn
	return lsn, nil
}

// flushLocked drains the buffered writer to the OS. Caller holds l.mu.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Append writes one record and returns its LSN, durable per the policy:
// SyncEveryRecord returns after its own fsync, SyncGroupCommit waits for
// the batch fsync (use AppendAsync to pipeline instead), SyncNever returns
// once the record is buffered.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.policy == SyncGroupCommit {
		lsn, ack, err := l.AppendAsync(payload)
		if err != nil {
			return 0, err
		}
		if err := <-ack; err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		return lsn, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendFrame(payload)
	if err != nil {
		return 0, err
	}
	if l.policy == SyncEveryRecord {
		if err := l.flushLocked(); err != nil {
			return 0, fmt.Errorf("wal: flush: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			l.err = err
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	return lsn, nil
}

// AppendAsync appends one record and returns a commit future that resolves
// (with the fsync's error, nil on success) once the record is durable. The
// caller must receive from the future exactly once; futures resolve in LSN
// order because one fsync covers a contiguous batch. Under SyncNever and
// SyncEveryRecord the future is already resolved on return.
func (l *Log) AppendAsync(payload []byte) (uint64, <-chan error, error) {
	ch := make(chan error, 1)
	if l.policy != SyncGroupCommit {
		lsn, err := l.Append(payload)
		if err != nil {
			return 0, nil, err
		}
		ch <- nil
		return lsn, ch, nil
	}
	l.mu.Lock()
	lsn, err := l.appendFrame(payload)
	if err != nil {
		l.mu.Unlock()
		return 0, nil, err
	}
	l.pending = append(l.pending, commitWaiter{lsn: lsn, ch: ch})
	full := len(l.pending) >= l.maxBatch
	l.mu.Unlock()
	if full || l.idle.Load() {
		select {
		case l.kick <- struct{}{}:
		default: // a nudge is already queued
		}
	}
	return lsn, ch, nil
}

// daemon is the group-commit loop: it fsyncs once per tick, early when a
// batch fills or a SyncNow arrives, and resolves the covered futures. The
// tick is re-armed from CurrentInterval, so under the adaptive option it
// tracks what the disk actually sustains.
func (l *Log) daemon() {
	defer close(l.done)
	t := time.NewTimer(l.CurrentInterval())
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if l.syncBatch(nil) == 0 && !l.parkIdle() {
				return
			}
			t.Reset(l.CurrentInterval())
		case <-l.kick:
			l.syncBatch(nil)
		case reply := <-l.syncReq:
			l.syncBatch(reply)
		case <-l.quit:
			l.syncBatch(nil) // resolve stragglers before Close proceeds
			return
		}
	}
}

// parkIdle blocks the daemon after an empty tick until the next append
// (AppendAsync kicks when it sees the idle flag) or sync request, so an
// idle log pays no periodic wakeups. Returns false when the log is
// closing. The nudged-awake daemon resumes ticking; the first waiting
// append still resolves within one tick, exactly as under the ticker.
func (l *Log) parkIdle() bool {
	l.idle.Store(true)
	defer l.idle.Store(false)
	l.mu.Lock()
	pend := len(l.pending) > 0
	l.mu.Unlock()
	if pend {
		return true // an append raced the flag; keep ticking
	}
	select {
	case <-l.kick:
		return true
	case reply := <-l.syncReq:
		l.syncBatch(reply)
		return true
	case <-l.quit:
		l.syncBatch(nil)
		return false
	}
}

// syncBatch flushes buffered frames, fsyncs, and resolves every pending
// future with the result, returning the batch size (zero = nothing was
// waiting). The fsync runs outside the lock so the appender keeps
// buffering the next batch while the disk works; a record buffered
// mid-fsync joins the next batch, whose own fsync (issued after the flush
// that covered its bytes) is the one that resolves it.
func (l *Log) syncBatch(reply chan<- error) int {
	l.mu.Lock()
	err := l.flushLocked()
	batch := l.pending
	l.pending = nil
	l.mu.Unlock()
	if err == nil && (len(batch) > 0 || reply != nil) {
		start := time.Now()
		if err = l.f.Sync(); err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
		} else {
			l.observeFsync(time.Since(start))
		}
	}
	for _, w := range batch {
		w.ch <- err
	}
	if reply != nil {
		reply <- err
	}
	if l.onSyncBatch != nil && len(batch) > 0 && err == nil {
		l.onSyncBatch(len(batch))
	}
	return len(batch)
}

// SyncNow forces everything appended so far to stable storage, resolving
// all pending commit futures before it returns. The checkpoint barrier uses
// it to drain the pipeline at a quiescent point.
func (l *Log) SyncNow() error {
	if l.policy != SyncGroupCommit {
		return l.Sync()
	}
	reply := make(chan error, 1)
	select {
	case l.syncReq <- reply:
		return <-reply
	case <-l.done: // daemon stopped (Close in progress): fall back
		return l.Sync()
	}
}

// LSN returns the LSN of the last appended record.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Truncate empties the log file after a successful snapshot. LSNs keep
// increasing monotonically across truncation. Pending group-commit futures
// are made durable and resolved first — their records are covered by the
// snapshot the caller just wrote, but the futures themselves must complete.
func (l *Log) Truncate() error {
	if l.policy == SyncGroupCommit {
		if err := l.SyncNow(); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	return l.f.Sync()
}

// Sync flushes buffered frames and forces the log to stable storage. It
// does not resolve group-commit futures; the daemon (or SyncNow) does.
func (l *Log) Sync() error {
	l.mu.Lock()
	err := l.flushLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.f.Sync()
}

// Close stops the commit daemon (resolving any remaining futures), flushes,
// and closes the log file.
func (l *Log) Close() error {
	if l.policy == SyncGroupCommit {
		l.stop.Do(func() { close(l.quit) })
		<-l.done
	}
	l.mu.Lock()
	err := l.flushLocked()
	l.mu.Unlock()
	cerr := l.f.Close()
	if err != nil {
		return err
	}
	return cerr
}

// ScanLog reads every intact record from path, calling fn(lsn, payload)
// with the LSN stored in each record's frame. It stops silently at a torn
// or corrupt tail (the crash case) and returns the last LSN delivered
// (0 when the log is empty or missing).
func ScanLog(path string, fn func(lsn uint64, payload []byte) error) (uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: open for scan: %w", err)
	}
	defer f.Close()
	var last uint64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return last, nil // clean EOF or torn header: stop
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 8 || n > 1<<30 {
			return last, nil // implausible length: corrupt tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			return last, nil // torn payload
		}
		if crc32.ChecksumIEEE(body) != want {
			return last, nil // corrupt record
		}
		lsn := binary.LittleEndian.Uint64(body[:8])
		last = lsn
		if err := fn(lsn, body[8:]); err != nil {
			return last, err
		}
	}
}

// DefaultLogName and DefaultSnapshotName are the file names used inside a
// durability directory. DefaultCoordLogName holds the 2PC coordinator's
// decision records — the authority recovery resolves in-doubt prepared
// legs against.
const (
	DefaultLogName      = "command.log"
	DefaultSnapshotName = "snapshot.bin"
	DefaultCoordLogName = "coord.log"
)

// CoordPath resolves the coordinator decision log's location under dir.
func CoordPath(dir string) string {
	return filepath.Join(dir, DefaultCoordLogName)
}

// Paths resolves the standard file locations under dir.
func Paths(dir string) (logPath, snapPath string) {
	return filepath.Join(dir, DefaultLogName), filepath.Join(dir, DefaultSnapshotName)
}

// PartitionPaths resolves the per-partition file locations under dir.
// Partition 0 keeps the legacy unsuffixed names so single-partition
// durability directories written by earlier versions recover unchanged;
// partitions 1..N-1 append ".<idx>" to each name.
func PartitionPaths(dir string, idx int) (logPath, snapPath string) {
	if idx == 0 {
		return Paths(dir)
	}
	return filepath.Join(dir, fmt.Sprintf("%s.%d", DefaultLogName, idx)),
		filepath.Join(dir, fmt.Sprintf("%s.%d", DefaultSnapshotName, idx))
}
