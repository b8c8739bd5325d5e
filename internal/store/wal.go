package store

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fsfault"
)

// The write-ahead log. One file per checkpoint generation, named
// wal-<gen>.log where <gen> is the LSN of the checkpoint it follows.
// The file is a sequence of frames (frame.go), one per record.
//
// A crash can tear at most the final record: recovery scans forward,
// stops at the first frame whose length or checksum does not validate,
// replays the valid prefix and truncates the rest. Appends go through a
// group-commit buffer — the caller's bytes land in memory synchronously
// (ordered before the MVCC publish by the commit hook) and wake a
// background flusher that writes and fsyncs everything buffered; records
// arriving during its fsync form the next group. SyncAlways trades that
// throughput for per-record durability.

// flushThreshold forces an inline (non-fsync) write when the buffer
// outgrows it, bounding memory while the flusher's fsync runs.
const flushThreshold = 1 << 20

// wal is the append side of the log. Two locks realise group commit
// without stalling committers behind the disk: mu guards the in-memory
// buffer and counters and is held only for memcpy-scale work, while
// flushMu serialises file writes, fsyncs and rotation. A committer under
// SyncGrouped touches only mu; the flusher swaps the buffer out under mu
// and performs the write+fsync under flushMu alone, so an in-flight
// fsync never blocks the index writer mutex. Lock order: flushMu → mu.
type wal struct {
	flushMu sync.Mutex // serialises write/fsync/rotate; taken before mu
	mu      sync.Mutex // guards buf, spare, size, nextLSN, f, gen, err, closed

	dir     string
	fs      fsfault.FS
	f       fsfault.File
	gen     uint64
	nextLSN uint64
	size    int64       // bytes written + buffered in the current file
	buf     []byte      // pending frames; nil when drained
	spare   []byte      // recycled drained buffer
	dirty   atomic.Bool // bytes written since the last fsync (written under flushMu)
	policy  SyncPolicy
	kick    chan struct{} // capacity 1: a pending kick wakes the flusher
	err     error         // sticky: a failed write or fsync poisons the log
	closed  bool

	// Tailing state (guarded by mu). writtenLSN is the highest LSN whose
	// frame is fully in the log file — the readable horizon a Tailer may
	// parse up to; it advances only after the file write returns, so every
	// byte of every record at or below it is on the file. durableLSN is
	// the highest LSN known fsynced — what replication heartbeats
	// advertise. bufLast is the LSN of the newest buffered record. watch
	// is closed and replaced whenever writtenLSN advances (and closed for
	// good on Close), waking blocked tailers.
	writtenLSN uint64
	durableLSN uint64
	bufLast    uint64
	watch      chan struct{}
}

func walName(gen uint64) string  { return fmt.Sprintf("wal-%020d.log", gen) }
func ckptName(gen uint64) string { return fmt.Sprintf("checkpoint-%020d.ckpt", gen) }

// openWAL opens (creating if needed) the generation's log file for
// appending. nextLSN must be one past the highest LSN already durable.
func openWAL(fs fsfault.FS, dir string, gen, nextLSN uint64, policy SyncPolicy) (*wal, error) {
	f, err := fs.OpenFile(walPath(dir, gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{
		dir: dir, fs: fs, f: f, gen: gen, nextLSN: nextLSN, size: st.Size(), policy: policy,
		kick: make(chan struct{}, 1),
		// Everything recovery or creation left in the file is readable,
		// and it survived whatever got us here — both horizons start at
		// the log's tail.
		writtenLSN: nextLSN - 1,
		durableLSN: nextLSN - 1,
		bufLast:    nextLSN - 1,
		watch:      make(chan struct{}),
	}, nil
}

func walPath(dir string, gen uint64) string  { return dir + string(os.PathSeparator) + walName(gen) }
func ckptPath(dir string, gen uint64) string { return dir + string(os.PathSeparator) + ckptName(gen) }

// Append frames one record and buffers it, returning the record's LSN.
// Under SyncGrouped it kicks the flusher; under SyncAlways it returns
// only after the record is on disk. An I/O failure poisons the log:
// every later Append returns the same error, putting the engine in
// fail-stop mode until the store is reopened.
func (w *wal) Append(kind byte, body []byte) (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	lsn := w.nextLSN
	w.nextLSN++

	if w.buf == nil {
		w.buf = w.spare[:0]
		w.spare = nil
	}
	start := len(w.buf)
	w.buf = AppendFrame(w.buf, Record{LSN: lsn, Kind: kind, Body: body})
	w.size += int64(len(w.buf) - start)
	w.bufLast = lsn
	needSync := w.policy == SyncAlways
	needWrite := needSync || len(w.buf) >= flushThreshold
	w.mu.Unlock()

	if needWrite {
		if err := w.flush(needSync); err != nil {
			return 0, err
		}
	}
	if !needSync {
		select {
		case w.kick <- struct{}{}:
		default: // a kick is already pending; it covers this record too
		}
	}
	return lsn, nil
}

// flush drains the buffer to the file and optionally fsyncs.
func (w *wal) flush(sync bool) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	return w.flushLocked(sync)
}

// flushLocked is flush with flushMu already held: swap the buffer out
// under mu, then hit the disk with no committer-visible lock held. A
// concurrent SyncAlways committer whose record was drained by this call
// finds an empty buffer and a clean dirty flag — its own flush becomes
// the no-op confirming durability.
func (w *wal) flushLocked(sync bool) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	buf := w.buf
	last := w.bufLast
	w.buf = nil
	f := w.f
	w.mu.Unlock()

	if len(buf) > 0 {
		_, werr := f.Write(buf)
		w.mu.Lock()
		if w.spare == nil {
			w.spare = buf[:0]
		}
		if werr != nil && w.err == nil {
			w.err = fmt.Errorf("store: wal write: %w", werr)
		}
		err := w.err
		if err == nil && last > w.writtenLSN {
			// The drained frames are fully on the file: advance the
			// readable horizon and wake tailers.
			w.writtenLSN = last
			close(w.watch)
			w.watch = make(chan struct{})
		}
		w.mu.Unlock()
		if err != nil {
			return err
		}
		w.dirty.Store(true)
	}
	if sync && w.dirty.Load() {
		if err := f.Sync(); err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = fmt.Errorf("store: wal fsync: %w", err)
			}
			err = w.err
			w.mu.Unlock()
			return err
		}
		w.dirty.Store(false)
		// flushMu is held, so no write ran between our write and the
		// fsync: everything at or below writtenLSN is now durable.
		w.mu.Lock()
		w.durableLSN = w.writtenLSN
		w.mu.Unlock()
	}
	return nil
}

// Flush empties the group-commit buffer and fsyncs.
func (w *wal) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errClosed
	}
	w.mu.Unlock()
	return w.flush(true)
}

// Size returns the current generation's length including buffered bytes.
func (w *wal) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// LastLSN returns the LSN of the most recently appended record (0 when
// none).
func (w *wal) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// WrittenLSN returns the readable horizon: the highest LSN whose frame is
// fully in a log file.
func (w *wal) WrittenLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writtenLSN
}

// DurableLSN returns the highest LSN known fsynced.
func (w *wal) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableLSN
}

// Watch returns a channel closed the next time the readable horizon
// advances (or the log closes). Callers re-arm by calling again.
func (w *wal) Watch() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.watch
}

// poison injects a sticky log failure, exactly as if a write or fsync
// had just returned err: every later Append fails with it and the
// engine is in fail-stop mode until reopened. An already-poisoned log
// keeps its first error.
func (w *wal) poison(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
}

// failErr returns the sticky log error (nil while healthy).
func (w *wal) failErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Gen returns the active generation.
func (w *wal) Gen() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// Rotate durably finishes the current generation and starts a fresh one
// named after the cut — the LSN of the last record appended so far,
// which is what it returns. Index-mutation appends are excluded by the
// checkpoint protocol's stillness; records that race the rotation
// (subscription logging) stay correct either way because their replay is
// idempotent against the checkpoint's capture. Rotating twice with no
// intervening record keeps the current (empty) generation.
func (w *wal) Rotate() (uint64, error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return 0, errClosed
	}
	if err := w.flushLocked(true); err != nil {
		return 0, err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	cut := w.nextLSN - 1
	if cut == w.gen {
		return cut, nil // nothing appended since the last rotation
	}
	f, err := w.fs.OpenFile(walPath(w.dir, cut), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		w.err = fmt.Errorf("store: wal rotate: %w", err)
		return 0, w.err
	}
	w.f.Close()
	w.f = f
	w.gen = cut
	w.size = 0
	w.dirty.Store(false)
	return cut, nil
}

// Close flushes, fsyncs and closes the log. The closed flag is raised
// BEFORE the final drain: an Append racing Close fails with errClosed
// and its mutation aborts pre-publish, rather than being acknowledged
// with its record silently left in a buffer no one will ever write.
func (w *wal) Close() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	err := w.flushLocked(true)
	w.mu.Lock()
	defer w.mu.Unlock()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	// Wake every tailer for good: the horizon will never advance again.
	// flushLocked replaces the channel whenever it closes it, so this
	// close is the channel's first.
	close(w.watch)
	return err
}

// scanWAL reads every valid record of a log file in order, with the file
// offset one past each. The first frame that fails validation — short
// header, implausible length, bad CRC, truncated payload — ends the
// scan: everything before it is the durable prefix (the last end is its
// length in bytes), everything after is a torn tail or trailing
// corruption. A missing file is an empty log.
func scanWAL(fs fsfault.FS, path string) (recs []Record, ends []int64, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	r := bytes.NewReader(data)
	for {
		rec, err := ReadFrame(r)
		if err != nil {
			return recs, ends, nil // reading memory fails only at the end of the valid prefix
		}
		recs = append(recs, rec)
		ends = append(ends, int64(len(data)-r.Len()))
	}
}

// RecordEnds returns the end offset of every valid record of a WAL file,
// in order — the exact truncation points the crash-recovery property
// suite sweeps. Offset 0 (the empty prefix) is not included.
func RecordEnds(path string) ([]int64, error) {
	_, ends, err := scanWAL(fsfault.OS, path)
	return ends, err
}

// flusher is the group-commit loop. Each kick wakes it to write and fsync
// everything buffered, including bytes a flushThreshold write left
// unsynced; appends that land during the fsync leave a kick pending for
// the next group. It yields once first: the kick comes from inside a
// commit, and an fsync holds its scheduler P for the whole syscall, so
// flushing at once takes a P from the committer's parallel reconcile
// (update acks read ~20 % slower on 2 vCPUs). It exits when done closes.
func flusher(w *wal, done <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-w.kick:
			runtime.Gosched()
			_ = w.flush(true) // a failure is sticky in w.err
		case <-done:
			return
		}
	}
}

// errClosed reports appends to a closed store.
var errClosed = fmt.Errorf("store: closed")

// ErrClosed reports whether err means the store was closed.
func ErrClosed(err error) bool { return err == errClosed }
