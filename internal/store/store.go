// Package store is the durable storage engine beneath the facade: a
// versioned binary checkpoint format (building topology via the serde
// layer, object store and registered subscriptions), a CRC-checked
// write-ahead log of logical mutations appended — via the index's commit
// hook, inside the writer mutex — strictly before each MVCC snapshot
// publishes, and crash recovery that loads the newest valid checkpoint,
// replays the WAL tail (truncating any torn final record) and
// re-registers subscriptions. The package is the only owner of these
// binary formats: frame.go frames every record (on disk and on the
// replication stream) and codec.go encodes every field.
//
// Replay is deterministic by construction: checkpoints restore the
// building with exact ids and allocator state (serde.DecodeExact), so a
// replayed SplitPartition allocates the same partition ids the original
// execution did — and every record that allocates carries the expected
// ids, turning any divergence into a hard recovery error instead of a
// silent drift. Records are logical operations (an object batch, a door
// toggle, a split), not physical page images: the index is rebuilt from
// the restored state and the operations re-run through the ordinary
// maintenance algorithms (§III-C of the paper). That fold is State:
// recovery, replicas and historical reads all Load a checkpoint into one
// and Apply records to it.
//
// Durability levels: SyncAlways fsyncs inside each commit (every
// acknowledged mutation survives power loss); SyncGrouped (the default)
// acknowledges once the record is buffered and wakes a flusher that
// writes and fsyncs everything buffered, so a crash loses at most the
// records queued behind the write+fsync in flight. In both modes the log
// write is ordered before the snapshot publish, and a log I/O failure is
// sticky: the engine fails stop, refusing further mutations until
// reopened.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fsfault"
	"repro/internal/index"
	"repro/internal/serde"
)

// SyncPolicy selects when the WAL is fsynced.
type SyncPolicy uint8

const (
	// SyncGrouped acknowledges a mutation once its record is buffered;
	// the flusher it wakes writes and fsyncs everything buffered. A crash
	// loses at most the records queued behind the write+fsync in flight;
	// order is always preserved.
	SyncGrouped SyncPolicy = iota
	// SyncAlways fsyncs before a mutation is acknowledged.
	SyncAlways
)

// Options configures a store.
type Options struct {
	// Sync is the fsync policy; SyncGrouped by default.
	Sync SyncPolicy
	// CompactBytes is the WAL size past which the store signals for
	// compaction (CompactC); 64 MiB when zero, disabled when negative.
	CompactBytes int64
	// FS is the filesystem the store runs on; nil uses the real one.
	// Fault-injection tests and chaos drills substitute an
	// fsfault.Faulty here.
	FS fsfault.FS
}

const defaultCompactBytes = 64 << 20

func (o Options) withDefaults() Options {
	if o.CompactBytes == 0 {
		o.CompactBytes = defaultCompactBytes
	}
	if o.FS == nil {
		o.FS = fsfault.OS
	}
	return o
}

// Store is one open durable database directory: the active WAL plus the
// checkpoint generations. It attaches to an index as its commit hook;
// subscription registration changes are logged through LogSubscribe and
// LogUnsubscribe by the facade.
type Store struct {
	dir  string
	opts Options
	fs   fsfault.FS
	w    *wal

	compactC chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	closeMu sync.Mutex
	closed  bool
}

// RecoveryStats reports what Open found and did.
type RecoveryStats struct {
	// CheckpointLSN is the LSN of the checkpoint recovery started from.
	CheckpointLSN uint64
	// Replayed counts WAL records applied on top of the checkpoint.
	Replayed int
	// SkippedStale counts records at or below the checkpoint LSN —
	// subscription registrations that raced the checkpoint rotation and
	// are already captured in it.
	SkippedStale int
	// TruncatedBytes is the torn tail removed from the active log.
	TruncatedBytes int64
	// CorruptCheckpoints counts newer checkpoints that failed validation
	// and were skipped in favour of an older generation.
	CorruptCheckpoints int
}

// OpenInfo is recovery output the facade needs beyond the index: the
// subscriptions to re-register.
type OpenInfo struct {
	Subs  []SubscriptionRec
	Stats RecoveryStats
}

// Create initialises dir as a durable store over a live index: it
// writes the initial checkpoint (generation 0), opens the WAL and
// attaches the commit hook. The index must not be mutated concurrently
// with Create; subs is the subscription capture at this moment (empty
// for a fresh database). Fails if dir already holds a store.
func Create(dir string, idx *index.Index, subs []SubscriptionRec, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ckpts, wals, err := generations(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	if len(ckpts) > 0 || len(wals) > 0 {
		return nil, fmt.Errorf("store: %s already contains a store (use Open)", dir)
	}
	idx.RLock()
	data, err := Capture(idx, subs, 0)
	idx.RUnlock()
	if err != nil {
		return nil, err
	}
	if err := writeSnapshotFS(opts.FS, ckptPath(dir, 0), data); err != nil {
		return nil, err
	}
	w, err := openWAL(opts.FS, dir, 0, 1, opts.Sync)
	if err != nil {
		return nil, err
	}
	s := newStore(dir, opts, w)
	idx.SetCommitHook(s.onCommit)
	return s, nil
}

// Open recovers the store in dir: it loads the newest checkpoint that
// validates, rebuilds the index from it, replays every WAL record past
// the checkpoint in LSN order (truncating a torn final record), attaches
// the commit hook and resumes logging where the durable tail ended. The
// caller re-registers info.Subs and owns the returned index.
func Open(dir string, opts Options) (*Store, *index.Index, OpenInfo, error) {
	opts = opts.withDefaults()
	var info OpenInfo
	ckpts, wals, err := generations(opts.FS, dir)
	if err != nil {
		return nil, nil, info, err
	}
	if len(ckpts) == 0 {
		return nil, nil, info, fmt.Errorf("store: no checkpoint in %s", dir)
	}

	// Newest validating checkpoint wins; rename-atomicity makes a corrupt
	// one unlikely, but a damaged disk must degrade to the previous
	// generation, not to a refused open.
	var data Data
	var ckptGen uint64
	found := false
	for i := len(ckpts) - 1; i >= 0; i-- {
		d, derr := readSnapshotFS(opts.FS, ckptPath(dir, ckpts[i]))
		if derr != nil {
			info.Stats.CorruptCheckpoints++
			continue
		}
		data, ckptGen, found = d, ckpts[i], true
		break
	}
	if !found {
		return nil, nil, info, fmt.Errorf("store: no valid checkpoint in %s", dir)
	}
	info.Stats.CheckpointLSN = data.LSN

	st, err := Load(data)
	if err != nil {
		return nil, nil, info, err
	}

	// Replay the WAL generations at or past the checkpoint, oldest
	// first. Only the newest generation may legitimately end in a torn
	// record (it was the active log at crash time); it is truncated to
	// its valid prefix before appending resumes. A stale record is a
	// subscription registration that raced the checkpoint rotation: it is
	// already in the checkpoint's capture. A log gap (e.g. a half-finished
	// prune followed by a checkpoint fallback) is a hard error.
	activeGen := ckptGen
	var activeEnd int64
	for _, gen := range wals {
		if gen < ckptGen {
			continue
		}
		recs, ends, serr := scanWAL(opts.FS, walPath(dir, gen))
		if serr != nil {
			return nil, nil, info, serr
		}
		if gen >= activeGen {
			activeGen, activeEnd = gen, 0
			if len(ends) > 0 {
				activeEnd = ends[len(ends)-1]
			}
		}
		for _, rec := range recs {
			applied, err := st.Apply(rec)
			if errors.Is(err, ErrLogGap) {
				// Generations are named by the LSN they start after, so
				// the records missing here belong to walName(st.LSN()).
				return nil, nil, info, fmt.Errorf("store: replay %s: %s is missing or damaged: %w", walName(gen), walName(st.LSN()), err)
			}
			if err != nil {
				return nil, nil, info, fmt.Errorf("store: replay %s: %w", walName(gen), err)
			}
			if applied {
				info.Stats.Replayed++
			} else {
				info.Stats.SkippedStale++
			}
		}
	}
	info.Subs = st.Subs()

	if st, err := opts.FS.Stat(walPath(dir, activeGen)); err == nil && st.Size() > activeEnd {
		info.Stats.TruncatedBytes = st.Size() - activeEnd
		if err := opts.FS.Truncate(walPath(dir, activeGen), activeEnd); err != nil {
			return nil, nil, info, fmt.Errorf("store: truncate torn tail: %w", err)
		}
	}
	w, err := openWAL(opts.FS, dir, activeGen, st.LSN()+1, opts.Sync)
	if err != nil {
		return nil, nil, info, err
	}
	s := newStore(dir, opts, w)
	st.Idx.SetCommitHook(s.onCommit)
	return s, st.Idx, info, nil
}

func newStore(dir string, opts Options, w *wal) *Store {
	s := &Store{
		dir:      dir,
		opts:     opts,
		fs:       opts.FS,
		w:        w,
		compactC: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.wg.Add(1)
	go flusher(w, s.done, &s.wg)
	return s
}

// onCommit is the index commit hook: encode the mutation, append it to
// the group-commit buffer (or durably, under SyncAlways) and signal
// compaction when the log outgrew its threshold. It runs inside the
// index writer mutex, strictly before the snapshot publish, and returns
// the LSN the record was logged under so the publish stamps it onto the
// successor snapshot (Snapshot.LSN — the Seq↔LSN correlation).
func (s *Store) onCommit(m index.Mutation) (uint64, error) {
	kind, body, err := encodeMutation(m)
	if err != nil {
		return 0, err
	}
	lsn, err := s.w.Append(kind, body)
	if err != nil {
		return 0, err
	}
	s.maybeSignalCompact()
	return lsn, nil
}

// LogSubscribe appends a subscription registration. Call it after the
// engine assigned the handle; replay is idempotent, so the record may
// race a concurrent checkpoint in either direction.
func (s *Store) LogSubscribe(rec SubscriptionRec) error {
	_, err := s.w.Append(recSubscribe, appendSubscription(nil, rec))
	if err == nil {
		s.maybeSignalCompact()
	}
	return err
}

// LogUnsubscribe appends a subscription removal.
func (s *Store) LogUnsubscribe(id int64) error {
	_, err := s.w.Append(recUnsubscribe, appendI64(nil, id))
	if err == nil {
		s.maybeSignalCompact()
	}
	return err
}

func (s *Store) maybeSignalCompact() {
	if s.opts.CompactBytes > 0 && s.w.Size() > s.opts.CompactBytes {
		select {
		case s.compactC <- struct{}{}:
		default:
		}
	}
}

// CompactC signals when the WAL has outgrown Options.CompactBytes; the
// owner (the facade's compaction goroutine) responds by running the
// checkpoint protocol. At most one signal is pending at a time.
func (s *Store) CompactC() <-chan struct{} { return s.compactC }

// WALSize returns the active log generation's size in bytes, buffered
// appends included.
func (s *Store) WALSize() int64 { return s.w.Size() }

// Sync flushes the group-commit buffer and fsyncs the log — an explicit
// durability barrier under any policy.
func (s *Store) Sync() error { return s.w.Flush() }

// BeginCheckpoint rotates the log onto a fresh generation and returns
// the cut LSN the new checkpoint must cover. The caller MUST have
// stilled index mutators (index.RLock) before calling and must keep them
// stilled until it has captured the checkpoint data, so the cut cleanly
// separates records folded into the checkpoint from records that replay
// on top of it. Finish with CommitCheckpoint.
func (s *Store) BeginCheckpoint() (uint64, error) {
	return s.w.Rotate()
}

// CommitCheckpoint durably writes the captured data as generation
// data.LSN and prunes every older generation — the log compaction that
// folds the WAL into a fresh checkpoint. Old generations are deleted
// only after the new checkpoint is durable, so a crash at any point
// leaves a recoverable pair on disk. A closed store refuses the commit:
// shutdown must never race a checkpoint write or generation prune (the
// facade additionally serialises Close against in-flight compaction).
func (s *Store) CommitCheckpoint(data Data) error {
	if s.isClosed() {
		return errClosed
	}
	if err := writeSnapshotFS(s.fs, ckptPath(s.dir, data.LSN), data); err != nil {
		return err
	}
	ckpts, wals, err := generations(s.fs, s.dir)
	if err != nil {
		return err
	}
	for _, gen := range ckpts {
		if gen < data.LSN {
			s.fs.Remove(ckptPath(s.dir, gen))
		}
	}
	for _, gen := range wals {
		if gen < data.LSN {
			s.fs.Remove(walPath(s.dir, gen))
		}
	}
	return syncDir(s.fs, s.dir)
}

// FailStopped returns the sticky log error that put the store in
// fail-stop mode, nil while the log is healthy. In fail-stop mode every
// mutation is refused with this error while queries and the replication
// feed keep working — the degraded read-only state the serving tier
// reports through its health endpoints.
func (s *Store) FailStopped() error { return s.w.failErr() }

// Poison forces the store into fail-stop mode as if err had just come
// back from a log write: every later mutation fails with it until the
// store is reopened. Chaos drills use it to rehearse the degraded
// read-only path on a live daemon without breaking a real disk. A store
// already fail-stopped keeps its first error.
func (s *Store) Poison(err error) {
	if err == nil {
		err = fmt.Errorf("store: poisoned by chaos drill")
	}
	s.w.poison(err)
}

// isClosed reports whether Close ran (or is running).
func (s *Store) isClosed() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	return s.closed
}

// Close flushes and fsyncs the log and stops the group-commit flusher.
// The attached index's next mutation will be refused (fail-stop) — a
// closed store never silently drops durability.
func (s *Store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.done)
	s.wg.Wait()
	return s.w.Close()
}

// State is the log fold: an index rebuilt from a checkpoint, every WAL
// record applied on top of it, the standing-query registrations those
// records maintain, and the LSN reached. Crash recovery, replica
// streaming and history materialisation all advance a State, so "apply
// record N" has exactly one implementation. A State is not safe for
// concurrent use; the MVCC snapshots its index publishes are.
type State struct {
	// Idx is the index the records replay against.
	Idx  *index.Index
	lsn  uint64
	subs map[int64]SubscriptionRec
}

// Load rebuilds a State from checkpoint data: the building is restored
// id-exact (serde.DecodeExact) and the composite index built over it
// with the original construction options.
func Load(data Data) (*State, error) {
	b, objs, err := serde.DecodeExact(bytes.NewReader(data.BuildingJSON))
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint building: %w", err)
	}
	if len(objs) != 0 {
		return nil, fmt.Errorf("store: checkpoint building document unexpectedly carries objects")
	}
	idx, _, err := index.Build(b, data.Objects, data.IndexOpts)
	if err != nil {
		return nil, fmt.Errorf("store: rebuild index: %w", err)
	}
	subs := make(map[int64]SubscriptionRec, len(data.Subs))
	for _, sr := range data.Subs {
		subs[sr.ID] = sr
	}
	return &State{Idx: idx, lsn: data.LSN, subs: subs}, nil
}

// LSN returns the last WAL record the state covers.
func (s *State) LSN() uint64 { return s.lsn }

// Apply folds one record under the log's contiguity rule. LSNs are
// globally sequential, and the two deviations mean opposite things. A
// record at or below LSN() is stale — a subscription record that raced a
// checkpoint rotation, or a record shipped twice — and is skipped
// (false, nil). A record past LSN()+1 means history is missing (a pruned
// or damaged generation): folding it would silently drop mutations, so
// it is refused with an error wrapping ErrLogGap. Any other failure is
// impossible when the log matches an execution that succeeded against
// the same starting state; it is a hard replay error. A refused record
// leaves LSN() unchanged.
func (s *State) Apply(rec Record) (applied bool, err error) {
	if rec.LSN <= s.lsn {
		return false, nil
	}
	if rec.LSN != s.lsn+1 {
		return false, fmt.Errorf("record lsn %d after %d: %w", rec.LSN, s.lsn, ErrLogGap)
	}
	if err := s.applyRecord(rec); err != nil {
		return false, fmt.Errorf("apply record lsn %d: %w", rec.LSN, err)
	}
	s.lsn = rec.LSN
	return true, nil
}

// Subs returns the standing-query registrations, sorted by id.
func (s *State) Subs() []SubscriptionRec {
	out := make([]SubscriptionRec, 0, len(s.subs))
	for _, sr := range s.subs {
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Capture returns checkpoint data at the state's LSN.
func (s *State) Capture() (Data, error) { return Capture(s.Idx, s.Subs(), s.lsn) }

// applyRecord replays one WAL record: subscription records maintain the
// registration map, and every other record decodes to the mutation it
// logged and re-runs through Index.Apply. The ids the replayed mutation
// allocates must be the ones the log recorded.
func (s *State) applyRecord(rec Record) error {
	switch rec.Kind {
	case recSubscribe:
		sr, err := decodeSubscription(&reader{data: rec.Body})
		if err != nil {
			return err
		}
		if _, dup := s.subs[sr.ID]; !dup {
			s.subs[sr.ID] = sr
		}
		return nil
	case recUnsubscribe:
		r := &reader{data: rec.Body}
		id := r.i64()
		if r.err != nil {
			return r.err
		}
		delete(s.subs, id)
		return nil
	}
	m, err := decodeMutation(rec)
	if err != nil {
		return err
	}
	got, err := s.Idx.Apply(m)
	if err != nil {
		return err
	}
	if got.ResultA != m.ResultA || got.ResultB != m.ResultB {
		return fmt.Errorf("record kind %d allocated (%d,%d), log recorded (%d,%d): id timeline diverged",
			rec.Kind, got.ResultA, got.ResultB, m.ResultA, m.ResultB)
	}
	return nil
}
