package indoorq

// Durability: the facade over internal/store. A DB is either ephemeral
// (Open) or durable — attached to a store directory holding a
// checkpoint and a write-ahead log. Persist attaches
// a fresh directory to a live DB; OpenDir recovers a DB from one. Every
// mutator of a durable DB logs its logical operation to the WAL from
// inside the index writer mutex, strictly before the MVCC snapshot
// publishes; Subscribe and Unsubscribe log registration changes so
// standing queries survive restarts (their result state is recomputed on
// recovery, not persisted). The WAL is folded into a fresh checkpoint
// automatically once it outgrows DurabilityOptions.CompactBytes, and on
// demand through Compact.
//
// A WAL I/O failure is fail-stop: the store poisons itself and every
// subsequent mutation returns the original error; queries keep working.
// Close flushes and fsyncs the log; after Close the DB is read-only in
// the same fail-stop sense.

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/store"
)

// SyncPolicy selects when the write-ahead log is fsynced.
type SyncPolicy = store.SyncPolicy

// WAL fsync policies.
const (
	// SyncGrouped (the default) acknowledges a mutation once its record
	// is buffered; each append wakes a flusher that writes and fsyncs
	// everything buffered, and records arriving during that fsync form
	// the next group. A crash loses at most the records queued behind
	// the write+fsync in flight, order is always preserved, and
	// paced-churn throughput stays within a few percent of the WAL-off
	// baseline.
	SyncGrouped = store.SyncGrouped
	// SyncAlways fsyncs inside every mutation before it is acknowledged.
	SyncAlways = store.SyncAlways
)

// DurabilityOptions configures the attached store: fsync policy and the
// WAL size that triggers automatic compaction.
type DurabilityOptions = store.Options

// RecoveryStats reports what OpenDir found and did: the checkpoint it
// started from, the WAL records replayed on top, and the torn bytes
// truncated.
type RecoveryStats = store.RecoveryStats

// Persist attaches durable storage to a live DB: dir receives the
// initial checkpoint (building, objects, registered subscriptions) and
// an empty WAL, and from this call on every mutation is logged before it
// publishes. Fails if dir already holds a store — recover that with
// OpenDir instead. Attach before sharing the DB between goroutines: a
// mutation racing the attachment itself may precede the initial
// checkpoint and go unlogged.
func (db *DB) Persist(dir string, opts DurabilityOptions) error {
	if db.st != nil {
		return fmt.Errorf("indoorq: DB already persists to a store")
	}
	st, err := store.Create(dir, db.idx, db.subRecs(), opts)
	if err != nil {
		return err
	}
	db.attachStore(st)
	return nil
}

// OpenDir recovers a durable DB from a store directory: the newest valid
// checkpoint is loaded, the WAL tail replayed (a torn final record is
// truncated), subscriptions re-registered under their original handles,
// and logging resumes where the durable tail ended. RecoveryInfo reports
// what happened.
func OpenDir(dir string, opts DurabilityOptions) (*DB, error) {
	st, idx, info, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	db := AdoptIndex(idx, info.Subs)
	db.recovery = info.Stats
	db.attachStore(st)
	return db, nil
}

// Store returns the DB's attached durable store (nil for an ephemeral
// DB). The serving layer uses it to expose the replication feed — the
// newest checkpoint for replica bootstrap and the WAL tail for
// streaming.
func (db *DB) Store() *store.Store { return db.st }

// DurabilityErr reports the DB's degraded state: nil while healthy (or
// ephemeral), the sticky log error once the WAL has fail-stopped. A
// degraded DB keeps answering queries and serving the replication feed
// but refuses every mutation with this error — the serving tier
// surfaces it as a 503 read-only mode and flips /readyz.
func (db *DB) DurabilityErr() error {
	if db.st == nil {
		return nil
	}
	return db.st.FailStopped()
}

// RecoveryInfo returns the statistics of the recovery that produced this
// DB (zero for DBs not created by OpenDir).
func (db *DB) RecoveryInfo() RecoveryStats { return db.recovery }

// WALSize returns the active write-ahead-log generation's size in
// bytes, buffered appends included; 0 for an ephemeral DB.
func (db *DB) WALSize() int64 {
	if db.st == nil {
		return 0
	}
	return db.st.WALSize()
}

// Checkpoint writes the database's current state — building topology,
// object store and registered subscriptions — to path as one atomically
// renamed, CRC-checked snapshot file, loadable with LoadCheckpoint. It
// works on ephemeral and durable DBs alike and does not interact with
// the attached WAL (use Compact to fold the log). The building and
// object capture is one consistent point-in-time state; subscription
// registrations racing the call may or may not be included.
func (db *DB) Checkpoint(path string) error {
	data, err := db.capture(0)
	if err != nil {
		return err
	}
	return store.WriteSnapshot(path, data)
}

// LoadCheckpoint rebuilds an ephemeral DB from a snapshot file written
// by Checkpoint: the building is restored with exact ids, the index
// rebuilt with the original construction options, and subscriptions
// re-registered (results recomputed). The returned DB is not attached
// to a store; call Persist to make it durable again.
func LoadCheckpoint(path string) (*DB, error) {
	data, err := store.ReadSnapshot(path)
	if err != nil {
		return nil, err
	}
	st, err := store.Load(data)
	if err != nil {
		return nil, err
	}
	return AdoptIndex(st.Idx, st.Subs()), nil
}

// Compact folds the write-ahead log into a fresh checkpoint: the log
// rotates onto a new generation, the current state is captured while
// mutators are briefly stilled, and once the new checkpoint is durable
// every older generation is deleted. The store triggers this
// automatically past DurabilityOptions.CompactBytes; calling it
// explicitly is useful before a planned shutdown.
func (db *DB) Compact() error {
	if db.st == nil {
		return fmt.Errorf("indoorq: DB has no attached store")
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	data, err := func() (store.Data, error) {
		db.idx.RLock()
		defer db.idx.RUnlock()
		cut, err := db.st.BeginCheckpoint()
		if err != nil {
			return store.Data{}, err
		}
		return db.capturedLocked(cut)
	}()
	if err != nil {
		return err
	}
	return db.st.CommitCheckpoint(data)
}

// Sync flushes the group-commit buffer and fsyncs the WAL — an explicit
// durability barrier for SyncGrouped callers, who are otherwise
// acknowledged before their fsync.
func (db *DB) Sync() error {
	if db.st == nil {
		return nil
	}
	return db.st.Sync()
}

// Close detaches the DB from durability: the WAL is flushed, fsynced
// and closed, and the background compactor stopped. Afterwards the DB
// still answers queries, but every mutation is refused (fail-stop) —
// reopen with OpenDir to resume. Close is idempotent; on an ephemeral
// DB it is a no-op.
//
// Close serialises against in-flight compaction: it first stops the
// background compactor, then waits for any user-called Compact to finish
// (compactMu) before closing the store, so when Close returns no
// checkpoint write or generation prune is still running against the
// directory. A Compact that starts after Close fails with a closed-store
// error instead of racing the shutdown. The lock order — compactor
// stopped first, compactMu second — matters: the compactor goroutine
// itself runs Compact under compactMu, so taking the mutex before the
// goroutine exits would deadlock.
func (db *DB) Close() error {
	if db.st == nil {
		return nil
	}
	var err error
	db.closeOnce.Do(func() {
		close(db.closedC)
		db.compactWG.Wait()
		db.compactMu.Lock()
		defer db.compactMu.Unlock()
		err = db.st.Close()
	})
	return err
}

// attachStore wires a created or recovered store into the DB and starts
// the automatic-compaction goroutine.
func (db *DB) attachStore(st *store.Store) {
	db.st = st
	db.hist = history.NewProvider(history.StoreSource{St: st})
	db.closedC = make(chan struct{})
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		for {
			select {
			case <-db.closedC:
				return
			case <-st.CompactC():
				// A failed background compaction (e.g. disk full) leaves
				// the log growing but the data intact; the next trigger
				// retries.
				_ = db.Compact()
			}
		}
	}()
}

// capture assembles checkpoint data, stilling mutators for the duration.
func (db *DB) capture(lsn uint64) (store.Data, error) {
	db.idx.RLock()
	defer db.idx.RUnlock()
	return db.capturedLocked(lsn)
}

// capturedLocked assembles checkpoint data; the caller holds the index
// still (RLock). The subscription capture is wait-free (no engine lock
// is taken — an engine writer may itself be waiting on the index).
func (db *DB) capturedLocked(lsn uint64) (store.Data, error) {
	return store.Capture(db.idx, db.subRecs(), lsn)
}

// subRecs returns the current subscription registrations in serde form.
func (db *DB) subRecs() []store.SubscriptionRec {
	specs := db.subs.Specs()
	recs := make([]store.SubscriptionRec, 0, len(specs))
	for _, sp := range specs {
		recs = append(recs, subRecOf(sp))
	}
	return recs
}

func subRecOf(sp query.SubSpec) store.SubscriptionRec {
	rec := store.SubscriptionRec{
		ID: int64(sp.ID), X: sp.Q.Pt.X, Y: sp.Q.Pt.Y, Floor: int64(sp.Q.Floor),
		R: sp.R, K: int64(sp.K),
	}
	if sp.Kind == query.SubKNN {
		rec.Kind = store.SubscriptionKNN
	} else {
		rec.Kind = store.SubscriptionRange
	}
	return rec
}

func specOfRec(rec store.SubscriptionRec) query.SubSpec {
	sp := query.SubSpec{
		ID: int(rec.ID), Q: Pos(rec.X, rec.Y, int(rec.Floor)),
		R: rec.R, K: int(rec.K),
	}
	if rec.Kind == store.SubscriptionKNN {
		sp.Kind = query.SubKNN
	} else {
		sp.Kind = query.SubRange
	}
	return sp
}

// SubscriptionRec is a serialized standing-query registration — the form
// subscriptions take in checkpoints, in the WAL, and on the replication
// stream.
type SubscriptionRec = store.SubscriptionRec

// AdoptIndex wraps an already-built index in a DB facade and re-installs
// the standing-query registrations under their original handles. It is
// the last step of recovery and checkpoint loading, and of failover: a
// read replica's Promote hands back (index, subs), and AdoptIndex turns
// them into a primary. The DB is ephemeral; attach durability by
// checkpointing it into a fresh directory.
//
// A subscription whose initial evaluation fails against the adopted
// topology is installed empty and repaired by the next topology
// operation — the same degraded mode a live subscription enters when its
// refresh fails.
func AdoptIndex(idx *index.Index, subs []SubscriptionRec) *DB {
	db := newDB(idx)
	for _, rec := range subs {
		_ = db.subs.Restore(specOfRec(rec))
	}
	return db
}
