// Package replica implements WAL-shipping read replicas: a Replica
// bootstraps from a leader checkpoint, folds the shipped record stream
// into a store.State — the same fold crash recovery runs — and exposes
// the result exactly as a leader DB does, through Index (the MVCC
// snapshots range/kNN queries pin) and History (time travel over the
// applied window). Reads scale out across processes while the leader
// keeps sole ownership of the log.
//
// The replication contract, in terms of the store's LSN sequence:
//
//   - Bootstrap: fetch the leader's newest checkpoint (covering LSN c),
//     load a store.State from it, start streaming records with LSN > c.
//   - Contiguity: store.State.Apply's rule. Records at or below the
//     applied LSN are stale re-logs racing a leader-side rotation and
//     are skipped; a record JUMPING past applied+1 means the replica
//     missed history, is refused with store.ErrLogGap and never applied.
//   - Resync: on a gap (jump, or the leader signalling that compaction
//     pruned the replica's position) the replica discards its state and
//     re-bootstraps from a fresh checkpoint. Catch-up after arbitrary
//     downtime is therefore always possible: either the log still holds
//     the tail and replay resumes, or the checkpoint has advanced past it
//     and the replica resyncs — never a silent divergence.
//   - Durability horizon: records are shipped only after they are in the
//     leader's log file, and heartbeats advertise the leader's fsynced
//     LSN, so applied-vs-durable lag is observable at all times (Stats).
//
// Because checkpoints restore the building id-exact and the stream is the
// same deterministic mutation fold recovery replays, a replica at applied
// LSN n is byte-equal (building, objects) to the leader's durable state
// at LSN n. Promotion is exactly recovery: stop the stream and adopt the
// replayed index as a primary (the crash-failover harness exercises
// this).
package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/wire"
)

// Source is where a replica gets its data: a checkpoint to bootstrap
// from and the record stream to follow. wire.Client (network) and
// LocalSource (a same-process store: the leader daemon's own feed, tests
// and benchmarks) both satisfy it. StreamWAL delivers records and stream-control frames
// (heartbeats, gap signals) in order and returns when the context
// cancels, the stream ends, or fn errors.
type Source interface {
	FetchCheckpoint(ctx context.Context) ([]byte, uint64, error)
	StreamWAL(ctx context.Context, afterLSN uint64, fn func(store.Record) error) error
}

// Config tunes a replica's streaming loop.
type Config struct {
	// ReconnectDelay is the base pause before re-dialing a broken
	// stream; 100ms when zero. Consecutive failures double the pause
	// (with jitter) up to MaxReconnectDelay; a connection that delivered
	// at least one healthy frame resets the ladder to the base.
	ReconnectDelay time.Duration
	// MaxReconnectDelay caps the exponential backoff; 5s when zero.
	MaxReconnectDelay time.Duration
	// HistoryRecords bounds the in-memory history window time-travel
	// reads are served from: a fresh base state is captured every
	// HistoryRecords applied records and one previous segment is
	// retained, so the window spans 1-2x this many records. 8192 when
	// zero or negative.
	HistoryRecords int
}

// backoffDelay is the deterministic core of the reconnect ladder: the
// capped exponential delay for the streak-th consecutive failure
// (1-based), before jitter.
func backoffDelay(base, max time.Duration, streak int) time.Duration {
	d := base
	for i := 1; i < streak && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// errResync carries the gap decision out of the frame callback.
var errResync = errors.New("replica: stream gap; resync from checkpoint")

// Replica follows a leader through a Source. Create with New, start the
// stream with Start, read through Index at will (queries are wait-free
// against the current snapshot, concurrent with replay), and stop with
// Close or Promote.
type Replica struct {
	src Source
	cfg Config

	// st is the serving state, swapped wholesale on resync. Replay folds
	// records into it, publishing MVCC snapshots exactly as a leader does.
	st atomic.Pointer[store.State]

	// subsMu orders Subscriptions against Apply: a folded subscription
	// record edits the registrations a promoted replica restores.
	subsMu sync.Mutex

	applied       atomic.Uint64 // newest LSN applied to the index
	leaderDurable atomic.Uint64 // newest durable LSN a heartbeat advertised
	resyncs       atomic.Uint64
	connected     atomic.Bool
	healthy       atomic.Bool   // a frame arrived on the current connection
	reconnects    atomic.Uint64 // re-dials after stream failures
	backoffMs     atomic.Int64  // pause currently being sat out; 0 while streaming

	// hist is the bounded applied-record window historical reads are
	// served from; histProv reconstructs and caches AsOf states over it.
	hist     *history.Buffer
	histProv *history.Provider

	cancel context.CancelFunc
	done   chan struct{}
}

// New returns an unstarted replica over src.
func New(src Source, cfg Config) *Replica {
	if cfg.ReconnectDelay <= 0 {
		cfg.ReconnectDelay = 100 * time.Millisecond
	}
	if cfg.MaxReconnectDelay <= 0 {
		cfg.MaxReconnectDelay = 5 * time.Second
	}
	if cfg.MaxReconnectDelay < cfg.ReconnectDelay {
		cfg.MaxReconnectDelay = cfg.ReconnectDelay
	}
	r := &Replica{src: src, cfg: cfg}
	r.hist = history.NewBuffer(cfg.HistoryRecords)
	r.histProv = history.NewProvider(r.hist)
	return r
}

// Start bootstraps from the leader's newest checkpoint and launches the
// background streaming loop. It returns once the replica is serving (the
// bootstrap state is queryable); catch-up replay proceeds behind it.
func (r *Replica) Start(ctx context.Context) error {
	if err := r.bootstrap(ctx); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	r.cancel = cancel
	r.done = make(chan struct{})
	go r.run(ctx)
	return nil
}

// bootstrap (re)builds the replica's state from a fresh leader
// checkpoint. On resync the previous state keeps serving until the new
// one is ready, then swaps atomically — readers never observe a teardown.
func (r *Replica) bootstrap(ctx context.Context) error {
	raw, lsn, err := r.src.FetchCheckpoint(ctx)
	if err != nil {
		return fmt.Errorf("replica: checkpoint fetch: %w", err)
	}
	data, err := store.DecodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("replica: checkpoint decode: %w", err)
	}
	if data.LSN != lsn {
		return fmt.Errorf("replica: checkpoint advertises lsn %d but decodes to %d", lsn, data.LSN)
	}
	fold, err := store.Load(data)
	if err != nil {
		return fmt.Errorf("replica: checkpoint rebuild: %w", err)
	}
	r.st.Store(fold)
	r.applied.Store(data.LSN)
	r.hist.Reset(data)
	return nil
}

// run is the streaming loop: follow the record stream from the applied
// LSN, resync on gaps, re-dial on transport failures, exit on cancel.
// Re-dials pace themselves with capped exponential backoff plus jitter:
// a flapping or partitioned leader sees a thinning dial rate instead of
// a tight retry storm, and a connection that delivered even one healthy
// frame resets the ladder so recovery after a real outage is fast.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	streak := 0
	for {
		if ctx.Err() != nil {
			return
		}
		r.healthy.Store(false)
		r.connected.Store(true)
		err := r.src.StreamWAL(ctx, r.applied.Load(), r.onFrame)
		r.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		if r.healthy.Load() {
			streak = 0
		}
		streak++
		if errors.Is(err, errResync) {
			r.resyncs.Add(1)
			if berr := r.bootstrap(ctx); berr == nil {
				// A fresh checkpoint is serving: the leader is healthy,
				// start the next stream (and a future ladder) from scratch.
				streak = 0
				continue
			}
			// The leader may be mid-compaction or briefly down; keep
			// serving the old state and retry with backoff.
		}
		// Transport failure, failed resync or clean server close:
		// reconnect from the applied position after the backoff pause.
		d := backoffDelay(r.cfg.ReconnectDelay, r.cfg.MaxReconnectDelay, streak)
		d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1)) // jitter in [d/2, d]
		r.reconnects.Add(1)
		r.backoffMs.Store(int64(d / time.Millisecond))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return
		}
		r.backoffMs.Store(0)
	}
}

// onFrame handles one stream frame: control frames update the gauges,
// record frames replay under the contiguity rule.
func (r *Replica) onFrame(rec store.Record) error {
	switch rec.Kind {
	case store.HeartbeatKind:
		r.healthy.Store(true)
		r.observeDurable(rec.LSN)
		return nil
	case store.GapKind:
		// A gap is a resync order, not evidence of a healthy stream — it
		// does not reset the backoff ladder.
		r.observeDurable(rec.LSN)
		return errResync
	}
	r.healthy.Store(true)
	st := r.st.Load()
	r.subsMu.Lock()
	applied, err := st.Apply(rec)
	r.subsMu.Unlock()
	if errors.Is(err, store.ErrLogGap) {
		return errResync // missed history; replaying would diverge silently
	}
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	if !applied {
		return nil // stale re-log racing a leader rotation; already applied
	}
	r.applied.Store(rec.LSN)
	if r.hist.Append(rec) {
		// The open history segment is full: capture the state just
		// applied as a fresh base so the window slides instead of
		// growing. A capture failure only shortens retained history.
		if data, cerr := st.Capture(); cerr == nil {
			r.hist.Seal(data)
		}
	}
	r.observeDurable(rec.LSN) // a shipped record is on the leader's log file
	return nil
}

// observeDurable ratchets the leader-durability gauge.
func (r *Replica) observeDurable(lsn uint64) {
	for {
		cur := r.leaderDurable.Load()
		if lsn <= cur || r.leaderDurable.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Index returns the replica's current index (snapshot-published like any
// other): queries pin Index().Current() exactly as on a leader DB.
func (r *Replica) Index() *index.Index { return r.st.Load().Idx }

// AppliedLSN returns the newest LSN the replica has applied.
func (r *Replica) AppliedLSN() uint64 { return r.applied.Load() }

// Stats reports the lag gauge: applied position, the leader's advertised
// durable horizon, their distance in records, resync count, stream
// liveness, and the self-healing loop's reconnect counters.
func (r *Replica) Stats() wire.ReplicaStats {
	applied, durable := r.applied.Load(), r.leaderDurable.Load()
	var lag uint64
	if durable > applied {
		lag = durable - applied
	}
	return wire.ReplicaStats{
		AppliedLSN:       applied,
		LeaderDurableLSN: durable,
		LagRecords:       lag,
		Resyncs:          r.resyncs.Load(),
		Connected:        r.connected.Load(),
		Reconnects:       r.reconnects.Load(),
		BackoffMillis:    r.backoffMs.Load(),
	}
}

// History returns the replica's time-travel provider, serving AsOf
// reconstructions and log-scan analytics from the bounded window of
// records the replica itself applied — a replica answers historical
// reads from its own applied prefix, without asking the leader. The
// provider stays usable after Close and Promote (the window simply
// stops growing).
func (r *Replica) History() *history.Provider { return r.histProv }

// Subscriptions returns the standing-query registrations the replica has
// replayed, sorted by id, for re-registration on promotion.
func (r *Replica) Subscriptions() []store.SubscriptionRec {
	r.subsMu.Lock()
	defer r.subsMu.Unlock()
	return r.st.Load().Subs()
}

// Close stops the streaming loop. The replica keeps answering queries
// from its last applied state.
func (r *Replica) Close() {
	if r.cancel == nil {
		return
	}
	r.cancel()
	<-r.done
	r.cancel = nil
}

// Promote stops replication and hands over the replayed index and the
// standing-query registrations — everything a facade needs to adopt the
// replica as a primary. Index keeps returning the same index, but its
// state is now the caller's to mutate.
func (r *Replica) Promote() (*index.Index, []store.SubscriptionRec) {
	r.Close()
	return r.Index(), r.Subscriptions()
}
