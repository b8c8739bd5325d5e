// Package history serves time-travel reads over the write-ahead log:
// AsOf(lsn) reconstructs the exact index state the system held after
// committing LSN — the newest checkpoint at or below the target plus a
// deterministic replay of the WAL prefix through the same store.State
// fold recovery and replication use — and pins it behind a read-only
// View answering the paper's distance-aware queries (range, kNN,
// partition location) against the past.
//
// Reconstruction is cached two ways. A small LRU of materialized states
// ("mats": store.State log folds) is advanced in place: an AsOf above a
// cached mat replays only the gap, never from scratch, so walking
// forward through history (replay tools, trajectory scans) costs one
// record per step instead of one checkpoint load per step. Snapshots
// pinned from a mat are immutable MVCC snapshots, so a View handed out
// at LSN a stays correct after its mat advances to b > a — a second LRU
// keeps those cheap Views around for exact-hit reuse. It is the only
// cache a backward revisit can hit: once the mat has advanced past a, a
// later AsOf(a) finds no mat at or below a and would otherwise reload a
// checkpoint.
//
// The same machinery powers two log-scan analytics that never
// materialize full per-LSN states: Trajectory (the ordered partition
// visits of one object) and Occupancy (enter/leave counts for one
// partition), both from a single pass over the records in the window.
//
// Bounds: an LSN above the source's horizon fails with ErrFuture; an
// LSN below the oldest retained checkpoint fails with ErrPruned — the
// compaction contract, mirroring replica resync: a pruned past cannot
// be caught by replay, and the reader gets a clean error, never a wrong
// answer.
package history

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/query"
	"repro/internal/store"
)

// ErrFuture reports an AsOf target beyond the source's readable horizon
// — the caller asked for a state that does not exist yet.
var ErrFuture = errors.New("history: lsn beyond the written horizon")

// ErrPruned reports that the requested point of history has been
// compacted away: no retained checkpoint covers it, so it cannot be
// reconstructed. Permanent for a given LSN (compaction only moves
// forward).
var ErrPruned = errors.New("history: pruned below the oldest retained checkpoint")

// Source is where a Provider reads history from: checkpoints to base a
// reconstruction on and the record stream to replay forward. The leader
// backs it with the durable store (StoreSource); a replica backs it
// with the in-memory buffer of records it has applied.
type Source interface {
	// Horizon returns the newest LSN readable from this source. AsOf
	// targets above it fail with ErrFuture.
	Horizon() uint64
	// CheckpointAtOrBelow returns the newest base state covering at
	// most lsn. Errors wrapping store.ErrLogGap mean the history below
	// lsn is pruned.
	CheckpointAtOrBelow(lsn uint64) (store.Data, error)
	// Records calls fn for each record in (after, to] in LSN order.
	// A gap (pruned generation) surfaces as store.ErrLogGap; fn errors
	// abort the walk.
	Records(after, to uint64, fn func(store.Record) error) error
}

// StoreSource adapts a durable *store.Store to Source — the leader-side
// history feed, reading checkpoints and sealed WAL generations straight
// from the store directory up to the written horizon.
type StoreSource struct {
	St *store.Store
}

// Horizon returns the store's written horizon.
func (s StoreSource) Horizon() uint64 { return s.St.WrittenLSN() }

// CheckpointAtOrBelow returns the newest on-disk checkpoint covering at
// most lsn.
func (s StoreSource) CheckpointAtOrBelow(lsn uint64) (store.Data, error) {
	return s.St.CheckpointAtOrBelow(lsn)
}

// Records walks the on-disk log from after (exclusive) to to
// (inclusive) through a private Tailer.
func (s StoreSource) Records(after, to uint64, fn func(store.Record) error) error {
	if to <= after {
		return nil
	}
	t, err := s.St.TailWAL(after)
	if err != nil {
		return err
	}
	defer t.Close()
	for t.Position() < to {
		recs, err := t.Next(256)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			// The tailer never blocks; an empty return below the target
			// means the log ends early (to was validated against the
			// horizon, so this is a torn read racing compaction).
			return fmt.Errorf("history: log ends at lsn %d before %d: %w", t.Position(), to, store.ErrLogGap)
		}
		for _, rec := range recs {
			if rec.LSN > to {
				return nil
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

const (
	// matCache is the number of materialized replayable states kept, each
	// one a full live index.
	matCache = 4
	// viewCache is the number of pinned per-LSN Views kept for exact-hit
	// reuse; backward AsOf revisits rely on it.
	viewCache = 64
)

// Stats counts the Provider's work, for /v1/stats and benchmarks.
type Stats struct {
	// AsOf is the number of AsOf calls served (errors included).
	AsOf uint64
	// ViewHits is the number served from the exact-LSN view cache.
	ViewHits uint64
	// Materializations is the number of from-checkpoint rebuilds — the
	// expensive path a warm cache avoids.
	Materializations uint64
	// Advances is the number of nearest-ancestor reuses: a cached state
	// replayed forward in place instead of rebuilding from a checkpoint.
	Advances uint64
	// ReplayedRecords is the total records folded across rebuilds and
	// advances.
	ReplayedRecords uint64
	// Trajectories and Occupancies count the log-scan analytics served.
	Trajectories uint64
	Occupancies  uint64
	// ScannedRecords is the total records decoded by log-scan analytics.
	ScannedRecords uint64
}

// Provider serves historical reads from a Source, caching materialized
// states and pinned views. Safe for concurrent use; reconstruction is
// serialized under one mutex (historical reads are a diagnostic /
// analytic path, not the serving hot path).
type Provider struct {
	src Source

	mu    sync.Mutex
	mats  *list.List // *store.State, most recently used first
	views *list.List // *View, most recently used first
	stats Stats
}

// NewProvider builds a Provider over src.
func NewProvider(src Source) *Provider {
	return &Provider{src: src, mats: list.New(), views: list.New()}
}

// Horizon returns the newest LSN this provider can reconstruct.
func (p *Provider) Horizon() uint64 { return p.src.Horizon() }

// Stats returns a snapshot of the provider's counters.
func (p *Provider) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// View is a pinned read-only handle on the state as of one LSN. It
// holds an immutable MVCC snapshot, so it stays valid indefinitely —
// including after the materialized state it was pinned from advances to
// serve a later AsOf.
type View struct {
	lsn  uint64
	snap *index.Snapshot
	// proc only carries query options: every query runs the *On variant
	// against snap.
	proc *query.Processor
}

// LSN returns the LSN the view is pinned at.
func (v *View) LSN() uint64 { return v.lsn }

// Snapshot returns the underlying immutable index snapshot.
func (v *View) Snapshot() *index.Snapshot { return v.snap }

// RangeQuery runs a distance-aware range query (Eq. 8 / Algorithm 1)
// against the pinned state.
func (v *View) RangeQuery(q indoor.Position, r float64) ([]query.Result, *query.Stats, error) {
	return v.proc.RangeQueryOn(v.snap, q, r)
}

// KNNQuery runs a distance-aware k nearest neighbors query (Algorithm
// 2) against the pinned state.
func (v *View) KNNQuery(q indoor.Position, k int) ([]query.Result, *query.Stats, error) {
	return v.proc.KNNQueryOn(v.snap, q, k)
}

// LocatePartition returns the partition containing pos in the pinned
// state (-1 when none).
func (v *View) LocatePartition(pos indoor.Position) indoor.PartitionID {
	return v.snap.LocatePartition(pos)
}

// AsOf returns a view of the state after committing lsn. Served from
// the view cache on an exact hit; otherwise the nearest cached state at
// or below lsn is replayed forward in place, and only when none exists
// is a checkpoint loaded and rebuilt. lsn above the horizon fails with
// ErrFuture; lsn below the oldest retained checkpoint with ErrPruned.
func (p *Provider) AsOf(lsn uint64) (*View, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.asOfLocked(lsn)
}

func (p *Provider) asOfLocked(lsn uint64) (*View, error) {
	p.stats.AsOf++
	if h := p.src.Horizon(); lsn > h {
		return nil, fmt.Errorf("history: as-of lsn %d, horizon %d: %w", lsn, h, ErrFuture)
	}
	for e := p.views.Front(); e != nil; e = e.Next() {
		if v := e.Value.(*View); v.lsn == lsn {
			p.views.MoveToFront(e)
			p.stats.ViewHits++
			return v, nil
		}
	}
	m, err := p.matAtLocked(lsn)
	if err != nil {
		return nil, err
	}
	v := &View{lsn: lsn, snap: m.Idx.Current(), proc: query.New(m.Idx, query.Options{})}
	p.views.PushFront(v)
	for p.views.Len() > viewCache {
		p.views.Remove(p.views.Back())
	}
	return v, nil
}

// CaptureAt reconstructs the state as of lsn and exports it as
// checkpoint data — a byte-level historical export. Because replay is
// deterministic, the result is identical to the checkpoint a crashed
// process would produce after recovering a log truncated at lsn; the
// recovery oracle tests pin exactly that equivalence. Same bounds as
// AsOf (ErrFuture / ErrPruned).
func (p *Provider) CaptureAt(lsn uint64) (store.Data, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h := p.src.Horizon(); lsn > h {
		return store.Data{}, fmt.Errorf("history: capture at lsn %d, horizon %d: %w", lsn, h, ErrFuture)
	}
	m, err := p.matAtLocked(lsn)
	if err != nil {
		return store.Data{}, err
	}
	return m.Capture()
}

// matAtLocked returns a materialized state advanced to exactly lsn,
// reusing the nearest cached ancestor when one exists.
func (p *Provider) matAtLocked(lsn uint64) (*store.State, error) {
	var best *list.Element
	for e := p.mats.Front(); e != nil; e = e.Next() {
		m := e.Value.(*store.State)
		if m.LSN() > lsn {
			continue
		}
		if best == nil || m.LSN() > best.Value.(*store.State).LSN() {
			best = e
		}
	}
	var m *store.State
	if best != nil {
		p.mats.MoveToFront(best)
		m = best.Value.(*store.State)
		if m.LSN() < lsn {
			p.stats.Advances++
		}
	} else {
		data, err := p.src.CheckpointAtOrBelow(lsn)
		if err != nil {
			if errors.Is(err, store.ErrLogGap) {
				return nil, fmt.Errorf("history: as-of lsn %d: %w", lsn, ErrPruned)
			}
			return nil, err
		}
		if m, err = store.Load(data); err != nil {
			return nil, err
		}
		p.stats.Materializations++
		p.mats.PushFront(m)
		for p.mats.Len() > matCache {
			p.mats.Remove(p.mats.Back())
		}
	}
	if err := p.advance(m, lsn); err != nil {
		return nil, err
	}
	return m, nil
}

// advance replays m forward to exactly lsn. A mat left mid-way by an
// error is still a valid state at its reached LSN and stays cached.
func (p *Provider) advance(m *store.State, lsn uint64) error {
	if m.LSN() >= lsn {
		return nil
	}
	err := p.src.Records(m.LSN(), lsn, func(rec store.Record) error {
		applied, err := m.Apply(rec)
		if applied {
			p.stats.ReplayedRecords++
		}
		return err
	})
	if errors.Is(err, store.ErrLogGap) {
		return fmt.Errorf("history: replay to lsn %d: %w", lsn, ErrPruned)
	}
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if m.LSN() != lsn {
		return fmt.Errorf("history: replay stopped at lsn %d of %d: %w", m.LSN(), lsn, ErrPruned)
	}
	return nil
}
