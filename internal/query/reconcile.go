package query

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/object"
)

// Batch reconciliation. ApplyObjectUpdates and Topology are the write
// paths of the subscription engine: one index mutation (one snapshot swap)
// followed by one reconciliation pass over the subscriptions the router
// and the topology-epoch gate admit. A topology commit first scopes
// itself: only the subscriptions whose dependency radius reaches a changed
// unit are left stale for the pass to refresh, and the objects bucketed in
// changed units are routed to the rest as if they had moved.
//
// Fan-out model. Each affected subscription is one FanOut work item,
// GOMAXPROCS wide, and item i writes only its own slot (reconSlot): its
// events, its first error, and its old footprint when it refreshed
// wholesale. The slots live on the engine and are reused pass after pass
// under its mutex, events buffers included. Workers never touch shared
// state; every subscription
// reconciles against private cached engines, and the router, stats and
// event log are only touched serially under the engine mutex after the
// fan-out returns.
//
// Ordering contract. A pass's events are ordered by (subscription, object,
// kind). A pass emits at most one event per (subscription, object) pair,
// each item sorts its slot by (object, kind), and the serial epilogue
// concatenates the slots in ascending subscription id. The stream is
// therefore identical for every fan-out width, including width 1 (the
// serial oracle the equivalence tests compare against).

// reconLatWindow is the ring size of the per-batch reconciliation latency
// window Stats aggregates over.
const reconLatWindow = 512

// reconSlot is one affected subscription's output of a pass.
type reconSlot struct {
	// evs are the subscription's events, sorted by (object, kind).
	evs []SubEvent
	// err is the subscription's first evaluation error.
	err error
	// refreshed marks a wholesale refresh; its footprint change from
	// oldUnits must be re-advertised in the router (done serially after
	// the fan-out).
	refreshed bool
	oldUnits  []index.UnitID
}

// ApplyObjectUpdates applies a batch of object-layer mutations as ONE
// copy-on-write edit publishing ONE snapshot, then reconciles the affected
// subscriptions and returns their events sorted by (subscription, object).
// The batch is transactional: on an index error nothing is applied and no
// events are emitted.
func (e *Subscriptions) ApplyObjectUpdates(ups []index.ObjectUpdate) ([]SubEvent, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.standing) == 0 {
		return nil, e.p.idx.ApplyObjectUpdates(ups)
	}
	// Source units come from the pre-batch snapshot: a move away from a
	// footprint must still route to it so the leave is observed.
	before := e.p.Pin()
	ids := make([]object.ID, 0, len(ups))
	for i := range ups {
		if ups[i].Op == index.UpdateDelete {
			ids = append(ids, ups[i].ID)
		} else if ups[i].Object != nil {
			ids = append(ids, ups[i].Object.ID)
		}
	}
	touched := make(map[object.ID][]index.UnitID, len(ids))
	for _, id := range ids {
		touched[id] = append(touched[id], before.ObjectUnitsView(id)...)
	}
	if err := e.p.idx.ApplyObjectUpdates(ups); err != nil {
		return nil, err
	}
	cur := e.p.Pin()
	for _, id := range ids {
		touched[id] = append(touched[id], cur.ObjectUnitsView(id)...)
	}
	routed := e.route(touched)
	e.stats.Updates += uint64(len(touched))
	for _, objs := range routed {
		e.stats.RoutedPairs += uint64(len(objs))
	}
	evs, err := e.reconcile(cur, routed, false)
	e.record(evs)
	return evs, err
}

// reconcile runs one pass over the subscriptions an operation can
// affect: the routed ones (routed[id] lists the objects to re-evaluate
// against subscription id) plus — only when the current snapshot's
// topology epoch differs from the last one the engine reconciled against
// — every subscription still bound to an older epoch, which refreshes
// wholesale. Topology carries the subscriptions a commit cannot change to
// the new epoch before the pass, so the gate admits exactly the ones it
// left stale. The gate keeps the steady state O(routed): an object batch
// cannot change the epoch, so a full O(registered) scan happens at most
// once per topology change. A subscription whose refresh failed during
// such a scan stays stale but remains advertised in the router under its
// old footprint, so a later routed update (or the next topology
// operation) retries its refresh. topo marks a topology pass, which
// repairs a failed routed evaluation instead of reporting it (see
// evalFailed).
//
// The pass fans the affected subscriptions out one work item each (see
// the package note on the fan-out model and ordering contract); the first
// error by subscription order is reported alongside the events gathered
// so far, exactly as the serial reconciler did.
func (e *Subscriptions) reconcile(cur *index.Snapshot, routed map[int][]object.ID, topo bool) ([]SubEvent, error) {
	start := time.Now()
	ids := make([]int, 0, len(routed))
	if cur.TopoEpoch() != e.lastTopoEpoch {
		for id, s := range e.standing {
			if _, ok := routed[id]; ok || s.ex == nil || s.ex.s.TopoEpoch() != cur.TopoEpoch() {
				ids = append(ids, id)
			}
		}
		e.lastTopoEpoch = cur.TopoEpoch()
	} else {
		for id := range routed {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)

	e.stats.Batches++
	e.stats.AffectedSubs += uint64(len(ids))
	if len(ids) == 0 {
		e.noteBatchLatency(time.Since(start))
		return nil, nil
	}

	if n := len(ids) - cap(e.slots); n > 0 {
		e.slots = append(e.slots[:cap(e.slots)], make([]reconSlot, n)...)
	}
	slots := e.slots[:len(ids)]
	FanOut(len(ids), func(i int) {
		sl := &slots[i]
		*sl = reconSlot{evs: sl.evs[:0]} // SubEvent holds no pointers
		e.reconcileSubInto(sl, e.standing[ids[i]], cur, routed[ids[i]], topo)
		// All slot events share the subscription, so this orders by
		// (object, kind) — the within-subscription order of the contract.
		sortEvents(sl.evs)
	})

	// The serial epilogue, in ascending subscription id: concatenate the
	// slots, re-advertise refreshed footprints, keep the first error.
	total := 0
	for i := range slots {
		total += len(slots[i].evs)
	}
	var evs []SubEvent
	if total > 0 {
		evs = make([]SubEvent, 0, total)
	}
	var firstErr error
	for i := range slots {
		sl := &slots[i]
		evs = append(evs, sl.evs...)
		if sl.refreshed {
			e.stats.Refreshes++
			e.routeUpdate(e.standing[ids[i]], sl.oldUnits)
		}
		if firstErr == nil {
			firstErr = sl.err
		}
	}
	e.noteBatchLatency(time.Since(start))
	return evs, firstErr
}

// noteBatchLatency records one pass's wall time in the latency ring.
// Callers hold the writer mutex.
func (e *Subscriptions) noteBatchLatency(d time.Duration) {
	e.latWin[e.latCount%reconLatWindow] = d
	e.latCount++
}

// reconcileSubInto re-evaluates the routed objects against one
// subscription, appending events to its slot. A subscription whose
// cached engines cannot rebind (the topology changed) refreshes
// wholesale; when even the refresh fails (e.g. the query point's partition
// was removed) it keeps answering from its last good snapshot —
// reconciliation must not crash the stream.
func (e *Subscriptions) reconcileSubInto(sl *reconSlot, s *standingQuery, cur *index.Snapshot, objs []object.ID, topo bool) {
	if !s.rebind(cur) {
		e.refreshInto(sl, s)
		return
	}
	seq, lsn := cur.Seq(), cur.LSN()
	switch s.kind {
	case SubKNN:
		e.reconcileKNNInto(sl, s, seq, lsn, objs, topo)
	default:
		e.reconcileRangeInto(sl, s, seq, lsn, objs, topo)
	}
}

// evalFailed handles a routed evaluation that failed part-way through a
// subscription. An object batch reports the error (the first by
// subscription order is returned). A topology pass (topo) must not leave a
// carried subscription bound to the new epoch with objects unevaluated:
// it refreshes the subscription wholesale and, when even that fails,
// marks it stale so the next routed update or topology operation repairs
// it.
func (e *Subscriptions) evalFailed(sl *reconSlot, s *standingQuery, err error, topo bool) {
	if !topo {
		sl.err = err
		return
	}
	if !e.refreshInto(sl, s) {
		s.ex = nil
	}
}

func (e *Subscriptions) reconcileRangeInto(sl *reconSlot, s *standingQuery, seq, lsn uint64, objs []object.ID, topo bool) {
	for _, oid := range objs {
		in, err := s.decideRange(oid)
		if err != nil {
			e.evalFailed(sl, s, err, topo)
			return
		}
		was := s.members[oid]
		switch {
		case in && !was:
			s.members[oid] = true
			sl.evs = append(sl.evs, SubEvent{Sub: s.id, Object: oid, Kind: EventEnter, Distance: math.NaN(), Seq: seq, LSN: lsn})
		case !in && was:
			delete(s.members, oid)
			sl.evs = append(sl.evs, SubEvent{Sub: s.id, Object: oid, Kind: EventLeave, Distance: math.NaN(), Seq: seq, LSN: lsn})
		}
	}
}

func (e *Subscriptions) reconcileKNNInto(sl *reconSlot, s *standingQuery, seq, lsn uint64, objs []object.ID, topo bool) {
	for _, oid := range objs {
		if err := s.evalKNNCand(oid, s.cand); err != nil {
			e.evalFailed(sl, s, err, topo)
			return
		}
	}
	// Safe-distance exhaustion: the footprint radius upper-bounds the k-th
	// distance only while at least k candidates remain inside it. Fewer
	// means the true top-k may reach beyond the footprint — refresh at a
	// fresh radius. An infinite radius already covers everything.
	if len(s.cand) < s.k && !math.IsInf(s.phase.r, 1) {
		e.refreshInto(sl, s)
		return
	}
	e.rediffTopKInto(sl, s, seq, lsn, objs)
}

// rediffTopKInto recomputes a kNN subscription's top-k from its candidate
// cache and appends the delta against the previous result. Distances only
// change for re-evaluated objects, so only the routed ones can update:
// after a failed routed evaluation the cache can run ahead of memberDist,
// and a wider set would report that as updates.
func (e *Subscriptions) rediffTopKInto(sl *reconSlot, s *standingQuery, seq, lsn uint64, routedObjs []object.ID) {
	was, wasDist := s.members, s.memberDist
	s.members, s.memberDist = topkOf(s)
	sl.diffInto(s, was, wasDist, routedObjs, seq, lsn)
}

// refreshInto refreshes a subscription wholesale and appends the result
// delta to its slot (reconcile sorts the slot), reporting
// whether the refresh succeeded. A failed refresh is swallowed: the
// subscription stays on its last good state and a later operation repairs
// it. A successful one queues the footprint re-advertisement for the
// serial epilogue, since the shared router must stay untouched inside the
// parallel fan-out.
func (e *Subscriptions) refreshInto(sl *reconSlot, s *standingQuery) bool {
	old := s.units
	// A refresh installs fresh member maps, so the old ones stay intact.
	was, wasDist := s.members, s.memberDist
	if err := e.refresh(s); err != nil {
		return false
	}
	var reeval []object.ID // a kNN refresh re-evaluated every member's distance
	if s.kind == SubKNN {
		reeval = make([]object.ID, 0, len(s.members))
		for oid := range s.members {
			reeval = append(reeval, oid)
		}
	}
	sl.diffInto(s, was, wasDist, reeval, s.ex.s.Seq(), s.ex.s.LSN())
	sl.refreshed, sl.oldUnits = true, old
	return true
}

// diffInto appends the delta from a subscription's previous result (was,
// wasDist) to its current one (s.members, s.memberDist): enter and leave
// for membership changes and, for kNN, update for each re-evaluated
// object that stayed a member while its exact distance moved.
func (sl *reconSlot) diffInto(s *standingQuery, was map[object.ID]bool, wasDist map[object.ID]float64, reeval []object.ID, seq, lsn uint64) {
	for oid := range was {
		if !s.members[oid] {
			sl.evs = append(sl.evs, SubEvent{Sub: s.id, Object: oid, Kind: EventLeave, Distance: math.NaN(), Seq: seq, LSN: lsn})
		}
	}
	for oid := range s.members {
		if !was[oid] {
			d := math.NaN()
			if s.kind == SubKNN {
				d = s.memberDist[oid]
			}
			sl.evs = append(sl.evs, SubEvent{Sub: s.id, Object: oid, Kind: EventEnter, Distance: d, Seq: seq, LSN: lsn})
		}
	}
	if s.kind != SubKNN {
		return
	}
	for _, oid := range reeval {
		if was[oid] && s.members[oid] && wasDist[oid] != s.memberDist[oid] {
			sl.evs = append(sl.evs, SubEvent{Sub: s.id, Object: oid, Kind: EventUpdate, Distance: s.memberDist[oid], Seq: seq, LSN: lsn})
		}
	}
}

// Topology commits one topology mutation through the engine: Index.Apply
// runs under the engine mutex, then scope splits the standing queries.
// The ones whose dependency radius reaches a changed unit (or all of
// them, when the skeleton changed) stay stale and refresh wholesale in
// the same pass an object batch uses; the rest are carried to the
// new epoch with their door distances intact, and the objects bucketed in
// the changed units are routed to them exactly as if they had moved. The
// events come in the pass's (subscription, object, kind) order. It
// returns the committed mutation (with the ids Apply allocated) and
// Apply's error: a refresh that fails (e.g. the query point's partition
// was removed) leaves its subscription on its last good state, exactly as
// in an object batch, and the next topology operation retries it.
func (e *Subscriptions) Topology(m index.Mutation) (index.Mutation, []SubEvent, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	prev := e.p.Pin()
	m, err := e.p.idx.Apply(m)
	if err != nil || len(e.standing) == 0 {
		return m, nil, err
	}
	cur := e.p.Pin()
	// A topology pass repairs its own evaluation failures (evalFailed),
	// so reconcile reports no error here.
	evs, _ := e.reconcile(cur, e.route(e.scope(prev, cur)), true)
	e.record(evs)
	return m, evs, nil
}

// scope admits and carries the standing queries across a topology commit
// from prev to cur and returns the objects to route to the carried ones:
// every object bucketed in a changed unit, before or after the commit,
// with its units in both snapshots. A subscription is admitted — left
// stale for the pass to refresh — when it is already stale (bound to an
// epoch older than prev's, or without a phase), when the skeleton changed,
// or when the tree box of a changed unit in either snapshot lies within
// its dependency radius; every other one is carried. Topology passes do
// not count towards Updates or RoutedPairs: those measure object batches.
func (e *Subscriptions) scope(prev, cur *index.Snapshot) map[object.ID][]index.UnitID {
	if cur.TopoEpoch() == prev.TopoEpoch() {
		return nil
	}
	changed, all := cur.TopoDelta(prev)
	var boxes []geom.Rect3
	for _, u := range changed {
		for _, snap := range []*index.Snapshot{prev, cur} {
			if b, ok := snap.UnitBox(u); ok {
				boxes = append(boxes, b)
			}
		}
	}
	carried := 0
	for _, s := range e.standing {
		if all || s.ex == nil || s.ex.s.TopoEpoch() != prev.TopoEpoch() || s.reaches(boxes) {
			continue
		}
		s.carry(cur)
		carried++
	}
	e.stats.TopoCarried += uint64(carried)
	e.stats.TopoAdmitted += uint64(len(e.standing) - carried)
	if carried == 0 {
		return nil
	}
	touched := make(map[object.ID][]index.UnitID)
	for _, u := range changed {
		for _, snap := range []*index.Snapshot{prev, cur} {
			for _, oid := range snap.BucketObjectsView(u) {
				if _, ok := touched[oid]; !ok {
					touched[oid] = append(slices.Clip(prev.ObjectUnitsView(oid)), cur.ObjectUnitsView(oid)...)
				}
			}
		}
	}
	return touched
}

// FanOut runs fn(0..n-1) across min(GOMAXPROCS, n) goroutines via an
// atomic work-claiming cursor: workers claim the next unserved index until
// the range drains, which balances load even when per-item costs vary
// wildly. It returns after every call
// completed; one worker runs the calls serially on the caller's goroutine.
// fn must be safe to call from multiple goroutines on distinct indices;
// FanOut itself adds no locking around fn. Both the reconciler's
// per-subscription items and the serving layer's query batches run
// through it.
func FanOut(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sortEvents orders events by (subscription, object, kind) — the
// deterministic stream order the engine guarantees per operation.
func sortEvents(evs []SubEvent) {
	slices.SortFunc(evs, func(a, b SubEvent) int {
		if c := cmp.Compare(a.Sub, b.Sub); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Object, b.Object); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
}
