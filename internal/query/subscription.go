package query

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distance"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Subscriptions is the scalable continuous-query engine: a registry of
// standing range and kNN queries, an inverted unit→query router, and a
// batch reconciler. Each subscription keeps the output of its filtering and
// subgraph phases (the candidate-unit footprint and the door-distance
// engine); an object update batch is routed through the inverted index to
// only the subscriptions whose footprint contains a source or destination
// unit of an updated object, so per-update cost scales with the *affected*
// queries, not with every registered one.
//
// Range subscriptions keep their member set. kNN subscriptions additionally
// keep exact distances for every object within the footprint radius (the
// safe-distance discipline: the footprint was filtered at a radius R that
// upper-bounds the k-th distance, so the k nearest are always among the
// cached candidates while at least k remain; when churn shrinks the cache
// below k the subscription refreshes wholesale at a fresh radius).
//
// Concurrency: a Subscriptions engine is safe for concurrent use. Update
// operations (Subscribe*, Unsubscribe, ApplyObjectUpdates, Topology)
// serialise on an internal mutex, so the event streams they return are
// consistent with SOME serial order of the operations —
// replaying that order serially yields the same events and the same final
// memberships. Results, TopK, NumSubscriptions and Stats are readers and
// run in parallel with each other and with ordinary queries. While the
// engine is in concurrent use, route every index update that should be
// reflected in standing results through the engine; direct index writes
// are still safe but may interleave between an update and its
// reconciliation.
type Subscriptions struct {
	mu       sync.RWMutex
	p        *Processor
	standing map[int]*standingQuery
	nextID   int

	// inv is the inverted unit→query index: inv[u] lists the ids of the
	// subscriptions whose candidate-unit footprint contains unit u. Unit
	// ids are dense and never reused, so a plain slice indexes it without
	// hashing.
	inv [][]int

	// shards is the reconciliation shard width; 0 (the default) resolves
	// to runtime.GOMAXPROCS(0) at each pass. shardBufs holds the
	// core-local per-shard arenas, reused across batches.
	shards    int
	shardBufs []reconShard

	// latWin is a ring of recent per-batch reconciliation wall times;
	// latCount is the total batches recorded. Stats derives the
	// mean/p50/p99 latency over the window from it.
	latWin   [reconLatWindow]time.Duration
	latCount uint64

	// log accumulates events for DrainEvents when logging is enabled (the
	// facade's pull API); with the log off, events are only returned per
	// call. The log is bounded by logCap (DefaultEventLogCap unless
	// overridden): a consumer that stops draining — a dead streaming
	// client, say — must cost bounded memory, not an OOM. When the bound is
	// hit the oldest events are dropped and the overflow flag raised;
	// DrainEventsOverflow reports it so the consumer knows replay is broken
	// and re-fetches full result sets.
	logging     bool
	log         []SubEvent
	logCap      int
	logOverflow bool

	// lastTopoEpoch is the topology epoch of the last snapshot a
	// reconciliation pass ran against: while it matches the current
	// snapshot, a pass only visits router-admitted subscriptions instead
	// of scanning the whole registry for topology changes.
	lastTopoEpoch uint64

	// specs holds the registered specs in ascending handle order, owned
	// under mu. specsPub is its lock-free copy-on-write view, republished
	// at every registration change as specs capped at its length, so an
	// append that fits specs' capacity writes where no published view
	// reaches; an insert or a delete anywhere else copies. The durable
	// store's checkpoint capture reads the view while holding the index's
	// writer-mutex read side — taking mu there instead would deadlock
	// against an engine writer waiting for the index.
	specs    []SubSpec
	specsPub atomic.Pointer[[]SubSpec]

	stats SubStats
}

// SubKind selects a subscription's query kind.
type SubKind uint8

const (
	// SubRange is a standing iRQ: all objects within expected distance R.
	SubRange SubKind = iota
	// SubKNN is a standing ikNNQ: the K objects with smallest expected
	// distances, ordered by (distance, id).
	SubKNN
)

// EventKind classifies a subscription event.
type EventKind uint8

const (
	// EventEnter reports an object entering the result set.
	EventEnter EventKind = iota
	// EventLeave reports an object leaving the result set.
	EventLeave
	// EventUpdate reports a kNN member whose exact distance changed while
	// it stayed in the top-k.
	EventUpdate
)

func (k EventKind) String() string {
	switch k {
	case EventEnter:
		return "enter"
	case EventLeave:
		return "leave"
	case EventUpdate:
		return "update"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// SubEvent reports one result change of a subscription.
//
// Ordering guarantee: the events of one update operation are sorted by
// (Sub, Object); successive operations append in their serialisation
// order, and Seq (the index snapshot the reconciliation evaluated against)
// is non-decreasing across a drained stream. Replaying a subscription's
// enter/leave events over its initial result set reproduces its current
// result set.
type SubEvent struct {
	Sub    int
	Object object.ID
	Kind   EventKind
	// Distance is the exact expected distance for kNN enter/update events;
	// NaN for range events and leaves (it is not re-evaluated on exit).
	Distance float64
	// Seq is the publication sequence of the snapshot the event was
	// derived from.
	Seq uint64
	// LSN is the WAL position of the commit that produced the snapshot —
	// the durability-timeline address of the same state Seq identifies on
	// the MVCC timeline. Zero on an ephemeral (non-durable) engine.
	// Feeding it to a historical AsOf read reconstructs exactly the
	// membership state this event stream describes.
	LSN uint64
}

// SubStats reports cumulative reconciliation counters: the observability
// behind the routed-vs-registered scaling claim.
type SubStats struct {
	// Batches counts reconciled update batches, a topology pass counting
	// as one batch of no updates; Updates counts the object updates inside
	// them.
	Batches, Updates uint64
	// RoutedPairs counts (subscription, object) re-evaluations the router
	// admitted; AffectedSubs counts subscriptions touched per batch,
	// cumulatively. RoutedPairs/Updates ≪ NumSubscriptions is the routing
	// win.
	RoutedPairs, AffectedSubs uint64
	// Refreshes counts wholesale re-runs of a subscription's filtering and
	// subgraph phases (topology changes, kNN candidate exhaustion).
	Refreshes uint64
	// TopoAdmitted counts, per topology commit, the subscriptions admitted
	// to wholesale refresh (their dependency radius reaches a changed
	// unit, or they were already stale); TopoCarried counts the ones
	// carried to the new epoch with their door distances intact.
	TopoAdmitted, TopoCarried uint64
	// EventsDropped counts events discarded by event-log overflow (the
	// log's cap was hit before the consumer drained).
	EventsDropped uint64
	// ReconcileShards is the shard width reconciliation passes currently
	// fan out over (GOMAXPROCS unless pinned with SetShards).
	ReconcileShards int
	// ReconcileBatchMean/P50/P99 are per-batch reconciliation wall-time
	// aggregates over the most recent reconLatWindow batches; zero until
	// the first batch.
	ReconcileBatchMean time.Duration
	ReconcileBatchP50  time.Duration
	ReconcileBatchP99  time.Duration
}

// standingQuery is one subscription: the phase of its last full
// evaluation, kept, plus its current result state. The zero-value maps are
// only for its own kind.
type standingQuery struct {
	id   int
	kind SubKind
	q    indoor.Position
	r    float64 // SubRange only: the query radius
	k    int     // SubKNN only

	// phase is the kept filtering and subgraph output. A kNN
	// subscription's phase radius is its footprint (safe) radius R: an
	// upper bound on the k-th distance established at the last refresh
	// (+Inf when fewer than k objects were reachable). Refreshes build a
	// complete replacement phase and swap it in only after every
	// evaluation succeeded, so a failed refresh can never leave a
	// subscription half-built — it keeps its previous phase, result state
	// and router advertisement intact.
	phase

	// members is the current result set (range membership, or the kNN
	// top-k). memberDist and cand are kNN-only: memberDist holds the
	// members' exact distances as last reported, cand the exact distances
	// of every object within R.
	members    map[object.ID]bool
	memberDist map[object.ID]float64
	cand       map[object.ID]float64
	kb         *distance.KBound
}

// rebind retargets the phase's cached engines at a newer snapshot of the
// same topology epoch. It fails when the phase is stale — bound to an
// older epoch, because Topology admitted it for refresh or its refresh
// failed — and the caller then refreshes instead; a phase Topology
// carried is already bound to the current epoch and rebinds.
func (ph *phase) rebind(cur *index.Snapshot) bool {
	if ph.ex == nil || ph.ex.s.TopoEpoch() != cur.TopoEpoch() {
		return false
	}
	if !ph.eng.Rebind(cur) {
		return false
	}
	if ph.full != nil && !ph.full.Rebind(cur) {
		return false
	}
	ph.ex.s = cur
	return true
}

// dependRadius is how far, by the Equation 10 bound around the query
// point, the topology the phase's answers depend on extends. Every answer
// is an expected distance (§II-C) or a bracket of one, computed from door
// distances by one of refinement's two rungs: the phase engine, whose door
// distances lie within the phase radius (r, or the kNN kbound R), or the
// full engine, whose accumulated Reach bounds the door distances it handed
// out. A topology change farther out than the larger cannot move any of
// them.
func (ph *phase) dependRadius() float64 {
	return max(ph.r, ph.fullReach)
}

// reaches reports whether any of the boxes — the tree boxes of the units
// a topology commit changed — lies within the phase's dependency radius.
func (ph *phase) reaches(boxes []geom.Rect3) bool {
	r := ph.dependRadius()
	for _, b := range boxes {
		if ph.ex.geomBound(b) <= r {
			return true
		}
	}
	return false
}

// carry moves the phase to cur across a topology commit that changed no
// unit within its dependency radius: the phase engine keeps its door
// distances (distance.Engine.Carry), while the full engine is released —
// it is unrestricted, so its distances beyond its reach may be stale —
// and rebuilt on first need. The footprint, anchor and result state stay
// as they are.
func (ph *phase) carry(cur *index.Snapshot) {
	ph.eng.Carry(cur)
	ph.full.Close()
	ph.full = nil
	ph.ex.s = cur
}

// NewSubscriptions returns a subscription engine over the index.
func NewSubscriptions(idx *index.Index) *Subscriptions {
	return &Subscriptions{
		p:             New(idx, Options{}),
		standing:      make(map[int]*standingQuery),
		lastTopoEpoch: idx.Current().TopoEpoch(),
	}
}

// SetShards pins the reconciliation shard width. n <= 0 restores the
// default (runtime.GOMAXPROCS(0) at each pass). The merged event stream is
// identical for every width — sharding changes wall time, never output.
func (e *Subscriptions) SetShards(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.shards = n
}

// shardWidth resolves the effective shard count of a pass. Callers hold
// the engine mutex (any side).
func (e *Subscriptions) shardWidth() int {
	if e.shards > 0 {
		return e.shards
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultEventLogCap is the event-log bound EnableEventLog installs: past
// it the oldest events are dropped and the overflow flag raised. Generous
// enough that any consumer draining at all never sees it; small enough
// that a dead consumer costs bounded memory.
const DefaultEventLogCap = 1 << 20

// EnableEventLog turns on event accumulation for DrainEvents, bounded at
// DefaultEventLogCap events (SetEventLogCap adjusts). Drain regularly: a
// log that overflows drops its oldest events, and replay-based consumers
// must then re-fetch full result sets (DrainEventsOverflow reports the
// overflow explicitly).
func (e *Subscriptions) EnableEventLog() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logging = true
	if e.logCap == 0 {
		e.logCap = DefaultEventLogCap
	}
}

// SetEventLogCap bounds the event log at n events; n <= 0 removes the
// bound (the pre-cap behaviour, for consumers that guarantee draining).
// Shrinking the cap below the current backlog drops the oldest events at
// the next append, not immediately.
func (e *Subscriptions) SetEventLogCap(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n <= 0 {
		e.logCap = -1
		return
	}
	e.logCap = n
}

// DrainEvents returns and clears the accumulated event log, in
// serialisation order. It returns nil unless EnableEventLog was called.
// Consumers that rely on event replay must use DrainEventsOverflow — this
// variant silently discards the overflow signal.
func (e *Subscriptions) DrainEvents() []SubEvent {
	evs, _ := e.DrainEventsOverflow()
	return evs
}

// DrainEventsOverflow returns and clears the accumulated event log and
// reports whether it overflowed since the previous drain. On overflow the
// oldest events were dropped: the returned slice is NOT a complete replay
// stream, and the consumer must re-fetch the current result sets
// (Results/TopK) instead of replaying.
func (e *Subscriptions) DrainEventsOverflow() ([]SubEvent, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out, over := e.log, e.logOverflow
	e.log, e.logOverflow = nil, false
	return out, over
}

// record appends events to the log when logging is enabled, enforcing the
// cap: the newest logCap events are kept, older ones dropped with the
// overflow flag raised. Callers hold the writer mutex.
func (e *Subscriptions) record(evs []SubEvent) {
	if !e.logging || len(evs) == 0 {
		return
	}
	e.log = append(e.log, evs...)
	if e.logCap > 0 && len(e.log) > e.logCap {
		dropped := len(e.log) - e.logCap
		e.log = append(e.log[:0], e.log[dropped:]...)
		e.logOverflow = true
		e.stats.EventsDropped += uint64(dropped)
	}
}

// SubscribeRange installs a standing range query and returns its handle
// and the initial members (ascending by id).
func (e *Subscriptions) SubscribeRange(q indoor.Position, r float64) (int, []object.ID, error) {
	return e.subscribe(&standingQuery{kind: SubRange, q: q, r: r})
}

// SubscribeKNN installs a standing k-nearest-neighbour query and returns
// its handle and the initial top-k member ids (ascending by id; use TopK
// for the distance-ordered view).
func (e *Subscriptions) SubscribeKNN(q indoor.Position, k int) (int, []object.ID, error) {
	if k <= 0 {
		return 0, nil, fmt.Errorf("query: kNN subscription needs k > 0, got %d", k)
	}
	return e.subscribe(&standingQuery{kind: SubKNN, q: q, k: k, kb: distance.NewKBound(k)})
}

func (e *Subscriptions) subscribe(s *standingQuery) (int, []object.ID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.id = e.nextID
	s.members = make(map[object.ID]bool)
	if err := e.refresh(s); err != nil {
		return 0, nil, err
	}
	e.nextID++
	e.standing[s.id] = s
	e.routeAdd(s)
	e.addSpec(s)
	return s.id, membersSorted(s), nil
}

// SubSpec is the durable identity of one subscription: its handle and
// query spec, without any result state. The durable store checkpoints
// these and recovery re-registers them through Restore — results are
// recomputed, not persisted.
type SubSpec struct {
	ID   int
	Kind SubKind
	Q    indoor.Position
	// R is the query radius of a range subscription; kNN subscriptions
	// leave it zero (their footprint radius is derived state).
	R float64
	K int // SubKNN only
}

// Specs returns the registered subscriptions' durable identities in
// ascending handle order. The read is wait-free against a published
// copy-on-write view, so it is safe from any locking context — in
// particular from the durable store's checkpoint capture, which runs
// while holding the index still.
func (e *Subscriptions) Specs() []SubSpec {
	if p := e.specsPub.Load(); p != nil {
		return *p
	}
	return nil
}

// addSpec registers s's spec at its place in handle order and
// republishes the view. A Subscribe's handle exceeds every registered
// one, as does a Restore's in the ascending order recovery replays, so
// the common case appends. Callers hold the writer mutex.
func (e *Subscriptions) addSpec(s *standingQuery) {
	sp := SubSpec{ID: s.id, Kind: s.kind, Q: s.q, K: s.k}
	if s.kind == SubRange {
		sp.R = s.r
	}
	if i := e.specIndex(s.id); i < len(e.specs) {
		e.specs = slices.Concat(e.specs[:i], []SubSpec{sp}, e.specs[i:])
	} else {
		e.specs = append(e.specs, sp)
	}
	e.publishSpecs()
}

// removeSpec drops a registered handle's spec and republishes the view.
// It always copies: shrinking in place would let a later append
// overwrite an element a published view still holds. Callers hold the
// writer mutex.
func (e *Subscriptions) removeSpec(id int) {
	i := e.specIndex(id)
	e.specs = slices.Concat(e.specs[:i], e.specs[i+1:])
	e.publishSpecs()
}

// specIndex is the position of handle id in specs, or where it would go.
func (e *Subscriptions) specIndex(id int) int {
	return sort.Search(len(e.specs), func(i int) bool { return e.specs[i].ID >= id })
}

// publishSpecs publishes specs, capped at its length, as the view.
func (e *Subscriptions) publishSpecs() {
	view := e.specs[:len(e.specs):len(e.specs)]
	e.specsPub.Store(&view)
}

// Restore re-registers a subscription under its original handle (crash
// recovery). It is idempotent — restoring an already-registered handle is
// a no-op — and always registers on a valid spec: when the initial
// evaluation fails (e.g. the recovered topology no longer contains the
// query point's partition) the subscription is installed empty and
// repaired by the next topology operation, exactly like a live
// subscription whose refresh failed, and the evaluation error is
// returned as a warning. The id allocator advances past the handle so
// future Subscribes never collide.
func (e *Subscriptions) Restore(sp SubSpec) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if sp.ID < 0 {
		return fmt.Errorf("query: restore of negative subscription id %d", sp.ID)
	}
	switch sp.Kind {
	case SubRange:
		if !(sp.R > 0) {
			return fmt.Errorf("query: restore of range subscription %d with radius %g", sp.ID, sp.R)
		}
	case SubKNN:
		if sp.K <= 0 {
			return fmt.Errorf("query: restore of kNN subscription %d with k %d", sp.ID, sp.K)
		}
	default:
		return fmt.Errorf("query: restore of unknown subscription kind %d", sp.Kind)
	}
	if sp.ID >= e.nextID {
		e.nextID = sp.ID + 1
	}
	if e.standing[sp.ID] != nil {
		return nil
	}
	s := &standingQuery{id: sp.ID, kind: sp.Kind, q: sp.Q, r: sp.R, k: sp.K}
	if sp.Kind == SubKNN {
		s.kb = distance.NewKBound(sp.K)
	}
	s.members = make(map[object.ID]bool)
	err := e.refresh(s)
	e.standing[sp.ID] = s
	e.addSpec(s)
	if err != nil {
		return fmt.Errorf("query: subscription %d restored without initial results: %w", sp.ID, err)
	}
	e.routeAdd(s)
	return nil
}

// Unsubscribe removes a subscription, reporting whether it existed.
func (e *Subscriptions) Unsubscribe(id int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.standing[id]
	if !ok {
		return false
	}
	e.routeRemove(s)
	s.release()
	delete(e.standing, id)
	e.removeSpec(id)
	return true
}

// Results returns the current result set of a subscription as ascending
// ids (range members, or the kNN top-k), or nil for an unknown handle.
func (e *Subscriptions) Results(id int) []object.ID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := e.standing[id]
	if s == nil {
		return nil
	}
	return membersSorted(s)
}

// TopK returns a kNN subscription's current results ordered by (distance,
// id), or nil for unknown handles and range subscriptions.
func (e *Subscriptions) TopK(id int) []Result {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := e.standing[id]
	if s == nil || s.kind != SubKNN {
		return nil
	}
	out := make([]Result, 0, len(s.members))
	for oid := range s.members {
		out = append(out, Result{ID: oid, Distance: s.memberDist[oid]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// NumSubscriptions returns the number of registered subscriptions.
func (e *Subscriptions) NumSubscriptions() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.standing)
}

// Stats returns the cumulative reconciliation counters plus the per-batch
// latency aggregates over the recent window.
func (e *Subscriptions) Stats() SubStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := e.stats
	st.ReconcileShards = e.shardWidth()
	n := int(e.latCount)
	if n > reconLatWindow {
		n = reconLatWindow
	}
	if n == 0 {
		return st
	}
	window := make([]time.Duration, n)
	copy(window, e.latWin[:n])
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	var sum time.Duration
	for _, d := range window {
		sum += d
	}
	st.ReconcileBatchMean = sum / time.Duration(n)
	st.ReconcileBatchP50 = window[(n-1)*50/100]
	st.ReconcileBatchP99 = window[(n-1)*99/100]
	return st
}

// refresh re-evaluates a subscription from scratch against a freshly
// pinned snapshot — the one-shot evaluation of its query, with the phase
// kept — and rebuilds its result state. The rebuild is all-or-nothing:
// the replacement phase and result maps are staged completely before the
// swap, so a failed refresh (e.g. the query point's partition was
// removed, or a refinement engine failed to build) leaves the
// subscription's previous phase, result state and router advertisement
// exactly as they were. The caller updates the router when the footprint
// changed.
func (e *Subscriptions) refresh(s *standingQuery) error {
	snap := e.p.Pin()
	ex := newExec(snap, s.q, e.p.opts)
	st := &Stats{TotalObjects: snap.Objects().Len()}
	if s.kind == SubKNN {
		return e.refreshKNN(s, ex, st)
	}
	ph, results, err := ex.rangeQuery(s.r, st)
	if err != nil {
		return err
	}
	members := make(map[object.ID]bool, len(results))
	for _, res := range results {
		members[res.ID] = true
	}
	s.phase.release()
	s.phase = *ph
	s.members = members
	return nil
}

// refreshKNN re-establishes the kNN safe-distance state: the phase at the
// kbound R (the kNN prologue a one-shot ikNN runs), and the exact distance
// of every object within R. The top-k then falls out of the candidate
// cache through the KBound.
func (e *Subscriptions) refreshKNN(s *standingQuery, ex *exec, st *Stats) error {
	ar := distance.AcquireArena()
	defer ar.Release()
	ph, cands, err := ex.knnPhase(s.k, st, ar)
	if err != nil {
		return err
	}
	bounds := ph.eng.ObjectBoundsBatch(cands, ph.r, ar)
	cand := make(map[object.ID]float64, len(cands))
	for i, oid := range cands {
		d, ok, err := ph.cache(ex.s.Objects().Get(oid), bounds[i].Lower)
		if err != nil {
			ph.release()
			return err
		}
		if ok {
			cand[oid] = d
		}
	}
	s.phase.release()
	s.phase = *ph
	s.cand = cand
	s.members, s.memberDist = topkOf(s)
	return nil
}

// topkOf selects the current top-k of a kNN subscription's candidate cache
// by (distance, id) — the same order KNNQuery reports.
func topkOf(s *standingQuery) (map[object.ID]bool, map[object.ID]float64) {
	s.kb.Reset(s.k)
	for oid, d := range s.cand {
		s.kb.Offer(oid, d)
	}
	members := make(map[object.ID]bool, s.kb.Len())
	dists := make(map[object.ID]float64, s.kb.Len())
	for _, it := range s.kb.Items() {
		members[it.ID] = true
		dists[it.ID] = it.D
	}
	return members, dists
}

// admits is the filtering step for an object that did not come through
// rangeSearch — one an update routed to a standing query: it must touch
// the footprint (Lemma 6 puts objects wholly outside it beyond r), which
// is the phase engine's unit set, and pass the object-level geometric
// bound.
func (ph *phase) admits(oid object.ID) bool {
	for _, u := range ph.ex.s.ObjectUnitsView(oid) {
		if ph.eng.InUnitSet(u) {
			return ph.ex.objectBound(oid) <= ph.r
		}
	}
	return false
}

// decideRange decides one routed object's membership in a standing range
// query: admits, then the same pruning and refinement steps a one-shot
// iRQ takes.
func (ph *phase) decideRange(oid object.ID) (bool, error) {
	o := ph.ex.s.Objects().Get(oid)
	if o == nil || !ph.admits(oid) {
		return false, nil
	}
	switch ph.prune(o) {
	case accepted:
		return true, nil
	case rejected:
		return false, nil
	}
	in, _, err := ph.refine(o)
	return in, err
}

// cache is the kNN subscription's pruning and refinement rule for one
// object, given its lower bound at the footprint radius R: an object
// whose lower bound is within R gets its exact distance resolved, and the
// cache keeps it when that distance is within R too (always, when R is
// +Inf). This is the one deliberate difference from the one-shot ikNN,
// which refines only what Algorithm 2's k-th smallest upper bound leaves
// open: a subscription answers later moves from this cache.
func (ph *phase) cache(o *object.Object, lower float64) (float64, bool, error) {
	if lower > ph.r {
		return 0, false, nil
	}
	_, d, err := ph.resolve(o, closed)
	return d, d <= ph.r || math.IsInf(ph.r, 1), err
}

// evalKNNCand re-evaluates one routed object against a kNN
// subscription's candidate cache: an object the phase does not admit, or
// the cache rule drops, leaves the cache; the rest carry their fresh
// exact distance.
func (ph *phase) evalKNNCand(oid object.ID, cand map[object.ID]float64) error {
	o := ph.ex.s.Objects().Get(oid)
	if o == nil || !ph.admits(oid) {
		delete(cand, oid)
		return nil
	}
	d, ok, err := ph.cache(o, ph.eng.ObjectBounds(o, ph.r).Lower)
	switch {
	case err != nil:
		return err
	case ok:
		cand[oid] = d
	default:
		delete(cand, oid)
	}
	return nil
}

func membersSorted(s *standingQuery) []object.ID {
	out := make([]object.ID, 0, len(s.members))
	for oid := range s.members {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer for diagnostics.
func (e *Subscriptions) String() string {
	return fmt.Sprintf("subscriptions(%d standing queries)", e.NumSubscriptions())
}
