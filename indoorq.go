// Package indoorq is a Go implementation of "Efficient Distance-Aware Query
// Evaluation on Indoor Moving Objects" (Xie, Lu, Pedersen — ICDE 2013): a
// composite index for dynamic indoor spaces and uncertain moving objects
// that answers indoor range queries and k-nearest-neighbour queries by
// expected indoor walking distance, without pre-computing door-to-door
// distances.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/indoor:   partitions, doors, buildings, Algorithm 3
//   - internal/object:   instance-based uncertain objects
//   - internal/index:    the composite index (tree, topological, object and
//     skeleton layers) with dynamic maintenance
//   - internal/distance: expected indoor distances and all pruning bounds
//   - internal/query:    the iRQ and ikNNQ processors
//   - internal/store:    checkpoints, the write-ahead log and store.State,
//     the one log fold behind recovery, replicas and history
//   - internal/gen:      the paper's synthetic mall workload
//
// Quick start:
//
//	b, _ := indoorq.GenerateMall(indoorq.MallSpec{Floors: 2})
//	objs := indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: 1000, Radius: 10})
//	db, _, _ := indoorq.Open(b, objs, indoorq.Options{})
//	results, _, _ := db.RangeQuery(indoorq.Pos(300, 60, 0), 100)
//
// # Concurrency
//
// A DB is safe for concurrent use and serves reads under MVCC snapshot
// isolation. The index state lives in immutable snapshots published
// through an atomic pointer: every query pins the current snapshot with
// one wait-free load and evaluates against it with no locking, so
// *writers never block readers and readers never block writers*. Each of
// RangeQuery, KNNQuery, LocatePartition, Object and NumObjects observes
// one consistent point-in-time state; a batch (BatchRangeQuery,
// BatchKNNQuery) pins ONE snapshot for the whole batch, so all its
// queries agree with each other. Mutators — Apply and its constructors
// InsertObject, DeleteObject, UpdateObject, MoveObject,
// ApplyObjectUpdates, SetDoorClosed, AddRoom, RemovePartition, AddDoor,
// DetachDoor, SplitPartition and MergePartitions — serialise only against
// each other: they build the successor snapshot copy-on-write (object
// updates share the whole topology; topology updates share the object
// store's untouched storage) and publish it atomically, so no reader ever
// observes a half-applied mutation. High-rate movement should go through
// ApplyObjectUpdates, which coalesces a batch of updates into one snapshot
// swap.
//
// Save and RenderSVG briefly exclude mutators (they read the building's
// partition/door structure directly).
//
// Continuous queries: Subscribe installs standing range/kNN queries whose
// results the DB maintains incrementally. While any subscription stands,
// every DB mutator also runs one reconciliation pass before returning:
// an object update reaches the affected standing queries through an
// inverted unit→query index (so the pass scales with update locality, not
// with the number of subscriptions), and a topology mutation refreshes
// every standing query it reaches in the same pass. The resulting
// enter/leave/update events accumulate in a drainable log (Events).
// Subscription update operations serialise internally, so event streams
// match a serial replay of the same updates and replaying a
// subscription's events over its initial result set reproduces its
// current result set. While serving
// concurrently, mutate the building only through the DB, never through
// *Building directly.
//
// For throughput, fan query batches across CPUs:
//
//	reqs := make([]indoorq.RangeRequest, len(points))
//	for i, q := range points {
//		reqs[i] = indoorq.RangeRequest{Q: q, R: 100}
//	}
//	resps, m := db.BatchRangeQuery(reqs, indoorq.ServeConfig{}) // GOMAXPROCS wide
//	fmt.Printf("%.0f queries/sec, %d failed\n", m.Throughput, m.Errors) // per query: resps[i].Latency
//
// # Durability
//
// A DB built with Open is ephemeral. Persist attaches a durable store (a
// checkpoint plus a write-ahead log of every mutation, appended inside
// the writer mutex before each snapshot publishes), and OpenDir recovers
// one: newest valid checkpoint, WAL replay with torn-tail truncation,
// subscriptions re-registered. See durability.go and ARCHITECTURE.md for
// the full contract (fsync policies, group commit, compaction,
// fail-stop semantics):
//
//	db.Persist("data/", indoorq.DurabilityOptions{})
//	...
//	db.Close()
//	db, _ = indoorq.OpenDir("data/", indoorq.DurabilityOptions{})
package indoorq

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/serde"
	"repro/internal/store"
)

// Re-exported model types. The aliases keep one import path for users while
// the implementation stays in focused internal packages.
type (
	// Building is a dynamic multi-floor indoor space.
	Building = indoor.Building
	// Partition is a room, hallway or staircase.
	Partition = indoor.Partition
	// PartitionID identifies a partition.
	PartitionID = indoor.PartitionID
	// Door connects two partitions; it may be one-way or closed.
	Door = indoor.Door
	// DoorID identifies a door.
	DoorID = indoor.DoorID
	// Position is a planar point on a floor.
	Position = indoor.Position
	// Object is an uncertain indoor moving object.
	Object = object.Object
	// ObjectID identifies an object.
	ObjectID = object.ID
	// Instance is one existential sample of an object.
	Instance = object.Instance
	// Point is a planar point in metres.
	Point = geom.Point
	// Rect is a planar axis-aligned rectangle.
	Rect = geom.Rect
	// Polygon is a rectilinear simple polygon (partition footprint).
	Polygon = geom.Polygon
	// Options configures index construction.
	Options = index.Options
	// BuildStats reports per-layer index construction time.
	BuildStats = index.BuildStats
	// QueryStats reports per-phase query cost and pruning counters.
	QueryStats = query.Stats
	// Result is one query answer.
	Result = query.Result
	// MallSpec parameterises the synthetic mall generator.
	MallSpec = gen.MallSpec
	// ObjectSpec parameterises uncertain-object generation.
	ObjectSpec = gen.ObjectSpec
)

// Pos builds a Position.
func Pos(x, y float64, floor int) Position { return indoor.Pos(x, y, floor) }

// R builds a rectangle from two opposite corners.
func R(x1, y1, x2, y2 float64) Rect { return geom.R(x1, y1, x2, y2) }

// RectPoly returns the polygon form of a rectangle, for partition
// footprints (Building.AddPartition, a MutAddPartition's Part).
func RectPoly(r Rect) Polygon { return geom.RectPoly(r) }

// NewBuilding returns an empty building with the given floor height in
// metres.
func NewBuilding(floorHeight float64) *Building { return indoor.NewBuilding(floorHeight) }

// GenerateMall builds the paper's synthetic shopping mall (§V-A).
func GenerateMall(spec MallSpec) (*Building, error) { return gen.Mall(spec) }

// GenerateObjects draws uncertain objects uniformly over a building's
// walkable space with truncated-Gaussian instance pdfs (§V-A).
func GenerateObjects(b *Building, spec ObjectSpec) []*Object { return gen.Objects(b, spec) }

// GenerateQueryPoints draws query positions uniformly over walkable space.
func GenerateQueryPoints(b *Building, n int, seed int64) []Position {
	return gen.QueryPoints(b, n, seed)
}

// DB couples a composite index with a query processor: the top-level handle
// a location-based service holds. An ephemeral DB comes from Open; a
// durable one from OpenDir (recovery) or Persist (attachment) — see
// durability.go for the checkpoint/WAL lifecycle.
type DB struct {
	idx  *index.Index
	proc *query.Processor

	// subs is the continuous-query engine. Every DB mutator commits
	// through it, so standing results reconcile with each update; with no
	// standing queries that costs one mutex.
	subs *query.Subscriptions

	// Durable state (nil/zero for ephemeral DBs): the attached store,
	// the recovery statistics OpenDir produced, and the background
	// compactor's lifecycle.
	st        *store.Store
	hist      *history.Provider
	recovery  RecoveryStats
	closedC   chan struct{}
	closeOnce sync.Once
	compactWG sync.WaitGroup
	compactMu sync.Mutex
}

// Open builds the composite index over the building and object set and
// returns the database handle with per-layer construction statistics.
func Open(b *Building, objs []*Object, opts Options) (*DB, BuildStats, error) {
	idx, stats, err := index.Build(b, objs, opts)
	if err != nil {
		return nil, stats, err
	}
	return newDB(idx), stats, nil
}

// newDB assembles a DB over a built or recovered index.
func newDB(idx *index.Index) *DB {
	subs := query.NewSubscriptions(idx)
	subs.EnableEventLog()
	return &DB{idx: idx, proc: query.New(idx, query.Options{}), subs: subs}
}

// Index exposes the underlying composite index for advanced use (the
// benchmark harness and the baseline comparisons).
func (db *DB) Index() *index.Index { return db.idx }

// Building returns the indexed building.
func (db *DB) Building() *Building { return db.idx.Building() }

// NumObjects returns the number of indexed objects in the current
// snapshot.
func (db *DB) NumObjects() int {
	return db.idx.Current().Objects().Len()
}

// Object returns an indexed object by id from the current snapshot, or
// nil.
func (db *DB) Object(id ObjectID) *Object {
	return db.idx.Current().Objects().Get(id)
}

// RangeQuery evaluates iRQ(q, r): objects whose expected indoor distance
// from q is at most r metres (Definition 3, Algorithm 1).
func (db *DB) RangeQuery(q Position, r float64) ([]Result, *QueryStats, error) {
	return db.proc.RangeQuery(q, r)
}

// KNNQuery evaluates ikNNQ(q, k): the k objects with the smallest expected
// indoor distances from q (Definition 4, Algorithm 2).
func (db *DB) KNNQuery(q Position, k int) ([]Result, *QueryStats, error) {
	return db.proc.KNNQuery(q, k)
}

// Batch serving. A batch pins ONE index snapshot and fans its queries
// GOMAXPROCS wide; every query evaluates lock-free against that snapshot.
type (
	// ServeConfig configures a batch. It has no fields: a batch always
	// fans out GOMAXPROCS wide. It stays so that existing callers, which
	// pass ServeConfig{}, keep compiling.
	ServeConfig struct{}
	// RangeRequest is one iRQ of a batch: objects within expected
	// distance R of Q.
	RangeRequest struct {
		Q Position
		R float64
	}
	// KNNRequest is one ikNNQ of a batch: the K objects nearest Q by
	// expected distance.
	KNNRequest struct {
		Q Position
		K int
	}
	// BatchResponse is one query's outcome, at its request's position.
	BatchResponse struct {
		Results []Result
		Stats   *QueryStats
		Err     error
		// Latency is the query's own evaluation wall time.
		Latency time.Duration
	}
	// BatchMetrics aggregates one batch: its size, its failures, its wall
	// time and the queries per second of that wall time. Latency
	// distributions come from the responses' Latency.
	BatchMetrics struct {
		Queries    int
		Errors     int
		Wall       time.Duration
		Throughput float64
	}
)

// BatchRangeQuery evaluates the requests concurrently and returns
// per-query responses in request order plus aggregate throughput
// metrics. The batch pins ONE index snapshot: results are identical to
// calling RangeQuery in a loop with no concurrent writers, and under
// concurrent updates every query of the batch still observes the same
// consistent point-in-time state. Writers are never blocked by a running
// batch; their snapshots take effect from the next batch.
func (db *DB) BatchRangeQuery(reqs []RangeRequest, _ ServeConfig) ([]BatchResponse, BatchMetrics) {
	snap := db.idx.Current()
	return runBatch(len(reqs), func(i int) ([]Result, *QueryStats, error) {
		return db.proc.RangeQueryOn(snap, reqs[i].Q, reqs[i].R)
	})
}

// BatchKNNQuery is BatchRangeQuery for k-nearest-neighbour queries.
func (db *DB) BatchKNNQuery(reqs []KNNRequest, _ ServeConfig) ([]BatchResponse, BatchMetrics) {
	snap := db.idx.Current()
	return runBatch(len(reqs), func(i int) ([]Result, *QueryStats, error) {
		return db.proc.KNNQueryOn(snap, reqs[i].Q, reqs[i].K)
	})
}

// runBatch fans n evaluations GOMAXPROCS wide (query.FanOut, the fan-out
// the subscription reconciler runs one item per affected subscription). A
// worker's only shared writes are its own response slots.
func runBatch(n int, eval func(int) ([]Result, *QueryStats, error)) ([]BatchResponse, BatchMetrics) {
	resps := make([]BatchResponse, n)
	start := time.Now()
	query.FanOut(n, func(i int) {
		t0 := time.Now()
		res, st, err := eval(i)
		resps[i] = BatchResponse{Results: res, Stats: st, Err: err, Latency: time.Since(t0)}
	})
	m := BatchMetrics{Queries: n, Wall: time.Since(start)}
	for i := range resps {
		if resps[i].Err != nil {
			m.Errors++
		}
	}
	if s := m.Wall.Seconds(); n > 0 && s > 0 {
		m.Throughput = float64(n) / s
	}
	return resps, m
}

// Every mutator below is the commit path. Object updates and topology
// mutations alike commit through the subscription engine, so the snapshot
// swap and the reconciliation pass form one serialised operation whose
// events land in the ordered log.
//
// Each single-object mutator is a one-element ApplyObjectUpdates batch. A
// returned error may come from the reconciliation pass AFTER the mutation
// committed — see ApplyObjectUpdates for the full error/commit semantics;
// do not blindly retry inserts or deletes.

// InsertObject adds an uncertain object (§III-C.2).
func (db *DB) InsertObject(o *Object) error {
	return db.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateInsert, Object: o}})
}

// DeleteObject removes an object (§III-C.2).
func (db *DB) DeleteObject(id ObjectID) error {
	return db.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateDelete, ID: id}})
}

// UpdateObject replaces an object's uncertainty information (deletion
// followed by insertion).
func (db *DB) UpdateObject(o *Object) error {
	return db.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateReplace, Object: o}})
}

// MoveObject is the adjacency-accelerated location update for frequently
// reporting objects.
func (db *DB) MoveObject(o *Object) error {
	return db.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateMove, Object: o}})
}

// ObjectUpdate is one element of an ApplyObjectUpdates batch.
type ObjectUpdate = index.ObjectUpdate

// UpdateOp selects the mutation an ObjectUpdate applies.
type UpdateOp = index.UpdateOp

// Object-update operations for ApplyObjectUpdates.
const (
	// UpdateMove is the adjacency-accelerated location update (MoveObject).
	UpdateMove = index.UpdateMove
	// UpdateInsert indexes a new object (InsertObject).
	UpdateInsert = index.UpdateInsert
	// UpdateDelete removes the object with ID (DeleteObject).
	UpdateDelete = index.UpdateDelete
	// UpdateReplace swaps an object's uncertainty information
	// (UpdateObject).
	UpdateReplace = index.UpdateReplace
)

// ApplyObjectUpdates applies a batch of object-layer mutations as one
// copy-on-write edit publishing ONE snapshot: a movement tick over many
// objects costs a single swap instead of one per object, and concurrent
// readers observe the whole tick atomically. The index batch is
// transactional — on an index error nothing is applied. With standing
// queries the swap is followed by ONE reconciliation pass over the
// affected standing queries (fanned across workers), whose events land in
// the Events log; an error from that pass is also returned, and in that
// case the batch WAS applied (SnapshotSwaps distinguishes the two: it
// advanced iff the batch committed). Do not blindly retry a failed batch
// containing inserts or deletes without checking.
func (db *DB) ApplyObjectUpdates(ups []ObjectUpdate) error {
	_, err := db.subs.ApplyObjectUpdates(ups)
	return err
}

// SnapshotSwaps returns the number of index snapshots published so far
// (opening the DB counts as one). It is the observability hook for update
// coalescing: a movement tick through ApplyObjectUpdates advances it once.
func (db *DB) SnapshotSwaps() uint64 { return db.idx.SnapshotSwaps() }

// Mutation is one index mutation as a value — an object batch or a
// topology operation — the same value the write-ahead log records and
// replay decodes. Build one with a MutationKind and the fields its kind
// documents, or use the typed mutators below, which are constructors over
// Apply.
type Mutation = index.Mutation

// MutationKind identifies the operation a Mutation describes.
type MutationKind = index.MutationKind

// Mutation kinds for Apply.
const (
	MutObjects         = index.MutObjects
	MutSetDoorClosed   = index.MutSetDoorClosed
	MutAddPartition    = index.MutAddPartition
	MutRemovePartition = index.MutRemovePartition
	MutAttachDoor      = index.MutAttachDoor
	MutDetachDoor      = index.MutDetachDoor
	MutSplit           = index.MutSplit
	MutMerge           = index.MutMerge
	MutRebuildSkeleton = index.MutRebuildSkeleton
)

// Apply commits one mutation and returns it with every id it allocated
// (see index.Index.Apply). The building changes only inside the commit,
// under the writer mutex, after the durability log accepted the mutation;
// a refused mutation leaves it as it was. An object batch goes through
// ApplyObjectUpdates. A topology mutation commits through the
// subscription engine, which refreshes the standing queries in the same
// serialised operation; a refresh failure is deliberately not an error of
// the mutation: the subscription keeps answering from its last good
// snapshot until a later operation repairs it.
func (db *DB) Apply(m Mutation) (Mutation, error) {
	if m.Kind == MutObjects {
		return m, db.ApplyObjectUpdates(m.Updates)
	}
	m, _, err := db.subs.Topology(m)
	return m, err
}

// AddRoom adds a rectangular room on a floor and indexes it, returning
// its id (NoPartition when refused, e.g. for a rectangle of zero width).
func (db *DB) AddRoom(floor int, r Rect) (PartitionID, error) {
	m, err := db.Apply(Mutation{Kind: MutAddPartition, PartID: indoor.NoPartition,
		Part: &Partition{Kind: indoor.Room, Floor: floor, Shape: geom.RectPoly(r)}})
	return m.PartID, err
}

// RemovePartition removes a partition and its doors from the building and
// the index.
func (db *DB) RemovePartition(pid PartitionID) error {
	_, err := db.Apply(Mutation{Kind: MutRemovePartition, PartID: pid})
	return err
}

// AddDoor adds a door — position, floor, partitions, direction and
// closure from d; d.ID is ignored — and indexes it, returning its id (-1
// when refused, e.g. for a position that touches no unit of its
// partitions).
func (db *DB) AddDoor(d Door) (DoorID, error) {
	m, err := db.Apply(Mutation{Kind: MutAttachDoor, DoorID: -1, Door: &d})
	return m.DoorID, err
}

// DetachDoor removes a door from the building and the index. An unknown
// door is a no-op; the only possible error is a refused durability log
// (fail-stop store), in which case nothing was detached.
func (db *DB) DetachDoor(did DoorID) error {
	_, err := db.Apply(Mutation{Kind: MutDetachDoor, DoorID: did})
	return err
}

// SetDoorClosed closes or reopens a door; queries observe the change
// immediately with no index maintenance. Standing queries refresh (door
// distances changed) and emit their membership deltas to the Events log.
func (db *DB) SetDoorClosed(did DoorID, closed bool) error {
	_, err := db.Apply(Mutation{Kind: MutSetDoorClosed, DoorID: did, Closed: closed})
	return err
}

// SplitPartition mounts a sliding wall, dividing a rectangular partition in
// two (the paper's room-21 meeting-style scenario).
func (db *DB) SplitPartition(pid PartitionID, alongX bool, at float64) (pa, pb PartitionID, err error) {
	m, err := db.Apply(Mutation{Kind: MutSplit, PartID: pid, AlongX: alongX, At: at})
	return m.ResultA, m.ResultB, err
}

// MergePartitions dismounts a sliding wall, merging two rectangular
// partitions (banquet style).
func (db *DB) MergePartitions(pa, pb PartitionID) (merged PartitionID, err error) {
	m, err := db.Apply(Mutation{Kind: MutMerge, PartID: pa, PartID2: pb})
	return m.ResultA, err
}

// LocatePartition returns the partition containing a position via the
// current snapshot's tree tier, or -1.
func (db *DB) LocatePartition(q Position) PartitionID {
	return db.idx.Current().LocatePartition(q)
}

// Continuous queries (the subscription engine). Subscriptions are standing
// iRQ/ikNNQ queries maintained incrementally: each keeps its filtering and
// subgraph phases cached, and an inverted unit→query index routes every
// update batch to only the subscriptions whose candidate-unit footprint
// the updated objects touch — per-update cost scales with affected
// queries, not registered ones.
type (
	// SubscriptionEvent reports one result change of a subscription. See
	// query.SubEvent for the ordering guarantee.
	SubscriptionEvent = query.SubEvent
	// SubscriptionEventKind is enter/leave/update.
	SubscriptionEventKind = query.EventKind
	// SubscriptionStats reports cumulative routing and reconciliation
	// counters.
	SubscriptionStats = query.SubStats
)

// Subscription event kinds.
const (
	// SubEnter reports an object entering a subscription's result set.
	SubEnter = query.EventEnter
	// SubLeave reports an object leaving a subscription's result set.
	SubLeave = query.EventLeave
	// SubUpdate reports a kNN member whose exact distance changed while it
	// stayed in the top-k.
	SubUpdate = query.EventUpdate
)

// SubscriptionSpec describes one standing query: set exactly one of R
// (standing range query, metres) or K (standing k-nearest-neighbour
// query).
type SubscriptionSpec struct {
	Q Position
	R float64
	K int
}

// Subscribe installs a standing query and returns its handle and initial
// result set (ascending ids). Route every update through the DB (not
// through Index() directly): mutators reconcile the affected subscriptions
// as part of the operation, and the resulting enter/leave/update events
// accumulate for Events.
//
// On a durable DB the registration is logged; if logging fails the
// subscription stays registered in memory (its record may already be on
// disk) and Subscribe returns both the valid handle AND the error — the
// store is fail-stop from that point.
func (db *DB) Subscribe(spec SubscriptionSpec) (int, []ObjectID, error) {
	var id int
	var members []ObjectID
	var err error
	var kind query.SubKind
	switch {
	case spec.R > 0 && spec.K == 0:
		kind = query.SubRange
		id, members, err = db.subs.SubscribeRange(spec.Q, spec.R)
	case spec.K > 0 && spec.R == 0:
		kind = query.SubKNN
		id, members, err = db.subs.SubscribeKNN(spec.Q, spec.K)
	default:
		return 0, nil, fmt.Errorf("indoorq: subscription needs exactly one of R > 0 or K > 0, got R=%g K=%d", spec.R, spec.K)
	}
	if err != nil {
		return 0, nil, err
	}
	if db.st != nil {
		rec := subRecOf(query.SubSpec{ID: id, Kind: kind, Q: spec.Q, R: spec.R, K: spec.K})
		if lerr := db.st.LogSubscribe(rec); lerr != nil {
			// The record may have reached the disk before the log
			// reported failure (e.g. a write that landed but an fsync
			// that did not), so rolling the registration back could
			// leave recovery resurrecting a subscription the caller
			// believes gone. Keep it registered — the conservative
			// direction, same as Unsubscribe — return its handle AND
			// the error; the store is fail-stop from here anyway.
			return id, members, lerr
		}
	}
	return id, members, nil
}

// Unsubscribe removes a subscription, reporting whether it existed. On a
// durable DB the removal is logged; a log failure cannot un-remove the
// subscription, so it only poisons the store (fail-stop) — recovery may
// then resurrect the subscription, which is the conservative direction.
func (db *DB) Unsubscribe(id int) bool {
	ok := db.subs.Unsubscribe(id)
	if ok && db.st != nil {
		_ = db.st.LogUnsubscribe(int64(id))
	}
	return ok
}

// SubscriptionResults returns a subscription's current result set as
// ascending ids, or nil for unknown handles.
func (db *DB) SubscriptionResults(id int) []ObjectID { return db.subs.Results(id) }

// SubscriptionTopK returns a kNN subscription's results ordered by
// (distance, id).
func (db *DB) SubscriptionTopK(id int) []Result { return db.subs.TopK(id) }

// Events returns and clears the accumulated subscription events, in
// serialisation order (see SubscriptionEvent for the per-operation
// ordering guarantee). Replaying a subscription's enter/leave events over
// its initial result set reproduces its current result set — PROVIDED the
// log did not overflow: the log is bounded (DefaultEventLogCap events,
// SetEventLogCap adjusts), and past the bound the oldest events are
// dropped so an undrained consumer costs bounded memory instead of an
// OOM. Events discards the overflow signal; replay-based consumers must
// use DrainEvents and re-fetch SubscriptionResults when it reports an
// overflow.
func (db *DB) Events() []SubscriptionEvent {
	evs, _ := db.DrainEvents()
	return evs
}

// DrainEvents is Events plus the overflow signal: overflowed reports
// whether the bounded event log dropped events since the previous drain.
// When it did, the returned events are NOT a complete replay stream —
// re-fetch the affected subscriptions' current state with
// SubscriptionResults or SubscriptionTopK instead of replaying.
func (db *DB) DrainEvents() ([]SubscriptionEvent, bool) { return db.subs.DrainEvents() }

// DefaultEventLogCap is the subscription event log's default bound.
const DefaultEventLogCap = query.DefaultEventLogCap

// SetEventLogCap bounds the subscription event log at n events (n <= 0
// removes the bound). On overflow the oldest events are dropped and the
// next DrainEvents reports it. Serving deployments size this to the
// slowest event consumer they are willing to buffer for.
func (db *DB) SetEventLogCap(n int) { db.subs.SetEventLogCap(n) }

// NumSubscriptions returns the number of active subscriptions.
func (db *DB) NumSubscriptions() int { return db.subs.NumSubscriptions() }

// SubscriptionStatsSnapshot returns the engine's cumulative routing
// counters; they do not move while no subscription stands.
func (db *DB) SubscriptionStatsSnapshot() SubscriptionStats { return db.subs.Stats() }

// Estimator predicts iRQ cardinalities without running the query.
type Estimator = query.Estimator

// NewEstimator returns a selectivity estimator over the database's index.
func (db *DB) NewEstimator() *Estimator { return query.NewEstimator(db.idx) }

// Save writes the building and every indexed object as JSON. The object
// set comes from a pinned snapshot; the building structure is read under
// the writer mutex's read side (mutators are briefly excluded, queries are
// not). Encoding goes to memory first and to w outside the lock, so a
// slow destination never stalls index writers.
func (db *DB) Save(w io.Writer) error {
	var buf bytes.Buffer
	err := func() error {
		db.idx.RLock()
		defer db.idx.RUnlock()
		snap := db.idx.Current()
		objs := make([]*Object, 0, snap.Objects().Len())
		for _, id := range snap.Objects().IDs() {
			objs = append(objs, snap.Objects().Get(id))
		}
		return serde.Encode(&buf, db.idx.Building(), objs)
	}()
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// LoadBuilding reads a building and objects from JSON.
func LoadBuilding(r io.Reader) (*Building, []*Object, error) {
	return serde.Decode(r)
}

// RenderOptions configures an SVG floor-plan rendering.
type RenderOptions = render.Options

// RenderSVG draws one floor of the database's building as SVG: partitions,
// doors (one-way arrows, closure marks), objects, the query point with its
// range circle, and optionally the decomposed index units. Like Save, the
// rendering happens under the read lock into memory; only the finished
// document is written to w.
func (db *DB) RenderSVG(w io.Writer, opts RenderOptions) error {
	var buf bytes.Buffer
	err := func() error {
		db.idx.RLock()
		defer db.idx.RUnlock()
		if opts.Units == nil {
			opts.Units = db.idx
		}
		return render.SVG(&buf, db.idx.Building(), opts)
	}()
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}
