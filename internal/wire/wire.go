// Package wire is the serving protocol: the JSON request/response types
// the indoorqd daemon speaks over HTTP and an HTTP client covering every
// endpoint. The WAL-shipping replication stream is a sequence of
// internal/store frames, the on-disk log framing itself, so a shipped
// record is byte-for-byte the durable record; the client reads it with
// store.ReadFrame. The package holds no server logic — internal/server
// implements the endpoints, internal/replica consumes the replication
// side through the client — and translates faithfully between wire form
// and the domain types, so protocol evolution stays in one place.
//
// Endpoints (all rooted at /v1):
//
//	POST /v1/query/range     RangeBatch    -> BatchResponse
//	POST /v1/query/knn       KNNBatch      -> BatchResponse
//	POST /v1/updates         UpdateBatch   -> Ack
//	POST /v1/topology        TopologyRequest -> TopologyResponse
//	POST /v1/subscribe       SubscribeRequest -> SubscribeResponse
//	POST /v1/unsubscribe     UnsubscribeRequest -> UnsubscribeResponse
//	GET  /v1/events          (NDJSON stream of EventChunk)
//	GET  /v1/stats           -> StatsResponse
//	POST /v1/history/range      HistoryRangeRequest -> HistoryQueryResponse
//	POST /v1/history/knn        HistoryKNNRequest -> HistoryQueryResponse
//	POST /v1/history/trajectory HistoryTrajectoryRequest -> HistoryTrajectoryResponse
//	POST /v1/history/occupancy  HistoryOccupancyRequest -> HistoryOccupancyResponse
//	GET  /v1/repl/checkpoint (binary checkpoint; X-Indoorq-Lsn header)
//	GET  /v1/repl/wal?after=N (binary frame stream + heartbeats)
//	GET  /healthz            -> HealthResponse (liveness: 200 while serving)
//	GET  /readyz             -> HealthResponse (readiness: 503 + reason when degraded)
//
// Queries accept single-element batches, so there is no separate
// point-query shape; the server coalesces whatever arrives into shared
// batches, each evaluated against one pinned snapshot.
package wire

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/serde"
)

// Endpoint paths. The client and the server both refer to these.
const (
	PathRangeQuery  = "/v1/query/range"
	PathKNNQuery    = "/v1/query/knn"
	PathUpdates     = "/v1/updates"
	PathTopology    = "/v1/topology"
	PathSubscribe   = "/v1/subscribe"
	PathUnsubscribe = "/v1/unsubscribe"
	PathEvents      = "/v1/events"
	PathStats       = "/v1/stats"
	// History endpoints: time-travel reads addressed by WAL LSN, served
	// by leaders (from the log) and replicas (from their applied
	// window) alike, including on a degraded read-only leader.
	PathHistoryRange      = "/v1/history/range"
	PathHistoryKNN        = "/v1/history/knn"
	PathHistoryTrajectory = "/v1/history/trajectory"
	PathHistoryOccupancy  = "/v1/history/occupancy"
	PathReplCheckpoint    = "/v1/repl/checkpoint"
	PathReplWAL           = "/v1/repl/wal"
	// PathHealthz is liveness: 200 whenever the process serves HTTP at
	// all, regardless of durability or replication state.
	PathHealthz = "/healthz"
	// PathReadyz is readiness: 200 only while the daemon should receive
	// traffic — a leader that has not fail-stopped, a replica that is
	// connected and within its lag bound. 503 otherwise, with a
	// machine-readable reason.
	PathReadyz = "/readyz"
)

// LSNHeader carries the checkpoint's covered LSN on the bootstrap
// transfer.
const LSNHeader = "X-Indoorq-Lsn"

// Machine-readable degradation reasons, carried in HealthResponse and in
// the ErrorBody of a 503-refused mutation. Automation keys off these;
// the prose Detail is for humans.
const (
	// ReasonWALFailStop: the leader's log poisoned itself after an I/O
	// failure; the daemon is in degraded read-only mode.
	ReasonWALFailStop = "wal_failstop"
	// ReasonStoreClosed: the store was closed under the daemon; reads
	// keep working, mutations are refused.
	ReasonStoreClosed = "store_closed"
	// ReasonReplicaDisconnected: the replica's stream to the leader is
	// down (it keeps serving its last applied state).
	ReasonReplicaDisconnected = "replica_disconnected"
	// ReasonReplicaLagging: the replica trails the leader's durable
	// horizon by more than the configured readiness bound.
	ReasonReplicaLagging = "replica_lagging"
	// ReasonHistoryPruned: the requested LSN predates the oldest
	// retained checkpoint (leader) or the replica's applied window —
	// compaction made that state unreconstructable.
	ReasonHistoryPruned = "history_pruned"
	// ReasonHistoryFuture: the requested LSN is beyond the written
	// horizon.
	ReasonHistoryFuture = "history_future"
	// ReasonHistoryUnavailable: the daemon has no history source (an
	// ephemeral leader with no WAL).
	ReasonHistoryUnavailable = "history_unavailable"
)

// HealthResponse is the /healthz and /readyz body. Status is "ok" on
// 200 and "unavailable" on 503; Reason is one of the Reason* constants
// when unavailable.
type HealthResponse struct {
	Status string `json:"status"`
	Role   string `json:"role"` // "leader" or "replica"
	Reason string `json:"reason,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// ErrorBody is the JSON body of a refused request (e.g. a mutation
// against a degraded read-only leader): a human-readable error plus the
// machine-readable reason automation retries or alerts on.
type ErrorBody struct {
	Err    string `json:"err"`
	Reason string `json:"reason,omitempty"`
}

// Position is a planar indoor position in wire form.
type Position struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Floor int     `json:"floor"`
}

// PositionOf converts a domain position to wire form.
func PositionOf(p indoor.Position) Position {
	return Position{X: p.Pt.X, Y: p.Pt.Y, Floor: p.Floor}
}

// Domain converts back to the domain position.
func (p Position) Domain() indoor.Position { return indoor.Pos(p.X, p.Y, p.Floor) }

// RangeQuery is one iRQ: objects within expected indoor distance R of Q.
type RangeQuery struct {
	Q Position `json:"q"`
	R float64  `json:"r"`
}

// KNNQuery is one ikNNQ: the K nearest objects by expected indoor
// distance.
type KNNQuery struct {
	Q Position `json:"q"`
	K int      `json:"k"`
}

// RangeBatch is the range-query request body.
type RangeBatch struct {
	Queries []RangeQuery `json:"queries"`
}

// KNNBatch is the kNN request body.
type KNNBatch struct {
	Queries []KNNQuery `json:"queries"`
}

// Result is one query answer. Dist is absent where the processor proved
// membership without materialising the exact distance (kNN pruning can)
// — JSON has no NaN.
type Result struct {
	ID   int64    `json:"id"`
	Dist *float64 `json:"dist,omitempty"`
}

// ResultsOf converts domain results to wire form, NaN distances becoming
// absent fields.
func ResultsOf(rs []query.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: int64(r.ID)}
		if !math.IsNaN(r.Distance) {
			d := r.Distance
			out[i].Dist = &d
		}
	}
	return out
}

// QueryResponse is one query's outcome within a batch.
type QueryResponse struct {
	Results []Result `json:"results"`
	Err     string   `json:"err,omitempty"`
	// LatencyMicros is the query's own evaluation wall time: the round
	// trip minus it is what the server and the wire added.
	LatencyMicros int64 `json:"latencyMicros"`
}

// BatchMetrics describes the coalesced batch a request's queries rode
// in: how many queries it held, the request's own included, and how many
// of them failed.
type BatchMetrics struct {
	Queries int `json:"queries"`
	Errors  int `json:"errors"`
}

// BatchResponse answers a query batch in request order.
type BatchResponse struct {
	Responses []QueryResponse `json:"responses"`
	Metrics   BatchMetrics    `json:"metrics"`
}

// Object-update operations in wire form.
const (
	OpMove    = "move"
	OpInsert  = "insert"
	OpDelete  = "delete"
	OpReplace = "replace"
)

// UpdateItem is one object mutation of an update batch.
type UpdateItem struct {
	Op string `json:"op"`
	// ID names the object for delete; other ops carry the full object.
	ID     int64          `json:"id,omitempty"`
	Object *serde.ObjJSON `json:"object,omitempty"`
}

// UpdateBatch is the update request body; the whole batch commits as one
// snapshot swap.
type UpdateBatch struct {
	Updates []UpdateItem `json:"updates"`
}

// Ack is the bare success/error response body.
type Ack struct {
	Err string `json:"err,omitempty"`
}

// UpdateItemOf converts a domain update to wire form.
func UpdateItemOf(u index.ObjectUpdate) (UpdateItem, error) {
	switch u.Op {
	case index.UpdateDelete:
		return UpdateItem{Op: OpDelete, ID: int64(u.ID)}, nil
	case index.UpdateMove, index.UpdateInsert, index.UpdateReplace:
		if u.Object == nil {
			return UpdateItem{}, fmt.Errorf("wire: %s update without object", opName(u.Op))
		}
		j := serde.ObjJSONOf(u.Object)
		return UpdateItem{Op: opName(u.Op), Object: &j}, nil
	}
	return UpdateItem{}, fmt.Errorf("wire: unknown update op %d", u.Op)
}

// Domain converts a wire update to domain form, validating the payload.
func (u UpdateItem) Domain() (index.ObjectUpdate, error) {
	switch u.Op {
	case OpDelete:
		return index.ObjectUpdate{Op: index.UpdateDelete, ID: object.ID(u.ID)}, nil
	case OpMove, OpInsert, OpReplace:
		if u.Object == nil {
			return index.ObjectUpdate{}, fmt.Errorf("wire: %s update without object", u.Op)
		}
		o, err := u.Object.Object()
		if err != nil {
			return index.ObjectUpdate{}, err
		}
		var op index.UpdateOp
		switch u.Op {
		case OpMove:
			op = index.UpdateMove
		case OpInsert:
			op = index.UpdateInsert
		default:
			op = index.UpdateReplace
		}
		return index.ObjectUpdate{Op: op, Object: o}, nil
	}
	return index.ObjectUpdate{}, fmt.Errorf("wire: unknown update op %q", u.Op)
}

func opName(op index.UpdateOp) string {
	switch op {
	case index.UpdateMove:
		return OpMove
	case index.UpdateInsert:
		return OpInsert
	case index.UpdateDelete:
		return OpDelete
	case index.UpdateReplace:
		return OpReplace
	}
	return fmt.Sprintf("op%d", op)
}

// Topology operations in wire form.
const (
	TopoSetDoorClosed   = "set_door_closed"
	TopoSplit           = "split"
	TopoMerge           = "merge"
	TopoRemovePartition = "remove_partition"
	TopoDetachDoor      = "detach_door"
	TopoRebuildSkeleton = "rebuild_skeleton"
	TopoAddRoom         = "add_room"
	TopoAddDoor         = "add_door"
)

// TopologyRequest is one topology mutation. Op selects which fields
// apply: doors for door ops, partitions for partition ops, Rect/Pos for
// the add ops.
type TopologyRequest struct {
	Op         string      `json:"op"`
	Door       int64       `json:"door,omitempty"`
	Closed     bool        `json:"closed,omitempty"`
	Partition  int64       `json:"partition,omitempty"`
	Partition2 int64       `json:"partition2,omitempty"`
	AlongX     bool        `json:"alongX,omitempty"`
	At         float64     `json:"at,omitempty"`
	Floor      int         `json:"floor,omitempty"`
	Rect       *[4]float64 `json:"rect,omitempty"` // add_room: x1,y1,x2,y2
	Pos        *[2]float64 `json:"pos,omitempty"`  // add_door: x,y
	OneWay     bool        `json:"oneWay,omitempty"`
}

// TopologyResponse reports a topology mutation's outcome and any ids it
// allocated (split results, merge result, added room or door).
type TopologyResponse struct {
	Err        string `json:"err,omitempty"`
	PartitionA int64  `json:"partitionA,omitempty"`
	PartitionB int64  `json:"partitionB,omitempty"`
	Door       int64  `json:"doorId,omitempty"`
}

// Mutation checks a topology request from outside and converts it to the
// index mutation it names. An unknown op, an add_room without a rect or
// with a zero-width or zero-height rect, and an add_door without a pos are
// errors the server answers with 400. Adds allocate their ids.
func (r TopologyRequest) Mutation() (index.Mutation, error) {
	door, part, part2 := indoor.DoorID(r.Door), indoor.PartitionID(r.Partition), indoor.PartitionID(r.Partition2)
	switch r.Op {
	case TopoSetDoorClosed:
		return index.Mutation{Kind: index.MutSetDoorClosed, DoorID: door, Closed: r.Closed}, nil
	case TopoSplit:
		return index.Mutation{Kind: index.MutSplit, PartID: part, AlongX: r.AlongX, At: r.At}, nil
	case TopoMerge:
		return index.Mutation{Kind: index.MutMerge, PartID: part, PartID2: part2}, nil
	case TopoRemovePartition:
		return index.Mutation{Kind: index.MutRemovePartition, PartID: part}, nil
	case TopoDetachDoor:
		return index.Mutation{Kind: index.MutDetachDoor, DoorID: door}, nil
	case TopoRebuildSkeleton:
		return index.Mutation{Kind: index.MutRebuildSkeleton}, nil
	case TopoAddRoom:
		if r.Rect == nil {
			return index.Mutation{}, fmt.Errorf("add_room requires rect")
		}
		rect := geom.R(r.Rect[0], r.Rect[1], r.Rect[2], r.Rect[3])
		if rect.MinX == rect.MaxX || rect.MinY == rect.MaxY {
			return index.Mutation{}, fmt.Errorf("add_room rect %v has zero width or height", *r.Rect)
		}
		return index.Mutation{Kind: index.MutAddPartition, PartID: indoor.NoPartition,
			Part: &indoor.Partition{Kind: indoor.Room, Floor: r.Floor, Shape: geom.RectPoly(rect)}}, nil
	case TopoAddDoor:
		if r.Pos == nil {
			return index.Mutation{}, fmt.Errorf("add_door requires pos")
		}
		d := &indoor.Door{Pos: geom.Pt(r.Pos[0], r.Pos[1]), Floor: r.Floor, P1: part, P2: part2, OneWay: r.OneWay}
		if r.OneWay {
			d.From, d.To = part, part2
		}
		return index.Mutation{Kind: index.MutAttachDoor, DoorID: -1, Door: d}, nil
	}
	return index.Mutation{}, fmt.Errorf("unknown topology op %q", r.Op)
}

// TopologyResponseOf reports a committed (or refused) topology mutation:
// its error and the ids it allocated, -1 where a refused split, merge or
// add allocated nothing.
func TopologyResponseOf(m index.Mutation, err error) TopologyResponse {
	resp := TopologyResponse{}
	if err != nil {
		resp.Err = err.Error()
	}
	switch m.Kind {
	case index.MutSplit:
		resp.PartitionA, resp.PartitionB = int64(m.ResultA), int64(m.ResultB)
	case index.MutMerge:
		resp.PartitionA = int64(m.ResultA)
	case index.MutAddPartition:
		resp.PartitionA = int64(m.PartID)
	case index.MutAttachDoor:
		resp.Door = int64(m.DoorID)
	}
	return resp
}

// SubscribeRequest installs a standing query: exactly one of R or K.
type SubscribeRequest struct {
	Q Position `json:"q"`
	R float64  `json:"r,omitempty"`
	K int      `json:"k,omitempty"`
}

// SubscribeResponse returns the handle and initial result set. ID and Err
// may BOTH be meaningful: on a durable leader whose log append failed the
// subscription is registered in memory (its record may already be on
// disk), so the server reports the valid handle alongside the error
// instead of discarding it — discard would leak a registration the
// client cannot ever unsubscribe.
type SubscribeResponse struct {
	ID      int     `json:"id"`
	Results []int64 `json:"results"`
	Err     string  `json:"err,omitempty"`
}

// UnsubscribeRequest removes a standing query by handle.
type UnsubscribeRequest struct {
	ID int `json:"id"`
}

// UnsubscribeResponse reports whether the handle existed.
type UnsubscribeResponse struct {
	Existed bool `json:"existed"`
}

// Subscription event kinds in wire form.
const (
	EventEnter  = "enter"
	EventLeave  = "leave"
	EventUpdate = "update"
)

// Event is one subscription result change.
type Event struct {
	Sub    int    `json:"sub"`
	Object int64  `json:"object"`
	Kind   string `json:"kind"`
	// Dist is set for kNN enter/update events; absent where the engine
	// does not re-evaluate it (range events and leaves).
	Dist *float64 `json:"dist,omitempty"`
	Seq  uint64   `json:"seq"`
	// Lsn is the WAL position of the commit that produced the event —
	// pass it to the /v1/history endpoints to reconstruct the exact
	// state the event describes. Zero on a non-durable server.
	Lsn uint64 `json:"lsn,omitempty"`
}

// EventOf converts a domain subscription event to wire form. NaN
// distances (range events, leaves) become an absent field — JSON has no
// NaN.
func EventOf(e query.SubEvent) Event {
	out := Event{Sub: e.Sub, Object: int64(e.Object), Seq: e.Seq, Lsn: e.LSN}
	switch e.Kind {
	case query.EventEnter:
		out.Kind = EventEnter
	case query.EventLeave:
		out.Kind = EventLeave
	default:
		out.Kind = EventUpdate
	}
	if !math.IsNaN(e.Distance) {
		d := e.Distance
		out.Dist = &d
	}
	return out
}

// HistoryRangeRequest asks for an iRQ answer as of a past LSN.
type HistoryRangeRequest struct {
	Lsn uint64   `json:"lsn"`
	Q   Position `json:"q"`
	R   float64  `json:"r"`
}

// HistoryKNNRequest asks for an ikNNQ answer as of a past LSN.
type HistoryKNNRequest struct {
	Lsn uint64   `json:"lsn"`
	Q   Position `json:"q"`
	K   int      `json:"k"`
}

// HistoryQueryResponse answers a historical range or kNN query. Lsn
// echoes the state the answer was computed against.
type HistoryQueryResponse struct {
	Lsn     uint64   `json:"lsn"`
	Results []Result `json:"results"`
}

// HistoryTrajectoryRequest asks for one object's partition visits over
// the LSN window (from, to].
type HistoryTrajectoryRequest struct {
	Object int64  `json:"object"`
	From   uint64 `json:"from"`
	To     uint64 `json:"to"`
}

// HistoryVisit is one partition stay: entered at EnterLsn, last
// confirmed at LastLsn.
type HistoryVisit struct {
	Partition int64  `json:"partition"`
	EnterLsn  uint64 `json:"enterLsn"`
	LastLsn   uint64 `json:"lastLsn"`
}

// HistoryTrajectoryResponse lists the visits in order.
type HistoryTrajectoryResponse struct {
	Visits []HistoryVisit `json:"visits"`
}

// HistoryOccupancyRequest asks how a partition's population evolved
// over the LSN window (from, to].
type HistoryOccupancyRequest struct {
	Partition int64  `json:"partition"`
	From      uint64 `json:"from"`
	To        uint64 `json:"to"`
}

// HistoryOccupancyResponse reports the window's population arithmetic:
// Final = Initial + Enters - Leaves.
type HistoryOccupancyResponse struct {
	Initial int `json:"initial"`
	Enters  int `json:"enters"`
	Leaves  int `json:"leaves"`
	Final   int `json:"final"`
}

// HistoryStats is the wire form of the time-travel provider's counters.
type HistoryStats struct {
	// AsOf counts AsOf reconstructions requested; ViewHits the ones
	// served from the exact-LSN view cache; Materializations the
	// from-checkpoint rebuilds; Advances the nearest-ancestor reuses
	// (a cached state replayed forward instead of rebuilt);
	// ReplayedRecords the records folded doing either.
	AsOf             uint64 `json:"asOf"`
	ViewHits         uint64 `json:"viewHits"`
	Materializations uint64 `json:"materializations"`
	Advances         uint64 `json:"advances"`
	ReplayedRecords  uint64 `json:"replayedRecords"`
	// Trajectories, Occupancies and ScannedRecords count the log-scan
	// analytics served and the records they decoded.
	Trajectories   uint64 `json:"trajectories"`
	Occupancies    uint64 `json:"occupancies"`
	ScannedRecords uint64 `json:"scannedRecords"`
}

// EventChunk is one message of the event stream. Overflow signals that
// the server's bounded event log dropped events since the previous
// chunk: the stream is no longer a complete replay and the consumer must
// re-fetch affected subscriptions' full results (the documented resync
// path) instead of applying deltas.
type EventChunk struct {
	Events   []Event `json:"events"`
	Overflow bool    `json:"overflow,omitempty"`
}

// EndpointStats is one endpoint's cumulative serving profile.
type EndpointStats struct {
	Count      uint64 `json:"count"`
	Errors     uint64 `json:"errors"`
	MeanMicros int64  `json:"meanMicros"`
	P50Micros  int64  `json:"p50Micros"`
	P99Micros  int64  `json:"p99Micros"`
}

// ReplicaStats is the lag gauge a replica daemon reports: how far its
// applied state trails the leader's advertised durable horizon.
type ReplicaStats struct {
	AppliedLSN       uint64 `json:"appliedLsn"`
	LeaderDurableLSN uint64 `json:"leaderDurableLsn"`
	LagRecords       uint64 `json:"lagRecords"`
	Resyncs          uint64 `json:"resyncs"`
	Connected        bool   `json:"connected"`
	// Reconnects counts stream re-dials after transport failures.
	Reconnects uint64 `json:"reconnects,omitempty"`
	// BackoffMillis is the reconnect pause the replica is currently
	// sitting out (0 while streaming): the capped-exponential delay its
	// self-healing loop chose.
	BackoffMillis int64 `json:"backoffMillis,omitempty"`
}

// StatsResponse is the daemon's observability snapshot.
type StatsResponse struct {
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	NumObjects    int                      `json:"numObjects"`
	SnapshotSwaps uint64                   `json:"snapshotSwaps"`
	Subscriptions int                      `json:"subscriptions"`
	EventsDropped uint64                   `json:"eventsDropped"`
	// Durability horizons; zero on an ephemeral or replica daemon.
	WrittenLSN uint64 `json:"writtenLsn,omitempty"`
	DurableLSN uint64 `json:"durableLsn,omitempty"`
	WALSize    int64  `json:"walSize,omitempty"`
	// ReplStreams counts connected WAL-shipping subscribers (leader side).
	ReplStreams int `json:"replStreams,omitempty"`
	// Degraded is true while a durable leader is in fail-stop read-only
	// mode; DegradedReason carries the Reason* constant and
	// DegradedDetail the underlying error.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	DegradedDetail string `json:"degradedDetail,omitempty"`
	// Replica is set when this daemon is a read replica.
	Replica *ReplicaStats `json:"replica,omitempty"`
	// Reconcile is the subscription engine's reconciliation telemetry;
	// absent until the daemon has a database attached.
	Reconcile *ReconcileStats `json:"reconcile,omitempty"`
	// History is the time-travel provider's telemetry; absent when the
	// daemon has no history source.
	History *HistoryStats `json:"history,omitempty"`
}

// ReconcileStats is the wire form of the subscription engine's
// reconciliation counters and latency window.
type ReconcileStats struct {
	// Batches counts reconciled update batches; Updates the object
	// updates inside them; RoutedPairs the (subscription, object)
	// re-evaluations the inverted router admitted; AffectedSubs the
	// subscriptions touched, cumulatively; Refreshes the wholesale
	// subscription re-runs.
	Batches      uint64 `json:"batches"`
	Updates      uint64 `json:"updates"`
	RoutedPairs  uint64 `json:"routedPairs"`
	AffectedSubs uint64 `json:"affectedSubs"`
	Refreshes    uint64 `json:"refreshes"`
	// TopoAdmitted counts the subscriptions a topology commit reached,
	// TopoCarried the ones it carried to the new epoch untouched, so the
	// two add up to the registry size per commit; both are summed over
	// commits. TopoPartial is the part of TopoAdmitted reached only
	// through the full refinement rung: those re-resolve just that rung's
	// objects, and the rest of TopoAdmitted refreshes wholesale.
	TopoAdmitted uint64 `json:"topoAdmitted"`
	TopoCarried  uint64 `json:"topoCarried"`
	TopoPartial  uint64 `json:"topoPartial"`
	// BatchMeanMicros/P50/P99 aggregate per-batch reconciliation wall
	// time (microseconds) over the engine's recent-batch window.
	BatchMeanMicros int64 `json:"batchMeanMicros"`
	BatchP50Micros  int64 `json:"batchP50Micros"`
	BatchP99Micros  int64 `json:"batchP99Micros"`
}
