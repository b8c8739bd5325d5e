package main

// target says which daemon a query stream reads from.
type target int

const (
	onLeader target = iota
	onReplica
	alternating // successive requests alternate leader / replica
)

// workload is one traffic mix. Rates are constants, not knobs: a row of
// this table IS the workload, and its digest covers every field.
//
// The driver's contract wants every end-to-end metric from every workload,
// so each mix carries all three kinds of traffic; what differs is which
// kind dominates and which is a thin background trickle (the *Rate fields
// with small values below). A rate of 0 makes that stream a closed loop.
type workload struct {
	name string
	why  string

	// Queries, 2:1 iRQ(r=50 m) : ikNN(k=10), one query per request.
	// queryRate 0: nproc closed-loop callers. Otherwise one open-loop
	// reader at queryRate requests/s.
	queryRate float64
	queryOn   target

	// Updates: 32-move stationary-jitter batches to the leader, one
	// writer. updateRate is batches/s; 0 is a closed loop.
	updateRate float64

	// Topology mutations to the leader, topoRate/s, open loop: door
	// close/open pairs, and every splitEvery-th pair a room split followed
	// by its merge instead (0: toggles only).
	topoRate   float64
	splitEvery int

	// subs standing queries (7:1 range r=30 : kNN k=10) installed during
	// set-up. Every workload consumes the leader's event stream, as a
	// monitoring deployment would: unread, the bounded event log only
	// fills up and overflows.
	subs int
}

// spec is the part of a workload its digest covers.
func (w workload) spec() workload { w.why = ""; return w }

var workloads = []workload{
	{
		name: "read_heavy",
		why: "nproc closed-loop query callers, leader and replica alternating; wire, server, serve, query and distance " +
			"do the work and writes only trickle, so a write-path change must show no change here",
		queryRate: 0, queryOn: alternating,
		updateRate: 10, topoRate: 2, subs: 40,
	},
	{
		name: "write_heavy",
		why: "one closed-loop writer of 32-move batches, 1000 standing queries, event stream consumed; update decode, " +
			"pipeline, WAL group commit, reconciliation, fan-out and replica apply dominate; reads trickle",
		queryRate: 40, queryOn: onReplica,
		updateRate: 0, topoRate: 0.5, subs: 1000,
	},
	{
		name: "mixed_churn",
		why: "the serving scenario: 1600 moves/s paced on the leader, 80 queries/s paced on the replica, 200 standing " +
			"queries; every layer does a moderate share, so a gain for one use that costs another shows here",
		queryRate: 80, queryOn: onReplica,
		updateRate: 50, topoRate: 1, subs: 200,
	},
	{
		name: "topo_churn",
		why: "topology mutations paced at 4/s (door toggles, every tenth pair a room split and merge), 80 queries/s on " +
			"the leader; clone, rebake, door-graph compile and subscription refresh cost O(building) each",
		queryRate: 80, queryOn: onLeader,
		updateRate: 10, topoRate: 4, splitEvery: 10, subs: 40,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the gated metrics, in BENCHMARK.json's order.
var endToEnd = []metricDef{
	{"query_qps", "1/s", "higher"},
	{"irq_p50_ms", "ms", "lower"},
	{"iknn_p50_ms", "ms", "lower"},
	{"moves_per_s", "1/s", "higher"},
	{"update_ack_p50_ms", "ms", "lower"},
	{"topo_ack_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the ungated layer metrics of the traced pass, named after
// the modules they measure.
var perLayer = []metricDef{
	{"wire.encode_ms", "ms", "lower"},
	{"wire.decode_ms", "ms", "lower"},
	{"wire.bytes_per_op", "bytes", "lower"},
	{"wire.update_encode_ms", "ms", "lower"},
	{"wire.update_decode_ms", "ms", "lower"},
	{"wire.update_bytes_per_op", "bytes", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.refused", "count", "lower"},
	{"serve.batch_ms", "ms", "lower"},
	{"query.filtering_ms", "ms", "lower"},
	{"query.subgraph_ms", "ms", "lower"},
	{"query.pruning_ms", "ms", "lower"},
	{"query.refinement_ms", "ms", "lower"},
	{"query.candidates", "count", "lower"},
	{"query.accepted_bounds", "count", "higher"},
	{"query.rejected_bounds", "count", "higher"},
	{"query.refined", "count", "lower"},
	{"query.full_fallbacks", "count", "lower"},
	{"query.refined_per_result", "ratio", "lower"},
	{"query.reconcile_ms", "ms", "lower"},
	{"query.routed_pairs_per_move", "ratio", "lower"},
	{"distance.bounds_batch_ms", "ms", "lower"},
	{"distance.bracket_batch_ms", "ms", "lower"},
	{"index.pin_ns", "ns", "lower"},
	{"index.object_commit_ms", "ms", "lower"},
	{"index.topo_commit_ms", "ms", "lower"},
	{"index.build_s", "s", "lower"},
	{"rtree.clone_ms", "ms", "lower"},
	{"store.append_ms", "ms", "lower"},
	{"store.sync_ms", "ms", "lower"},
	{"store.wal_bytes_per_move", "bytes", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.checkpoint_s", "s", "lower"},
	{"store.recover_s", "s", "lower"},
	{"replica.bootstrap_s", "s", "lower"},
	{"replica.lag_records_p50", "count", "lower"},
	{"replica.lag_records_max", "count", "lower"},
	{"history.asof_cold_ms", "ms", "lower"},
	{"history.asof_warm_ms", "ms", "lower"},
	{"leader.cpu_s", "s", "lower"},
	{"replica.cpu_s", "s", "lower"},
	{"leader.rss_mb", "MB", "lower"},
	{"replica.rss_mb", "MB", "lower"},
	{"trace.spans", "count", "lower"},
}
