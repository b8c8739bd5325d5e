package server_test

// End-to-end tests of the serving daemon over a real HTTP transport:
// query correctness against the facade, batch coalescing, mutations and
// topology over the wire, the subscription fail-stop contract
// (handle AND error both cross the wire), the event stream, and a full
// leader → replica replication chain over HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	indoorq "repro"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// newLeader boots a durable leader daemon on an httptest listener.
func newLeader(t *testing.T, cfg server.Config) (*indoorq.DB, *wire.Client, *httptest.Server, []indoorq.Position) {
	t.Helper()
	return newLeaderAt(t, t.TempDir(), cfg)
}

// newLeaderAt is newLeader persisting to dir, for tests that reopen it.
func newLeaderAt(t *testing.T, dir string, cfg server.Config) (*indoorq.DB, *wire.Client, *httptest.Server, []indoorq.Position) {
	t.Helper()
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: 60, Radius: 5, Instances: 4, Seed: 11})
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, indoorq.DurabilityOptions{GroupWindow: time.Millisecond, CompactBytes: -1}); err != nil {
		t.Fatal(err)
	}
	srv := server.NewLeader(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
		db.Close()
	})
	return db, wire.NewClient(ts.URL, nil), ts, indoorq.GenerateQueryPoints(b, 4, 12)
}

// newReplica starts a replica following the leader daemon at ts over
// HTTP and serves it on its own httptest listener.
func newReplica(t *testing.T, ts *httptest.Server) (*replica.Replica, *wire.Client, *httptest.Server) {
	t.Helper()
	rep := replica.New(wire.NewClient(ts.URL, nil), replica.Config{ReconnectDelay: 5 * time.Millisecond})
	if err := rep.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	rsrv := server.NewReplica(rep, server.Config{CoalesceWindow: -1})
	rts := httptest.NewServer(rsrv.Handler())
	t.Cleanup(func() {
		rsrv.Close()
		rts.Close()
		rep.Close()
	})
	return rep, wire.NewClient(rts.URL, nil), rts
}

// wantWire converts direct facade answers to wire form for comparison.
func wantWire(rs []indoorq.Result) []wire.Result { return wire.ResultsOf(rs) }

func sameResults(a, b []wire.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
		if (a[i].Dist == nil) != (b[i].Dist == nil) {
			return false
		}
		if a[i].Dist != nil && math.Abs(*a[i].Dist-*b[i].Dist) > 1e-12 {
			return false
		}
	}
	return true
}

func TestQueriesMatchFacadeOverWire(t *testing.T) {
	db, c, _, queries := newLeader(t, server.Config{CoalesceWindow: -1})
	var rqs []wire.RangeQuery
	var kqs []wire.KNNQuery
	for _, q := range queries {
		rqs = append(rqs, wire.RangeQuery{Q: wire.PositionOf(q), R: 45})
		kqs = append(kqs, wire.KNNQuery{Q: wire.PositionOf(q), K: 6})
	}
	rout, err := c.RangeBatch(rqs)
	if err != nil {
		t.Fatal(err)
	}
	kout, err := c.KNNBatch(kqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rout.Responses) != len(queries) || len(kout.Responses) != len(queries) {
		t.Fatalf("got %d/%d responses, want %d", len(rout.Responses), len(kout.Responses), len(queries))
	}
	for i, q := range queries {
		want, _, err := db.RangeQuery(q, 45)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(wantWire(want), rout.Responses[i].Results) {
			t.Fatalf("range %d: wire answer diverges from facade", i)
		}
		wantK, _, err := db.KNNQuery(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(wantWire(wantK), kout.Responses[i].Results) {
			t.Fatalf("knn %d: wire answer diverges from facade", i)
		}
	}
	if rout.Metrics.Queries != len(queries) {
		t.Fatalf("metrics report %d queries, want %d", rout.Metrics.Queries, len(queries))
	}
}

// TestConcurrentRequestsCoalesce proves concurrently arriving point
// queries share serve-pool batches: with a generous window, single-query
// requests fired together must come back with batch metrics covering
// more than their own query.
func TestConcurrentRequestsCoalesce(t *testing.T) {
	_, c, _, queries := newLeader(t, server.Config{CoalesceWindow: 25 * time.Millisecond, MaxBatch: 1024})
	const n = 16
	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := c.RangeBatch([]wire.RangeQuery{{Q: wire.PositionOf(queries[i%len(queries)]), R: 30}})
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = out.Metrics.Queries
		}(i)
	}
	wg.Wait()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	if max < 2 {
		t.Fatalf("no request rode a coalesced batch (batch sizes %v)", sizes)
	}
}

// TestUnencodableAnswerIs500 pins the transport half of the infinite
// distance defect: an ikNN from inside a room whose doors are all closed
// yields +Inf distances, which JSON cannot carry. The server must answer
// 500 with the encode error, counted as an endpoint error, never 200
// with an empty body.
func TestUnencodableAnswerIs500(t *testing.T) {
	db, c, ts, _ := newLeader(t, server.Config{CoalesceWindow: -1})
	var room *indoorq.Partition
	for _, p := range db.Building().Partitions() {
		if p.Kind == indoor.Room && len(p.Doors) > 0 {
			room = p
			break
		}
	}
	if room == nil {
		t.Fatal("mall has no room with doors")
	}
	for _, d := range room.Doors {
		if err := db.SetDoorClosed(d, true); err != nil {
			t.Fatal(err)
		}
	}
	r := room.Bounds()
	q := indoorq.Pos((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2, room.Floor)
	res, _, err := db.KNNQuery(q, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(res, func(r indoorq.Result) bool { return math.IsInf(r.Distance, 1) }) {
		t.Fatal("sealed-room ikNN returned no infinite distance; the fixture no longer reproduces the defect")
	}

	req, err := json.Marshal(wire.KNNBatch{Queries: []wire.KNNQuery{{Q: wire.PositionOf(q), K: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+wire.PathKNNQuery, "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || len(body) == 0 {
		t.Fatalf("status %d with %d-byte body %q, want 500 with the encode error", resp.StatusCode, len(body), body)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Endpoints[wire.PathKNNQuery].Errors == 0 {
		t.Fatal("the 500 was not counted as an endpoint error")
	}
}

func TestMutationsOverWire(t *testing.T) {
	db, c, _, queries := newLeader(t, server.Config{})
	before := db.NumObjects()

	o := object.PointObject(7000, queries[0])
	item, err := wire.UpdateItemOf(indoorq.ObjectUpdate{Op: indoorq.UpdateInsert, Object: o})
	if err != nil {
		t.Fatal(err)
	}
	mv, err := wire.UpdateItemOf(indoorq.ObjectUpdate{Op: indoorq.UpdateMove, Object: object.PointObject(3, queries[1])})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyUpdates([]wire.UpdateItem{item, mv}); err != nil {
		t.Fatal(err)
	}
	if got := db.NumObjects(); got != before+1 {
		t.Fatalf("insert over wire: %d objects, want %d", got, before+1)
	}
	if got := db.Object(7000); got == nil || got.Center.Floor != queries[0].Floor {
		t.Fatal("inserted object not queryable")
	}

	// Topology: close a door, split and re-merge a partition.
	d := db.Building().Doors()[1].ID
	resp, err := c.Topology(wire.TopologyRequest{Op: wire.TopoSetDoorClosed, Door: int64(d), Closed: true})
	if err != nil || resp.Err != "" {
		t.Fatalf("set_door_closed: %v / %q", err, resp.Err)
	}
	if !db.Building().Door(d).Closed {
		t.Fatal("door not closed")
	}
	var pid indoorq.PartitionID = -1
	for _, p := range db.Building().Partitions() {
		if r := p.Bounds(); p.Shape.IsConvex() && r.MaxX-r.MinX > 8 {
			pid = p.ID
			break
		}
	}
	if pid < 0 {
		t.Skip("no splittable partition in fixture")
	}
	r := db.Building().Partition(pid).Bounds()
	sp, err := c.Topology(wire.TopologyRequest{Op: wire.TopoSplit, Partition: int64(pid), AlongX: true, At: (r.MinX + r.MaxX) / 2})
	if err != nil || sp.Err != "" {
		t.Fatalf("split: %v / %q", err, sp.Err)
	}
	mg, err := c.Topology(wire.TopologyRequest{Op: wire.TopoMerge, Partition: sp.PartitionA, Partition2: sp.PartitionB})
	if err != nil || mg.Err != "" {
		t.Fatalf("merge: %v / %q", err, mg.Err)
	}
}

// TestAddOneWayDoorOverWire pins add_door's one-way form: one request
// adds exactly one door, directed from the first partition to the second.
func TestAddOneWayDoorOverWire(t *testing.T) {
	db, c, _, _ := newLeader(t, server.Config{})
	b := db.Building()
	var tmpl *indoorq.Door
	for _, d := range b.Doors() {
		p1, p2 := b.Partition(d.P1), b.Partition(d.P2)
		if p1 != nil && p2 != nil && p1.Kind != indoor.Staircase && p2.Kind != indoor.Staircase {
			tmpl = d
			break
		}
	}
	if tmpl == nil {
		t.Fatal("mall has no door between two non-staircase partitions")
	}
	before := len(b.Doors())
	resp, err := c.Topology(wire.TopologyRequest{
		Op: wire.TopoAddDoor, Pos: &[2]float64{tmpl.Pos.X, tmpl.Pos.Y}, Floor: tmpl.Floor,
		Partition: int64(tmpl.P2), Partition2: int64(tmpl.P1), OneWay: true,
	})
	if err != nil || resp.Err != "" {
		t.Fatalf("add_door: %v / %q", err, resp.Err)
	}
	if got := len(b.Doors()); got != before+1 {
		t.Fatalf("one add_door took the building from %d to %d doors", before, got)
	}
	d := b.Door(indoorq.DoorID(resp.Door))
	if d == nil || !d.OneWay || d.From != tmpl.P2 || d.To != tmpl.P1 {
		t.Fatalf("added door %+v, want one-way %d -> %d", d, tmpl.P2, tmpl.P1)
	}
}

func TestSubscribeAndEventStreamOverWire(t *testing.T) {
	db, c, _, queries := newLeader(t, server.Config{EventPoll: 2 * time.Millisecond})
	sub, err := c.Subscribe(wire.SubscribeRequest{Q: wire.PositionOf(queries[0]), R: 70})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Err != "" {
		t.Fatalf("subscribe error: %q", sub.Err)
	}
	if sub.ID < 0 {
		t.Fatalf("subscribe handle %d", sub.ID)
	}
	if db.NumSubscriptions() != 1 {
		t.Fatalf("%d subscriptions registered, want 1", db.NumSubscriptions())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan wire.Event, 64)
	go func() {
		_ = c.StreamEvents(ctx, func(ch wire.EventChunk) error {
			for _, e := range ch.Events {
				got <- e
			}
			return nil
		})
	}()
	// Give the stream a beat to connect, then trigger an enter event.
	time.Sleep(20 * time.Millisecond)
	if err := db.InsertObject(object.PointObject(8000, queries[0])); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case e := <-got:
			if e.Sub == sub.ID && e.Object == 8000 && e.Kind == wire.EventEnter {
				goto done
			}
		case <-deadline:
			t.Fatal("enter event never crossed the wire")
		}
	}
done:
	existed, err := c.Unsubscribe(sub.ID)
	if err != nil || !existed {
		t.Fatalf("unsubscribe: %v existed=%v", err, existed)
	}
}

// TestSubscribeFailStopReportsHandleAndError pins the wire half of the
// subscribe contract: when the leader's log refuses the registration
// append (fail-stop store), the in-memory subscription exists and is
// live — the server must deliver BOTH the handle and the error, because
// dropping the handle would leak a registration the client can never
// unsubscribe.
func TestSubscribeFailStopReportsHandleAndError(t *testing.T) {
	db, c, _, queries := newLeader(t, server.Config{})
	// Fail-stop the store out from under the serving daemon.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(wire.SubscribeRequest{Q: wire.PositionOf(queries[0]), R: 50})
	if err != nil {
		t.Fatalf("transport failed, want in-band contract: %v", err)
	}
	if sub.Err == "" {
		t.Fatal("fail-stop subscribe reported no error")
	}
	if db.NumSubscriptions() != 1 {
		t.Fatal("handle does not correspond to a live registration")
	}
	// The handle is usable: the client can clean up.
	existed, err := c.Unsubscribe(sub.ID)
	if err != nil || !existed {
		t.Fatalf("cleanup via reported handle failed: %v existed=%v", err, existed)
	}
}

// TestReplicationOverWire runs the full chain over real HTTP: leader
// daemon → wire client as replica source → replica daemon serving
// queries, with the leader counting the stream and the replica
// reporting its lag gauge.
func TestReplicationOverWire(t *testing.T) {
	db, c, ts, queries := newLeader(t, server.Config{Heartbeat: 5 * time.Millisecond})
	rep, rc, _ := newReplica(t, ts)

	// Churn through the leader's wire API, then sync.
	for i := 0; i < 10; i++ {
		mv, err := wire.UpdateItemOf(indoorq.ObjectUpdate{Op: indoorq.UpdateMove, Object: object.PointObject(indoorq.ObjectID(i), queries[i%len(queries)])})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyUpdates([]wire.UpdateItem{mv}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	target := db.Store().DurableLSN()
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, want %d (stats %+v)", rep.AppliedLSN(), target, rep.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// The replica daemon answers identically to the leader daemon.
	q := []wire.RangeQuery{{Q: wire.PositionOf(queries[0]), R: 45}}
	lout, err := c.RangeBatch(q)
	if err != nil {
		t.Fatal(err)
	}
	rout, err := rc.RangeBatch(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(lout.Responses[0].Results, rout.Responses[0].Results) {
		t.Fatal("replica daemon's answer diverges from leader daemon's")
	}

	// Observability on both ends.
	lstats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if lstats.ReplStreams != 1 {
		t.Fatalf("leader reports %d repl streams, want 1", lstats.ReplStreams)
	}
	if lstats.DurableLSN < target {
		t.Fatalf("leader durable lsn %d < %d", lstats.DurableLSN, target)
	}
	if lstats.Endpoints[wire.PathUpdates].Count == 0 {
		t.Fatal("updates endpoint counted no requests")
	}
	if lstats.Reconcile == nil {
		t.Fatal("leader reports no reconciliation stats")
	}
	rstats, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Replica == nil {
		t.Fatal("replica daemon reports no replica stats")
	}
	if rstats.Replica.AppliedLSN < target {
		t.Fatalf("replica stats applied %d < %d", rstats.Replica.AppliedLSN, target)
	}
	if rstats.Replica.LagRecords != 0 {
		t.Fatalf("replica lag %d after catch-up", rstats.Replica.LagRecords)
	}
	if rstats.NumObjects != lstats.NumObjects {
		t.Fatalf("replica holds %d objects, leader %d", rstats.NumObjects, lstats.NumObjects)
	}
}

// TestReplicaRefusesLeaderOnlyPaths pins the replica's refusals: every
// mutation and replication-feed path answers 403, and each refusal is
// counted as an error of its endpoint.
func TestReplicaRefusesLeaderOnlyPaths(t *testing.T) {
	_, _, ts, _ := newLeader(t, server.Config{Heartbeat: 5 * time.Millisecond})
	_, rc, rts := newReplica(t, ts)
	cases := []struct {
		method, path, query string
	}{
		{http.MethodPost, wire.PathUpdates, ""},
		{http.MethodPost, wire.PathTopology, ""},
		{http.MethodPost, wire.PathSubscribe, ""},
		{http.MethodPost, wire.PathUnsubscribe, ""},
		{http.MethodGet, wire.PathEvents, ""},
		{http.MethodGet, wire.PathReplCheckpoint, ""},
		{http.MethodGet, wire.PathReplWAL, "?after=0"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, rts.URL+tc.path+tc.query, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s%s on a replica: status %d, want 403", tc.method, tc.path, tc.query, resp.StatusCode)
		}
	}
	stats, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if ep := stats.Endpoints[tc.path]; ep.Count != 1 || ep.Errors != 1 {
			t.Errorf("%s: %d requests, %d errors; want the one refusal counted as an error", tc.path, ep.Count, ep.Errors)
		}
	}
}
