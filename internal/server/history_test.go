package server_test

// The time-travel wire contract on both roles: historical range, kNN,
// trajectory and occupancy at the written horizon, a replica answering
// exactly like its leader, and the machine-readable refusals — 416
// history_future past the horizon, 410 history_pruned below a
// compaction, 503 history_unavailable on an ephemeral leader — plus the
// degraded read path (a fail-stopped leader still answers from its log).

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	indoorq "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// wantRefusal asserts err is an HTTP refusal with status code and the
// machine-readable reason in its body.
func wantRefusal(t *testing.T, what string, err error, code, reason string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), code) || !strings.Contains(err.Error(), `"reason":"`+reason+`"`) {
		t.Fatalf("%s: want %s %s, got %v", what, code, reason, err)
	}
}

func TestHistoryOverWire(t *testing.T) {
	db, c, ts, queries := newLeader(t, server.Config{Heartbeat: 5 * time.Millisecond})
	rep, rc, _ := newReplica(t, ts)

	// Paced churn: 24 door toggles, one WAL record each.
	door := int64(db.Building().Doors()[1].ID)
	for i := 0; i < 24; i++ {
		resp, err := c.Topology(wire.TopologyRequest{Op: wire.TopoSetDoorClosed, Door: door, Closed: i%2 == 0})
		if err != nil || resp.Err != "" {
			t.Fatalf("toggle %d: %v / %q", i, err, resp.Err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	lsn := db.Store().WrittenLSN()
	if lsn < 24 {
		t.Fatalf("written horizon %d after 24 toggles", lsn)
	}

	// The leader answers all four endpoints at its written horizon, and
	// the horizon's range answer is the live one (nothing committed since).
	q := wire.PositionOf(queries[0])
	atHorizon := wire.HistoryRangeRequest{Lsn: lsn, Q: q, R: 200}
	lh, err := c.HistoryRange(atHorizon)
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.RangeBatch([]wire.RangeQuery{{Q: q, R: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if lh.Lsn != lsn || len(lh.Results) == 0 || !sameResults(lh.Results, live.Responses[0].Results) {
		t.Fatalf("history range at horizon %d: lsn %d, %d results, live answer %d results", lsn, lh.Lsn, len(lh.Results), len(live.Responses[0].Results))
	}
	if kh, err := c.HistoryKNN(wire.HistoryKNNRequest{Lsn: lsn, Q: q, K: 5}); err != nil || len(kh.Results) != 5 {
		t.Fatalf("history knn: %d results, err %v", len(kh.Results), err)
	}
	tr, err := c.HistoryTrajectory(wire.HistoryTrajectoryRequest{Object: 1, From: 0, To: lsn})
	if err != nil || len(tr.Visits) != 1 {
		t.Fatalf("history trajectory of an object door toggles never move: %+v, err %v", tr.Visits, err)
	}
	occ, err := c.HistoryOccupancy(wire.HistoryOccupancyRequest{Partition: tr.Visits[0].Partition, From: 0, To: lsn})
	if err != nil || occ.Initial == 0 || occ.Enters != 0 || occ.Leaves != 0 || occ.Final != occ.Initial {
		t.Fatalf("history occupancy over door toggles: %+v, err %v", occ, err)
	}

	// The replica serves history from its own applied window, and its
	// answer at the horizon is the leader's.
	waitFor(t, 10*time.Second, "replica catch-up", func() bool { return rep.AppliedLSN() >= lsn })
	rh, err := rc.HistoryRange(atHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Lsn != lh.Lsn || !sameResults(rh.Results, lh.Results) {
		t.Fatalf("replica history at lsn %d diverges from the leader's", lsn)
	}

	// Past the horizon: 416 history_future.
	_, err = c.HistoryRange(wire.HistoryRangeRequest{Lsn: lsn + 100000, Q: q, R: 200})
	wantRefusal(t, "future lsn", err, "416", wire.ReasonHistoryFuture)

	// Compaction prunes everything below the new checkpoint (410,
	// terminal); the checkpoint's LSN itself still answers.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	cut := db.Store().WrittenLSN()
	_, err = c.HistoryRange(wire.HistoryRangeRequest{Lsn: cut - 1, Q: q, R: 200})
	wantRefusal(t, "pruned lsn", err, "410", wire.ReasonHistoryPruned)
	atCut := wire.HistoryRangeRequest{Lsn: cut, Q: q, R: 200}
	if _, err := c.HistoryRange(atCut); err != nil {
		t.Fatalf("history at the compaction cut %d: %v", cut, err)
	}

	// Degraded read path: a fail-stopped leader refuses mutations but
	// keeps answering history from its log.
	db.Store().Poison(nil)
	if _, err := c.HistoryRange(atCut); err != nil {
		t.Fatalf("degraded leader history range: %v", err)
	}
	if tr, err := c.HistoryTrajectory(wire.HistoryTrajectoryRequest{Object: 1, From: cut, To: cut}); err != nil || len(tr.Visits) != 1 {
		t.Fatalf("degraded leader history trajectory: %+v, err %v", tr.Visits, err)
	}

	// An ephemeral leader has no log: history is cleanly unavailable.
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	eph, _, err := indoorq.Open(b, nil, indoorq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	esrv := server.NewLeader(eph, server.Config{})
	ets := httptest.NewServer(esrv.Handler())
	defer func() { esrv.Close(); ets.Close() }()
	_, err = wire.NewClient(ets.URL, nil).HistoryRange(wire.HistoryRangeRequest{Lsn: 0, Q: q, R: 200})
	wantRefusal(t, "ephemeral leader", err, "503", wire.ReasonHistoryUnavailable)
}
