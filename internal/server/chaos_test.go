package server_test

// Network chaos and health-endpoint tests: a replica following a leader
// through a fault-injecting transport (reset dials, mid-frame stream
// cuts, latency) must never run ahead of the leader's written horizon,
// must converge once the storm ends, and must keep its health endpoints
// truthful the whole time; a fail-stopped leader must degrade to
// read-only with 503s on mutations and a flipped /readyz while queries
// keep serving.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	indoorq "repro"
	"repro/internal/netfault"
	"repro/internal/object"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestChaosNetworkReplication(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			runNetChaos(t, seed)
		})
	}
}

func runNetChaos(t *testing.T, seed int64) {
	db, _, ts, queries := newLeader(t, server.Config{Heartbeat: 2 * time.Millisecond})
	st := db.Store()

	// Every response body is cut after at most 2 KiB — the WAL stream
	// carries ~10 KiB of records, so every seed sees several mid-frame
	// cuts and reconnects; a fifth of dials are refused outright.
	tr := netfault.NewTransport(nil, netfault.Plan{
		Seed:            seed,
		FailProb:        0.2,
		CutBodyProb:     1,
		CutAfterMax:     2048,
		CutPathContains: wire.PathReplWAL,
		MaxLatency:      time.Millisecond,
	})
	rc := wire.NewClient(ts.URL, &http.Client{Transport: tr})
	rc.SetRequestTimeout(2 * time.Second)
	rep := replica.New(rc, replica.Config{ReconnectDelay: time.Millisecond, MaxReconnectDelay: 20 * time.Millisecond})

	// Bootstrap itself runs through the chaos transport; retry until a
	// fetch survives the storm.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err := rep.Start(context.Background()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: bootstrap never survived the fault plan", seed)
		}
	}
	defer rep.Close()

	// Churn on the leader while the replica fights the weather. The
	// replica must never observe history the leader has not written:
	// sample applied BEFORE written — written only grows, so a genuine
	// ahead-of-leader replica trips the check.
	for i := 0; i < 150; i++ {
		o := db.Object(indoorq.ObjectID(i % 40))
		up := indoorq.ObjectUpdate{Op: indoorq.UpdateMove, Object: object.PointObject(o.ID, queries[i%len(queries)])}
		if err := db.ApplyObjectUpdates([]indoorq.ObjectUpdate{up}); err != nil {
			t.Fatalf("seed %d: leader churn: %v", seed, err)
		}
		applied := rep.AppliedLSN()
		if written := st.WrittenLSN(); applied > written {
			t.Fatalf("seed %d: replica applied lsn %d ahead of leader written %d", seed, applied, written)
		}
		// Pace the churn so the storm actually rages while records flow:
		// group-commit windows elapse, streams carry frames and get cut.
		time.Sleep(200 * time.Microsecond)
	}

	// End the storm; the self-healing loop must converge on the full
	// history with no resync leak or stuck backoff. Sync first so the
	// target is the real tail, not a buffered horizon.
	tr.SetEnabled(false)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	target := st.WrittenLSN()
	if target < 150 {
		t.Fatalf("seed %d: leader written horizon %d after 150 committed batches", seed, target)
	}
	waitFor(t, 15*time.Second, "replica catch-up", func() bool { return rep.AppliedLSN() >= target })
	if n := rep.Index().Current().Objects().Len(); n != db.NumObjects() {
		t.Fatalf("seed %d: converged replica has %d objects, leader %d", seed, n, db.NumObjects())
	}
	if tr.Injected() == 0 || rep.Stats().Reconnects == 0 {
		t.Fatalf("seed %d: storm never raged (injected=%d, reconnects=%d)", seed, tr.Injected(), rep.Stats().Reconnects)
	}
	t.Logf("seed %d: injected=%d stats=%+v", seed, tr.Injected(), rep.Stats())
}

// TestReplicaBackoffAndStatsOnOutage pins the reconnect ladder's
// observable half: when the leader's HTTP endpoint dies, the replica
// keeps serving its last state, reports the stream down, and its
// reconnect counter climbs while the backoff gauge shows a bounded,
// non-zero pause.
func TestReplicaBackoffAndStatsOnOutage(t *testing.T) {
	db, _, ts, _ := newLeader(t, server.Config{Heartbeat: 2 * time.Millisecond})
	// The replica reaches the leader through a transparent proxy so the
	// outage can be a real severed link (closing the httptest server
	// directly would block on the replica's own live stream).
	px, err := netfault.NewProxy(strings.TrimPrefix(ts.URL, "http://"), netfault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	rep := replica.New(wire.NewClient("http://"+px.Addr(), nil), replica.Config{ReconnectDelay: time.Millisecond, MaxReconnectDelay: 10 * time.Millisecond})
	if err := rep.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitFor(t, 5*time.Second, "stream up", func() bool { return rep.Stats().Connected })

	before := db.NumObjects()
	px.Close() // leader vanishes: live stream cut, re-dials refused

	waitFor(t, 5*time.Second, "reconnect attempts", func() bool {
		s := rep.Stats()
		return !s.Connected && s.Reconnects >= 3
	})
	s := rep.Stats()
	if s.BackoffMillis < 0 || s.BackoffMillis > 10 {
		t.Fatalf("backoff gauge %dms outside [0, max=10ms]", s.BackoffMillis)
	}
	// Still serving the last applied state.
	if n := rep.Index().Current().Objects().Len(); n != before {
		t.Fatalf("outage changed replica state: %d objects, want %d", n, before)
	}
}

func TestLeaderHealthAndDegradedReadOnly(t *testing.T) {
	db, c, _, queries := newLeader(t, server.Config{})

	// Healthy: both probes 200, stats not degraded.
	h, code, err := c.Healthz()
	if err != nil || code != http.StatusOK || h.Status != "ok" || h.Role != "leader" {
		t.Fatalf("healthz: %+v code=%d err=%v", h, code, err)
	}
	if r, code, err := c.Readyz(); err != nil || code != http.StatusOK || r.Reason != "" {
		t.Fatalf("readyz healthy: %+v code=%d err=%v", r, code, err)
	}

	// Chaos drill: poison the store — the same sticky fail-stop a real
	// log I/O failure produces.
	db.Store().Poison(nil)

	// Readiness flips with the machine-readable reason; liveness stays.
	if r, code, _ := c.Readyz(); code != http.StatusServiceUnavailable || r.Reason != wire.ReasonWALFailStop || r.Status != "unavailable" {
		t.Fatalf("readyz degraded: %+v code=%d", r, code)
	}
	if _, code, _ := c.Healthz(); code != http.StatusOK {
		t.Fatalf("healthz must stay 200 on a degraded leader, got %d", code)
	}

	// Mutations are refused up front with 503 and the reason in the body.
	mv, err := wire.UpdateItemOf(indoorq.ObjectUpdate{Op: indoorq.UpdateMove, Object: object.PointObject(1, queries[0])})
	if err != nil {
		t.Fatal(err)
	}
	uerr := c.ApplyUpdates([]wire.UpdateItem{mv})
	if uerr == nil {
		t.Fatal("degraded leader accepted an update")
	}
	if !strings.Contains(uerr.Error(), "503") || !strings.Contains(uerr.Error(), wire.ReasonWALFailStop) {
		t.Fatalf("update refusal must carry 503 and the reason, got: %v", uerr)
	}
	if _, terr := c.Topology(wire.TopologyRequest{Op: wire.TopoSetDoorClosed, Door: 1}); terr == nil || !strings.Contains(terr.Error(), wire.ReasonWALFailStop) {
		t.Fatalf("degraded topology must 503 with reason, got: %v", terr)
	}

	// Queries keep answering, and stats tell the truth.
	resp, err := c.RangeBatch([]wire.RangeQuery{{Q: wire.PositionOf(queries[0]), R: 60}})
	if err != nil || len(resp.Responses) != 1 || resp.Responses[0].Err != "" {
		t.Fatalf("degraded leader must keep serving queries: %+v err=%v", resp, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded || stats.DegradedReason != wire.ReasonWALFailStop || stats.DegradedDetail == "" {
		t.Fatalf("stats must report the degraded state: %+v", stats)
	}

	// Subscribe keeps its in-band contract (handle AND error) — it is
	// deliberately not gated; see wire.SubscribeResponse.
	sub, err := c.Subscribe(wire.SubscribeRequest{Q: wire.PositionOf(queries[1]), R: 40})
	if err != nil {
		t.Fatalf("subscribe must not 503: %v", err)
	}
	if sub.Err == "" {
		t.Fatal("degraded subscribe must report the log error in-band")
	}
	if existed, err := c.Unsubscribe(sub.ID); err != nil || !existed {
		t.Fatalf("cleanup via reported handle: %v existed=%v", err, existed)
	}
}

func TestReplicaHealthTracksStream(t *testing.T) {
	_, _, ts, _ := newLeader(t, server.Config{Heartbeat: 2 * time.Millisecond})
	px, err := netfault.NewProxy(strings.TrimPrefix(ts.URL, "http://"), netfault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	rep := replica.New(wire.NewClient("http://"+px.Addr(), nil), replica.Config{ReconnectDelay: time.Millisecond, MaxReconnectDelay: 10 * time.Millisecond})
	if err := rep.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rsrv := server.NewReplica(rep, server.Config{})
	rts := httptest.NewServer(rsrv.Handler())
	defer func() { rsrv.Close(); rts.Close() }()
	rc := wire.NewClient(rts.URL, nil)

	waitFor(t, 5*time.Second, "replica ready", func() bool {
		_, code, err := rc.Readyz()
		return err == nil && code == http.StatusOK
	})
	if h, code, err := rc.Healthz(); err != nil || code != http.StatusOK || h.Role != "replica" {
		t.Fatalf("replica healthz: %+v code=%d err=%v", h, code, err)
	}

	px.Close() // partition the leader away
	waitFor(t, 5*time.Second, "replica not-ready", func() bool {
		r, code, err := rc.Readyz()
		return err == nil && code == http.StatusServiceUnavailable && r.Reason == wire.ReasonReplicaDisconnected
	})
	// Liveness holds: the daemon still serves (reads from the last
	// applied state keep working through the query endpoints).
	if _, code, err := rc.Healthz(); err != nil || code != http.StatusOK {
		t.Fatalf("replica healthz during outage: code=%d err=%v", code, err)
	}
}
