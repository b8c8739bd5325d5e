package replica_test

// End-to-end replication tests over LocalSource: a durable leader under
// paced churn with two replicas answering from their own snapshots, the
// lag gauge, the resync-after-compaction path, and promotion of a
// replica into a primary via indoorq.AdoptIndex.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	indoorq "repro"
	"repro/internal/history"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/wire"
)

// leaderDB builds a durable leader over a synthetic mall with a fast
// group-commit window and automatic compaction disabled (tests trigger
// compaction explicitly).
func leaderDB(t *testing.T) (*indoorq.DB, *indoorq.Building, []indoorq.Position) {
	t.Helper()
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: 50, Radius: 5, Instances: 4, Seed: 7})
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(t.TempDir(), indoorq.DurabilityOptions{GroupWindow: time.Millisecond, CompactBytes: -1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, b, indoorq.GenerateQueryPoints(b, 4, 8)
}

// waitApplied blocks until the replica has replayed through lsn.
func waitApplied(t *testing.T, r *replica.Replica, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.AppliedLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at lsn %d, want %d (stats %+v)", r.AppliedLSN(), lsn, r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func saveBytes(t *testing.T, db *indoorq.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resultsEqual compares result lists treating NaN distances (kNN
// results whose exact distance was pruned away) as equal to each other.
func resultsEqual(a, b []indoorq.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
		if a[i].Distance != b[i].Distance && !(math.IsNaN(a[i].Distance) && math.IsNaN(b[i].Distance)) {
			return false
		}
	}
	return true
}

// assertAnswersMatch compares leader and replica answers point-for-point.
func assertAnswersMatch(t *testing.T, db *indoorq.DB, r *replica.Replica, queries []indoorq.Position) {
	t.Helper()
	p := query.New(r.Index(), query.Options{})
	for i, q := range queries {
		wantR, _, err := db.RangeQuery(q, 40)
		if err != nil {
			t.Fatal(err)
		}
		gotR, _, err := p.RangeQuery(q, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(wantR, gotR) {
			t.Fatalf("query %d: range answers diverge: leader %v replica %v", i, wantR, gotR)
		}
		wantK, _, err := db.KNNQuery(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotK, _, err := p.KNNQuery(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(wantK, gotK) {
			t.Fatalf("query %d: kNN answers diverge: leader %v replica %v", i, wantK, gotK)
		}
	}
}

// TestReplicasConvergeUnderPacedChurn runs one leader and two replicas:
// the leader churns in paced ticks (moves, inserts, deletes, a door
// toggle, a subscription) while both replicas stream and replay. After
// the leader syncs, both replicas must reach the durable LSN with a zero
// lag gauge and answer every query identically; one replica is then
// promoted and adopted as a primary whose serde state is byte-equal to
// the leader's.
func TestReplicasConvergeUnderPacedChurn(t *testing.T) {
	db, b, queries := leaderDB(t)
	ctx := context.Background()

	var reps []*replica.Replica
	for i := 0; i < 2; i++ {
		r := replica.New(replica.NewLocalSource(db.Store(), 5*time.Millisecond), replica.Config{ReconnectDelay: 5 * time.Millisecond})
		if err := r.Start(ctx); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		reps = append(reps, r)
	}

	// Read the replayed registrations while the stream applies records,
	// so the race detector checks Subscriptions against Apply.
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = reps[0].Subscriptions()
			}
		}
	}()
	stopReader := sync.OnceFunc(func() { close(stop); <-readerDone })
	t.Cleanup(stopReader)

	// Paced churn with the replicas already streaming.
	if _, _, err := db.Subscribe(indoorq.SubscriptionSpec{Q: queries[0], R: 60}); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 15; tick++ {
		var ups []indoorq.ObjectUpdate
		for i := 0; i < 10; i++ {
			o := db.Object(indoorq.ObjectID(i))
			p := o.Center
			p.Pt.X += 0.5
			ups = append(ups, indoorq.ObjectUpdate{Op: indoorq.UpdateMove, Object: object.PointObject(o.ID, p)})
		}
		if err := db.ApplyObjectUpdates(ups); err != nil {
			t.Fatal(err)
		}
		switch tick {
		case 3:
			if err := db.InsertObject(object.PointObject(900, queries[1])); err != nil {
				t.Fatal(err)
			}
		case 6:
			if err := db.DeleteObject(indoorq.ObjectID(30)); err != nil {
				t.Fatal(err)
			}
		case 9:
			if err := db.SetDoorClosed(b.Doors()[2].ID, true); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	target := db.Store().DurableLSN()
	if target == 0 {
		t.Fatal("leader logged nothing")
	}

	for _, r := range reps {
		waitApplied(t, r, target)
	}
	stopReader()

	for i, r := range reps {
		st := r.Stats()
		if st.AppliedLSN != target {
			t.Fatalf("replica %d applied %d, want %d", i, st.AppliedLSN, target)
		}
		if st.LagRecords != 0 {
			t.Fatalf("replica %d reports lag %d after catch-up", i, st.LagRecords)
		}
		if !st.Connected {
			t.Fatalf("replica %d not connected", i)
		}
		if got, want := r.Index().Current().Objects().Len(), db.NumObjects(); got != want {
			t.Fatalf("replica %d holds %d objects, leader %d", i, got, want)
		}
		assertAnswersMatch(t, db, r, queries)
	}

	// Promote the second replica and adopt it as a primary: its serde
	// state (building, objects, allocators, subscriptions) must be
	// byte-equal to the leader's, and it must accept mutations.
	idx, subs := reps[1].Promote()
	if len(subs) != 1 {
		t.Fatalf("promoted replica carries %d subscriptions, want 1", len(subs))
	}
	adopted := indoorq.AdoptIndex(idx, subs)
	if got, want := saveBytes(t, adopted), saveBytes(t, db); !bytes.Equal(got, want) {
		t.Fatal("promoted replica's serde state differs from the leader's")
	}
	if adopted.NumSubscriptions() != 1 {
		t.Fatalf("adopted primary restored %d subscriptions, want 1", adopted.NumSubscriptions())
	}
	if err := adopted.InsertObject(object.PointObject(901, queries[2])); err != nil {
		t.Fatalf("adopted primary rejects writes: %v", err)
	}
}

// gatedSource holds the record stream closed until the test opens the
// gate, letting a leader compact the log out from under a parked
// replica. Checkpoint fetches pass through so resync can proceed.
type gatedSource struct {
	inner replica.Source
	gate  chan struct{}
}

func (g *gatedSource) FetchCheckpoint(ctx context.Context) ([]byte, uint64, error) {
	return g.inner.FetchCheckpoint(ctx)
}

func (g *gatedSource) StreamWAL(ctx context.Context, after uint64, fn func(wire.Frame) error) error {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.inner.StreamWAL(ctx, after, fn)
}

// TestReplicaResyncsAfterLogPruned pins the catch-up-after-downtime
// story: a replica parked at LSN 0 while the leader churns and compacts
// must observe the gap signal, re-bootstrap from the fresh checkpoint,
// and converge — counting the resync in its stats.
func TestReplicaResyncsAfterLogPruned(t *testing.T) {
	db, _, queries := leaderDB(t)
	ctx := context.Background()

	gate := make(chan struct{})
	src := &gatedSource{inner: replica.NewLocalSource(db.Store(), 5*time.Millisecond), gate: gate}
	r := replica.New(src, replica.Config{ReconnectDelay: 5 * time.Millisecond})
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if r.AppliedLSN() != 0 {
		t.Fatalf("bootstrap applied lsn %d, want 0", r.AppliedLSN())
	}

	// Churn past the parked replica, then compact: the generation holding
	// its resume position is pruned.
	for i := 0; i < 25; i++ {
		o := db.Object(indoorq.ObjectID(i))
		p := o.Center
		p.Pt.Y += 1
		if err := db.MoveObject(object.PointObject(o.ID, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	close(gate)

	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	target := db.Store().DurableLSN()
	waitApplied(t, r, target)
	if got := r.Stats().Resyncs; got < 1 {
		t.Fatalf("replica converged without counting a resync (resyncs=%d)", got)
	}
	assertAnswersMatch(t, db, r, queries)
}

// TestReplicaHistoryServesAppliedWindow pins the replica half of time
// travel: a replica answers AsOf from the in-memory window of records
// it applied itself, byte-equal to the leader's reconstruction of the
// same LSNs; history below the bounded window refuses with the pruned
// error (mirroring leader compaction); and the window keeps serving
// after the replica is closed and promoted.
func TestReplicaHistoryServesAppliedWindow(t *testing.T) {
	db, _, queries := leaderDB(t)
	ctx := context.Background()

	r := replica.New(
		replica.NewLocalSource(db.Store(), 5*time.Millisecond),
		replica.Config{ReconnectDelay: 5 * time.Millisecond, HistoryRecords: 16},
	)
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	// One subscription plus enough single-record churn to age the first
	// window generation out (> 2x the 16-record segment cap).
	if _, _, err := db.Subscribe(indoorq.SubscriptionSpec{Q: queries[0], R: 60}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 44; i++ {
		o := db.Object(indoorq.ObjectID(i % 20))
		p := o.Center
		p.Pt.X += 0.25
		if err := db.MoveObject(object.PointObject(o.ID, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	target := db.Store().DurableLSN()
	waitApplied(t, r, target)

	hp := r.History()
	if got := hp.Horizon(); got != target {
		t.Fatalf("replica history horizon %d, applied %d", got, target)
	}

	// Every LSN the window still covers must match the leader's
	// reconstruction byte-for-byte; anything pruned must be old enough
	// that the window guarantee (at least HistoryRecords retained) holds.
	pruned := 0
	for lsn := uint64(0); lsn <= target; lsn++ {
		got, err := hp.CaptureAt(lsn)
		if errors.Is(err, history.ErrPruned) {
			if lsn+16 > target {
				t.Fatalf("lsn %d pruned inside the guaranteed window (target %d)", lsn, target)
			}
			pruned++
			continue
		}
		if err != nil {
			t.Fatalf("replica CaptureAt(%d): %v", lsn, err)
		}
		want, err := db.History().CaptureAt(lsn)
		if err != nil {
			t.Fatalf("leader CaptureAt(%d): %v", lsn, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replica history at lsn %d diverged from the leader's", lsn)
		}
	}
	if pruned == 0 {
		t.Fatal("window never aged out; the pruned path is untested")
	}
	if _, err := hp.AsOf(target + 1); !errors.Is(err, history.ErrFuture) {
		t.Fatalf("AsOf past the applied horizon: got %v, want ErrFuture", err)
	}

	// A historical view answers like the leader's view of the same LSN.
	rv, err := hp.AsOf(target)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := db.History().AsOf(target)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, _, err := rv.RangeQuery(q, 40)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := lv.RangeQuery(q, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("query %d: historical range answers diverge", i)
		}
	}

	// Promotion keeps the window readable: forensics on the old timeline
	// survive the failover.
	r.Close()
	idx, subs := r.Promote()
	_ = indoorq.AdoptIndex(idx, subs)
	after, err := hp.CaptureAt(target)
	if err != nil {
		t.Fatalf("history after promotion: %v", err)
	}
	want, err := db.History().CaptureAt(target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatal("post-promotion history diverged from the leader's")
	}
}
