package indoorq

// Regression tests for the bounded subscription event log. The log used
// to be unbounded ("drain regularly"), which a server with a dead
// streaming client turns into an OOM; it is now capped with an explicit
// overflow signal, and an overflowed consumer re-fetches full result
// sets instead of replaying.

import (
	"testing"

	"repro/internal/object"
)

// eventChurnDB builds a small mall with one range subscription and
// returns the db, the subscription handle and two positions inside /
// outside the subscribed range to bounce an object between.
func eventChurnDB(t *testing.T) (*DB, int, Position, Position) {
	t.Helper()
	b, err := GenerateMall(MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := GenerateObjects(b, ObjectSpec{N: 50, Radius: 5, Seed: 7})
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := GenerateQueryPoints(b, 2, 3)
	sub, _, err := db.Subscribe(SubscriptionSpec{Q: q[0], R: 80})
	if err != nil {
		t.Fatal(err)
	}
	// far is a point well outside the subscription's range; near is the
	// query point itself.
	far := q[1]
	if _, _, err := db.RangeQuery(far, 1); err != nil {
		t.Fatal(err)
	}
	return db, sub, q[0], far
}

// bounce moves object 0 in and out of the subscription's range n times,
// generating at least 2n enter/leave events, without ever draining.
func bounce(t *testing.T, db *DB, near, far Position, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.MoveObject(object.PointObject(0, near)); err != nil {
			t.Fatal(err)
		}
		if err := db.MoveObject(object.PointObject(0, far)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEventLogBounded is the OOM regression: a never-drained subscriber's
// log must stay at its cap no matter how many events accrue, and the
// drain must say so.
func TestEventLogBounded(t *testing.T) {
	db, sub, near, far := eventChurnDB(t)
	const logCap = 64
	db.SetEventLogCap(logCap)

	// Generate far more events than the cap without draining.
	bounce(t, db, near, far, 10*logCap)

	evs, overflowed := db.DrainEvents()
	if !overflowed {
		t.Fatalf("expected overflow after %d undrained events under cap %d", 20*logCap, logCap)
	}
	if len(evs) > logCap {
		t.Fatalf("drained %d events, cap is %d: log is not bounded", len(evs), logCap)
	}
	if len(evs) == 0 {
		t.Fatal("overflowed log drained zero events; the newest events must survive")
	}
	if dropped := db.SubscriptionStatsSnapshot().EventsDropped; dropped == 0 {
		t.Fatal("EventsDropped counter did not advance across an overflow")
	}

	// After the drain the flag resets and a small burst arrives complete.
	bounce(t, db, near, far, 2)
	evs, overflowed = db.DrainEvents()
	if overflowed {
		t.Fatal("overflow flag did not reset after a drain")
	}
	if len(evs) != 4 {
		t.Fatalf("post-drain burst: got %d events, want 4", len(evs))
	}

	// An object inserted at the query point enters the subscription, and
	// leaves it when deleted.
	if err := db.InsertObject(object.PointObject(777777, near)); err != nil {
		t.Fatal(err)
	}
	evs = db.Events()
	if len(evs) != 1 || evs[0].Sub != sub || evs[0].Object != 777777 || evs[0].Kind != SubEnter {
		t.Fatalf("insert at the query point: events %+v, want one enter of 777777", evs)
	}
	if err := db.DeleteObject(777777); err != nil {
		t.Fatal(err)
	}
	evs = db.Events()
	if len(evs) != 1 || evs[0].Sub != sub || evs[0].Object != 777777 || evs[0].Kind != SubLeave {
		t.Fatalf("delete: events %+v, want one leave of 777777", evs)
	}
}

// TestEventLogOverflowResync pins the documented recovery path: replay is
// broken after an overflow, but SubscriptionResults reflects the true
// current state, matching a fresh query.
func TestEventLogOverflowResync(t *testing.T) {
	db, sub, near, far := eventChurnDB(t)
	db.SetEventLogCap(8)
	bounce(t, db, near, far, 100)
	if err := db.MoveObject(object.PointObject(0, near)); err != nil {
		t.Fatal(err)
	}

	_, overflowed := db.DrainEvents()
	if !overflowed {
		t.Fatal("expected overflow")
	}
	got := db.SubscriptionResults(sub)
	found := false
	for _, id := range got {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("after resync, object 0 (moved to the query point) missing from results %v", got)
	}
	// The resynced result set must equal a fresh evaluation of the same
	// standing query.
	fresh, _, err := db.RangeQuery(near, 80)
	if err != nil {
		t.Fatal(err)
	}
	freshIDs := make(map[ObjectID]bool, len(fresh))
	for _, r := range fresh {
		freshIDs[r.ID] = true
	}
	if len(fresh) != len(got) {
		t.Fatalf("resynced results (%d ids) differ from fresh query (%d ids)", len(got), len(fresh))
	}
	for _, id := range got {
		if !freshIDs[id] {
			t.Fatalf("resynced result %v missing from fresh query", id)
		}
	}
}

// TestEventLogUnboundedOptOut verifies n <= 0 restores the old unbounded
// contract for consumers that guarantee draining.
func TestEventLogUnboundedOptOut(t *testing.T) {
	db, _, near, far := eventChurnDB(t)
	db.SetEventLogCap(4)
	db.SetEventLogCap(0) // opt out again
	bounce(t, db, near, far, 50)
	evs, overflowed := db.DrainEvents()
	if overflowed {
		t.Fatal("unbounded log reported overflow")
	}
	if len(evs) < 100 {
		t.Fatalf("unbounded log retained %d events, want >= 100", len(evs))
	}
}
