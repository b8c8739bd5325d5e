package indoorq

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/indoor"
)

func TestFacadeSaveLoadRoundTrip(t *testing.T) {
	db := openSmall(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b2, objs2, err := LoadBuilding(&buf)
	if err != nil {
		t.Fatal(err)
	}
	db2, _, err := Open(b2, objs2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumObjects() != db.NumObjects() {
		t.Fatalf("objects %d -> %d", db.NumObjects(), db2.NumObjects())
	}
	q := GenerateQueryPoints(db.Building(), 1, 9)[0]
	r1, _, err := db.RangeQuery(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := db2.RangeQuery(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("round trip changed iRQ results: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].ID != r2[i].ID {
			t.Fatal("round trip changed result membership")
		}
	}
}

func TestFacadeMonitor(t *testing.T) {
	db := openSmall(t)
	q := GenerateQueryPoints(db.Building(), 1, 10)[0]
	id, initial, err := db.Subscribe(SubscriptionSpec{Q: q, R: 80})
	if err != nil {
		t.Fatal(err)
	}
	// Standing result must equal the one-shot query.
	fresh, _, err := db.RangeQuery(q, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(initial) != len(fresh) {
		t.Fatalf("standing %d vs fresh %d", len(initial), len(fresh))
	}
	// Drop a new object onto the query point.
	o := &Object{ID: 777777, Instances: []Instance{{Pos: q, P: 1}}}
	if err := db.InsertObject(o); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, e := range db.Events() {
		if e.Sub == id && e.Object == 777777 && e.Kind == SubEnter {
			seen = true
		}
	}
	if !seen {
		t.Fatal("subscription missed the inserted object")
	}
}

// A topology mutator reports the mutation's error, never a standing
// query's: once subscription A's partition is removed A can no longer
// refresh, yet a later door toggle must succeed and still bring
// subscription B up to date.
func TestFacadeTopologyRefreshFailureIsNotAnError(t *testing.T) {
	db := openSmall(t)
	var rooms []*Partition
	for _, p := range db.Building().Partitions() {
		if p.Kind == indoor.Room && len(p.Doors) > 0 {
			rooms = append(rooms, p)
		}
	}
	slices.SortFunc(rooms, func(a, b *Partition) int { return int(a.ID - b.ID) })
	if len(rooms) < 2 {
		t.Fatal("mall has fewer than two rooms with doors")
	}
	centre := func(p *Partition) Position {
		r := p.Bounds()
		return Pos((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2, p.Floor)
	}
	roomA, roomB := rooms[0], rooms[len(rooms)-1]
	door := db.Building().Door(roomB.Doors[0])
	if door.Connects(roomA.ID) {
		t.Fatal("fixture rooms share a door")
	}
	const r = 150
	qA, qB := centre(roomA), centre(roomB)
	a, _, err := db.Subscribe(SubscriptionSpec{Q: qA, R: r})
	if err != nil {
		t.Fatal(err)
	}
	b, before, err := db.Subscribe(SubscriptionSpec{Q: qB, R: r})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RemovePartition(roomA.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RangeQuery(qA, r); err == nil {
		t.Fatal("a query from the removed room succeeded; A's refresh would not fail")
	}
	resultsA := db.SubscriptionResults(a)

	if err := db.SetDoorClosed(door.ID, true); err != nil {
		t.Fatalf("door toggle reported a standing query's refresh failure: %v", err)
	}
	fresh, _, err := db.RangeQuery(qB, r)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]ObjectID, len(fresh))
	for i, res := range fresh {
		want[i] = res.ID
	}
	slices.Sort(want)
	got := db.SubscriptionResults(b)
	if !slices.Equal(got, want) {
		t.Fatalf("B after the toggle: standing %v, fresh %v", got, want)
	}
	if slices.Equal(got, before) {
		t.Fatal("closing B's door did not change B's answer; the test no longer shows B refreshed")
	}
	if !slices.Equal(db.SubscriptionResults(a), resultsA) {
		t.Fatal("A lost its last good results")
	}
}

// TestFacadeRefusedAddsLeaveBuilding: with the log fail-stopped, AddRoom
// and AddDoor are refused by the commit hook, and the refusal must leave
// the building's partitions, doors and id allocators as they were.
func TestFacadeRefusedAddsLeaveBuilding(t *testing.T) {
	db := openSmall(t)
	if err := db.Persist(t.TempDir(), DurabilityOptions{CompactBytes: -1}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Store().Poison(nil)
	b := db.Building()
	state := func() [4]int {
		np, nd := b.AllocBounds()
		return [4]int{b.NumPartitions(), b.NumDoors(), int(np), int(nd)}
	}
	before := state()
	if _, err := db.AddRoom(0, R(5000, 0, 5010, 10)); err == nil {
		t.Fatal("AddRoom succeeded on a poisoned store")
	}
	d := b.Doors()[0]
	if _, err := db.AddDoor(Door{Pos: d.Pos, Floor: d.Floor, P1: d.P1, P2: d.P2}); err == nil {
		t.Fatal("AddDoor succeeded on a poisoned store")
	}
	if got := state(); got != before {
		t.Fatalf("refused adds changed the building (parts, doors, next ids): %v -> %v", before, got)
	}
}

func TestFacadeEstimator(t *testing.T) {
	db := openSmall(t)
	est := db.NewEstimator()
	q := GenerateQueryPoints(db.Building(), 1, 11)[0]
	small := est.EstimateRange(q, 20)
	large := est.EstimateRange(q, 200)
	if small > large {
		t.Errorf("estimate not monotone: %g > %g", small, large)
	}
	if large <= 0 {
		t.Error("large-radius estimate should be positive on a populated mall")
	}
}
