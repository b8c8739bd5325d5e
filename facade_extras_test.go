package indoorq

import (
	"bytes"
	"testing"
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
