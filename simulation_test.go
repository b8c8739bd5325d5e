package indoorq

// End-to-end simulation: a continuous-monitoring workload interleaving
// object movement, topology changes and both query types, cross-checked
// against the exhaustive oracle after every epoch. This is the integration
// test for the whole stack — generator, index maintenance, distance engine
// and query processors working together over time.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/indoor"
	"repro/internal/object"
)

func TestContinuousMonitoringSimulation(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 150, Radius: 8, Instances: 15, Seed: 61})
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.NewOracle(db.Index())
	rng := rand.New(rand.NewSource(62))
	queries := gen.QueryPoints(b, 20, 63)

	check := func(epoch int) {
		q := queries[epoch%len(queries)]
		got, _, err := db.RangeQuery(q, 120)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Range(q, 120)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("epoch %d: iRQ %d results, oracle %d", epoch, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i] {
				t.Fatalf("epoch %d: iRQ result %d is %d, oracle %d", epoch, i, got[i].ID, want[i])
			}
		}
		kres, _, err := db.KNNQuery(q, 15)
		if err != nil {
			t.Fatal(err)
		}
		ktop, err := oracle.KNN(q, 15)
		if err != nil {
			t.Fatal(err)
		}
		if len(kres) != len(ktop) {
			t.Fatalf("epoch %d: kNN %d results, oracle %d", epoch, len(kres), len(ktop))
		}
		kth := ktop[len(ktop)-1].D
		all, err := oracle.AllDistances(q)
		if err != nil {
			t.Fatal(err)
		}
		distOf := make(map[object.ID]float64, len(all))
		for _, od := range all {
			distOf[od.ID] = od.D
		}
		wantSet := make(map[object.ID]bool)
		for _, od := range ktop {
			wantSet[od.ID] = true
		}
		for _, r := range kres {
			if !wantSet[r.ID] && math.Abs(distOf[r.ID]-kth) > 1e-6 {
				t.Fatalf("epoch %d: kNN result %d (d=%g) not in oracle top-k (kth=%g)",
					epoch, r.ID, distOf[r.ID], kth)
			}
		}
	}

	var closedDoor DoorID = -1
	var splitA, splitB PartitionID = -1, -1
	for epoch := 0; epoch < 10; epoch++ {
		// Move ~20 objects with the adjacency-accelerated update.
		moved := 0
		for _, o := range objs {
			if moved == 20 {
				break
			}
			c := o.Center
			next := Pos(c.Pt.X+rng.Float64()*10-5, c.Pt.Y+rng.Float64()*10-5, c.Floor)
			if db.LocatePartition(next) < 0 {
				continue
			}
			moved++
			upd := object.SampleGaussian(rng, o.ID, next, o.Radius, 15)
			if err := db.MoveObject(upd); err != nil {
				t.Fatal(err)
			}
			*o = *upd // keep the local view in sync for later epochs
		}

		switch epoch % 5 {
		case 1: // close a random door
			doors := b.Doors()
			closedDoor = doors[rng.Intn(len(doors))].ID
			if err := db.SetDoorClosed(closedDoor, true); err != nil {
				t.Fatal(err)
			}
		case 2: // reopen it
			if err := db.SetDoorClosed(closedDoor, false); err != nil {
				t.Fatal(err)
			}
		case 3: // mount a sliding wall in some room
			for _, p := range b.Partitions() {
				if p.Kind == indoor.Room && len(p.Doors) > 0 {
					r := p.Bounds()
					a, bb, err := db.SplitPartition(p.ID, true, (r.MinX+r.MaxX)/2)
					if err != nil {
						t.Fatal(err)
					}
					splitA, splitB = a, bb
					break
				}
			}
		case 4: // dismount it
			if splitA >= 0 {
				if _, err := db.MergePartitions(splitA, splitB); err != nil {
					t.Fatal(err)
				}
				splitA, splitB = -1, -1
			}
		}

		if err := db.Index().Current().CheckInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		check(epoch)
	}
}

// Query results must be deterministic: the same query twice returns
// identical results, including after an update churn.
func TestQueryDeterminism(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 100, Radius: 10, Instances: 10, Seed: 71})
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.QueryPoints(b, 1, 72)[0]
	a1, _, err := db.RangeQuery(q, 90)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := db.RangeQuery(q, 90)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatal("repeat query changed result count")
	}
	for i := range a1 {
		if a1[i].ID != a2[i].ID {
			t.Fatal("repeat query changed result order")
		}
		d1, d2 := a1[i].Distance, a2[i].Distance
		if !(math.IsNaN(d1) && math.IsNaN(d2)) && d1 != d2 {
			t.Fatal("repeat query changed distances")
		}
	}
}
