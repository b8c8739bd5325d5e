package indoorq

// Native fuzzing over topology-mutation sequences. The fuzzer drives a
// database (with live range and kNN subscriptions) through an arbitrary
// byte-encoded program of door toggles, partition splits/merges, door
// detach/re-attach cycles and object moves, asserting after every step
// that (a) nothing panics, (b) index invariants hold, (c) one-shot
// queries agree with the brute-force oracle, (d) standing subscription
// results agree with fresh queries, and finally (e) the building survives
// a serde round trip with identical query results.
//
//	go test -run '^$' -fuzz FuzzTopologyMutations -fuzztime 30s .

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/object"
)

func FuzzTopologyMutations(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 10, 0, 40, 3, 2, 11, 1, 200, 3})
	f.Add([]byte{0, 7, 0, 7, 4, 3, 5, 9, 22, 5, 250, 80})
	f.Add([]byte{2, 0, 0, 128, 2, 1, 1, 128, 3, 3, 4, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48] // bound per-exec cost; longer programs add nothing
		}
		b, err := gen.Mall(gen.MallSpec{Floors: 1})
		if err != nil {
			t.Fatal(err)
		}
		objs := gen.Objects(b, gen.ObjectSpec{N: 40, Radius: 6, Instances: 6, Seed: 11})
		db, _, err := Open(b, objs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		queries := gen.QueryPoints(b, 2, 12)
		rangeID, _, err := db.Subscribe(SubscriptionSpec{Q: queries[0], R: 120})
		if err != nil {
			t.Fatal(err)
		}
		knnID, _, err := db.Subscribe(SubscriptionSpec{Q: queries[1], K: 5})
		if err != nil {
			t.Fatal(err)
		}
		or := baseline.NewOracle(db.Index())

		next := func(i *int) (byte, bool) {
			if *i >= len(data) {
				return 0, false
			}
			v := data[*i]
			*i++
			return v, true
		}
		type splitPair struct{ a, b PartitionID }
		var splits []splitPair

		check := func() {
			if err := db.Index().Current().CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			// One-shot queries vs the brute-force oracle.
			got, _, err := db.RangeQuery(queries[0], 120)
			if err != nil {
				t.Fatal(err)
			}
			want, err := or.Range(queries[0], 120)
			if err != nil {
				t.Fatal(err)
			}
			gotIDs := make([]ObjectID, len(got))
			for i, r := range got {
				gotIDs[i] = r.ID
			}
			if !equalIDs(gotIDs, want) {
				t.Fatalf("iRQ disagrees with oracle:\n got  %v\n want %v", gotIDs, want)
			}
			kres, _, err := db.KNNQuery(queries[1], 5)
			if err != nil {
				t.Fatal(err)
			}
			kWant, err := or.KNN(queries[1], 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(kres) != len(kWant) {
				t.Fatalf("ikNNQ size %d, oracle %d", len(kres), len(kWant))
			}
			wantSet := make(map[ObjectID]bool, len(kWant))
			for _, od := range kWant {
				wantSet[od.ID] = true
			}
			for _, r := range kres {
				if !wantSet[r.ID] {
					t.Fatalf("ikNNQ returned %d, oracle top-5 %v", r.ID, kWant)
				}
			}
			// Standing results vs fresh queries on the same index state.
			if !equalIDs(db.SubscriptionResults(rangeID), gotIDs) {
				t.Fatalf("range subscription drifted:\n standing %v\n fresh    %v",
					db.SubscriptionResults(rangeID), gotIDs)
			}
			kIDs := make([]ObjectID, len(kres))
			for i, r := range kres {
				kIDs[i] = r.ID
			}
			sortIDs(kIDs)
			if !equalIDs(db.SubscriptionResults(knnID), kIDs) {
				t.Fatalf("kNN subscription drifted:\n standing %v\n fresh    %v",
					db.SubscriptionResults(knnID), kIDs)
			}
		}

		i := 0
		for {
			op, ok := next(&i)
			if !ok {
				break
			}
			switch op % 6 {
			case 0: // close a door
				v, ok := next(&i)
				if !ok {
					break
				}
				doors := b.Doors()
				if len(doors) == 0 {
					break
				}
				_ = db.SetDoorClosed(doors[int(v)%len(doors)].ID, true)
			case 1: // open a door
				v, ok := next(&i)
				if !ok {
					break
				}
				doors := b.Doors()
				if len(doors) == 0 {
					break
				}
				_ = db.SetDoorClosed(doors[int(v)%len(doors)].ID, false)
			case 2: // split a partition (sliding wall in)
				pv, ok1 := next(&i)
				axis, ok2 := next(&i)
				frac, ok3 := next(&i)
				if !ok1 || !ok2 || !ok3 {
					break
				}
				parts := b.Partitions()
				if len(parts) == 0 {
					break
				}
				p := parts[int(pv)%len(parts)]
				bounds := p.Bounds()
				alongX := axis%2 == 0
				var at float64
				if alongX {
					at = bounds.MinX + (bounds.MaxX-bounds.MinX)*(0.1+0.8*float64(frac)/255)
				} else {
					at = bounds.MinY + (bounds.MaxY-bounds.MinY)*(0.1+0.8*float64(frac)/255)
				}
				pa, pb, err := db.SplitPartition(p.ID, alongX, at)
				if err == nil {
					splits = append(splits, splitPair{a: pa, b: pb})
				}
			case 3: // merge the last split pair (sliding wall out)
				if len(splits) == 0 {
					break
				}
				sp := splits[len(splits)-1]
				splits = splits[:len(splits)-1]
				_, _ = db.MergePartitions(sp.a, sp.b)
			case 4: // detach a door, then re-attach an equivalent one
				v, ok := next(&i)
				if !ok {
					break
				}
				doors := b.Doors()
				if len(doors) == 0 {
					break
				}
				d := doors[int(v)%len(doors)]
				pos, floor, p1, p2 := d.Pos, d.Floor, d.P1, d.P2
				db.DetachDoor(d.ID)
				_, _ = db.AddDoor(Door{Pos: pos, Floor: floor, P1: p1, P2: p2})
			default: // move an object to a drawn walkable point
				ov, ok1 := next(&i)
				xv, ok2 := next(&i)
				yv, ok3 := next(&i)
				if !ok1 || !ok2 || !ok3 {
					break
				}
				oid := ObjectID(int(ov) % 40)
				if db.Object(oid) == nil {
					break
				}
				pos := Pos(600*float64(xv)/255, 600*float64(yv)/255, 0)
				if db.LocatePartition(pos) < 0 {
					break
				}
				if err := db.MoveObject(object.PointObject(oid, pos)); err != nil {
					t.Fatalf("move: %v", err)
				}
			}
			check()
		}

		// Serde round trip: encode, decode, rebuild, same answers.
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
		for _, q := range queries {
			r1, _, err := db.RangeQuery(q, 120)
			if err != nil {
				t.Fatal(err)
			}
			r2, _, err := db2.RangeQuery(q, 120)
			if err != nil {
				t.Fatal(err)
			}
			if len(r1) != len(r2) {
				t.Fatalf("round trip changed iRQ cardinality: %d vs %d", len(r1), len(r2))
			}
			for j := range r1 {
				if r1[j].ID != r2[j].ID {
					t.Fatalf("round trip changed iRQ membership at %d", j)
				}
				d1, d2 := r1[j].Distance, r2[j].Distance
				if !math.IsNaN(d1) && !math.IsNaN(d2) && math.Abs(d1-d2) > 1e-6 {
					t.Fatalf("round trip changed distance of %d: %g vs %g", r1[j].ID, d1, d2)
				}
			}
		}
	})
}

func equalIDs(a, b []ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortIDs(ids []ObjectID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
