package query

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// eventStreamDigest pins the standing queries' event stream on a seeded
// workload. A change to reconciliation or refresh that is meant to be a
// pure refactoring must leave it unchanged.
const eventStreamDigest = "15df8cc9f8599541"

// TestEventStreamDigest drives range and kNN subscriptions on the golden
// query set's 3-floor mall through batches of moves, door toggles and a
// room split and merge, and hashes every event in stream order: its
// subscription, object, kind, distance bits and Seq. Moves exercise the
// routed diff, topology commits the wholesale refresh diff.
func TestEventStreamDigest(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 3})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 1000, Radius: 8, Instances: 20, Seed: 7})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSubscriptions(idx)
	for i, q := range gen.QueryPoints(b, 40, 11) {
		if i%2 == 0 {
			_, _, err = e.SubscribeRange(q, []float64{30, 100}[i/2%2])
		} else {
			_, _, err = e.SubscribeKNN(q, []int{10, 100}[i/2%2])
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	h := fnv.New64a()
	var kinds [3]int
	record := func(step string, evs []SubEvent, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for _, ev := range evs {
			fmt.Fprintf(h, "%d:%d:%d:%016x:%d;", ev.Sub, ev.Object, ev.Kind, math.Float64bits(ev.Distance), ev.Seq)
			kinds[ev.Kind]++
		}
	}
	topo := func(step string, m index.Mutation) index.Mutation {
		t.Helper()
		m, evs, err := e.Topology(m)
		record(step, evs, err)
		return m
	}

	var doors []indoor.DoorID
	for _, d := range b.Doors() {
		doors = append(doors, d.ID)
	}
	var rooms []*indoor.Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room {
			rooms = append(rooms, p)
		}
	}
	closed := map[indoor.DoorID]bool{}
	rng := rand.New(rand.NewSource(46))
	live := append([]*object.Object(nil), objs...)
	for step := 0; step < 30; step++ {
		name := fmt.Sprintf("step %d", step)
		switch step % 5 {
		case 0, 1, 3:
			var ups []index.ObjectUpdate
			for _, i := range rng.Perm(len(live))[:32] {
				c := live[i].Center
				next := indoor.Pos(c.Pt.X+rng.Float64()*60-30, c.Pt.Y+rng.Float64()*60-30, c.Floor)
				if idx.Current().LocatePartition(next) < 0 {
					next = c
				}
				live[i] = object.SampleGaussian(rng, live[i].ID, next, live[i].Radius, 8)
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateMove, Object: live[i]})
			}
			evs, err := e.ApplyObjectUpdates(ups)
			record(name+" moves", evs, err)
		case 2:
			for n := 0; n < 2; n++ {
				d := doors[rng.Intn(len(doors))]
				closed[d] = !closed[d]
				topo(name+" toggle", index.Mutation{Kind: index.MutSetDoorClosed, DoorID: d, Closed: closed[d]})
			}
		case 4:
			room := rooms[rng.Intn(len(rooms))]
			r := room.Bounds()
			m := topo(name+" split", index.Mutation{Kind: index.MutSplit, PartID: room.ID, AlongX: true, At: (r.MinX + r.MaxX) / 2})
			topo(name+" merge", index.Mutation{Kind: index.MutMerge, PartID: m.ResultA, PartID2: m.ResultB})
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("the workload emitted no %v events: %v", EventKind(k), kinds)
		}
	}
	if st := e.Stats(); st.RoutedPairs == 0 || st.TopoAdmitted == 0 {
		t.Fatalf("the workload must take both the routed and the refresh path: %+v", st)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != eventStreamDigest {
		t.Fatalf("event stream digest %s, want %s (events by kind %v)", got, eventStreamDigest, kinds)
	}
}
