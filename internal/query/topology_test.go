package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Scoped topology commits. Topology refreshes only the subscriptions
// whose dependency radius reaches a changed unit, carries the rest, and
// routes the objects of changed units to them. The hand-built buildings
// below each pin one part of that rule: a subscription whose answer
// depends on topology beyond its footprint (the full rung's reach), one
// whose full-rung reach runs hundreds of metres out, and an object that
// sits in a changed unit of a carried subscription (the routing).

// mustDoor adds a two-way door between two partitions on floor 0.
func mustDoor(t *testing.T, b *indoor.Building, x, y float64, p1, p2 *indoor.Partition) *indoor.Door {
	t.Helper()
	d, err := b.AddDoor(geom.Pt(x, y), 0, p1.ID, p2.ID)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// twoPoint is an object with two instances on floor 0.
func twoPoint(id object.ID, x1, y1, p1, x2, y2, p2 float64) *object.Object {
	return &object.Object{ID: id, Instances: []object.Instance{
		{Pos: indoor.Pos(x1, y1, 0), P: p1},
		{Pos: indoor.Pos(x2, y2, 0), P: p2},
	}}
}

// scopedRange indexes the building and objects under one standing range
// query at q, checking the initial membership of object 0.
func scopedRange(t *testing.T, b *indoor.Building, objs []*object.Object, q indoor.Position, r float64, member bool) (*Subscriptions, *index.Index, int) {
	t.Helper()
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSubscriptions(idx)
	id, _, err := e.SubscribeRange(q, r)
	if err != nil {
		t.Fatal(err)
	}
	matchesFreshRange(t, e, idx, id, q, r, member)
	return e, idx, id
}

// matchesFreshRange compares a range subscription to a fresh RangeQuery
// on the current snapshot and checks object 0's expected membership.
func matchesFreshRange(t *testing.T, e *Subscriptions, idx *index.Index, id int, q indoor.Position, r float64, member bool) {
	t.Helper()
	fresh, _, err := New(idx, Options{}).RangeQuery(q, r)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Results(id)
	if !sameIDs(got, idsOf(fresh)) {
		t.Fatalf("standing %v, fresh %v", got, idsOf(fresh))
	}
	if in := len(got) == 1 && got[0] == 0; in != member {
		t.Fatalf("object 0 member = %v, want %v (results %v)", in, member, got)
	}
}

// topoStep commits a mutation through the engine and returns how many
// subscriptions it admitted and carried.
func topoStep(t *testing.T, e *Subscriptions, m index.Mutation) (admitted, carried uint64) {
	t.Helper()
	before := e.Stats()
	if _, _, err := e.Topology(m); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	return after.TopoAdmitted - before.TopoAdmitted, after.TopoCarried - before.TopoCarried
}

// xyzw is a one-floor building where Y, across a wall from X, is
// reachable only round through Z and W; it returns the Z–W door.
func xyzw(t *testing.T) (*indoor.Building, *indoor.Door) {
	t.Helper()
	b := indoor.NewBuilding(4)
	x := b.AddRoom(0, geom.R(0, 0, 31, 20))
	y := b.AddRoom(0, geom.R(31, 0, 45, 10))
	z := b.AddRoom(0, geom.R(31, 10, 45, 20))
	w := b.AddRoom(0, geom.R(45, 0, 60, 20))
	mustDoor(t, b, 31, 15, x, z)
	zw := mustDoor(t, b, 45, 15, z, w)
	mustDoor(t, b, 45, 5, w, y)
	return b, zw
}

// The object's far instance sits in Y, 68 m round through Z and W. Its
// expected distance, 29.3 m, is decided by the full rung, so closing the
// Z–W door 31 m out — beyond the 30 m footprint but inside the full
// rung's reach — must refresh the subscription.
func TestTopologyBeyondFootprint(t *testing.T) {
	b, zw := xyzw(t)
	q, r := indoor.Pos(0.5, 5, 0), 30.0
	e, idx, id := scopedRange(t, b, []*object.Object{twoPoint(0, 23, 5, 0.85, 33, 5, 0.15)}, q, r, true)
	if reach := e.standing[id].fullReach; reach <= r {
		t.Fatalf("full-rung reach %g: the full rung must decide the object", reach)
	}
	if admitted, _ := topoStep(t, e, index.Mutation{Kind: index.MutSetDoorClosed, DoorID: zw.ID, Closed: true}); admitted != 1 {
		t.Fatalf("admitted %d subscriptions, want 1", admitted)
	}
	matchesFreshRange(t, e, idx, id, q, r, false)
}

// The object straddles B (in the footprint) and U (31 m out), and is
// decided out by the phase engine alone. Attaching a U–V door shortens
// the way to its U instance and brings it in; U and V lie beyond the
// subscription's 30 m radius, so the subscription is carried and only
// routing U's objects can catch the change.
func TestTopologyAttachBeyondRadius(t *testing.T) {
	b := indoor.NewBuilding(4)
	a := b.AddRoom(0, geom.R(0, 0, 20, 20))
	bb := b.AddRoom(0, geom.R(20, 0, 31, 10))
	w := b.AddRoom(0, geom.R(20, 10, 31, 20))
	u := b.AddRoom(0, geom.R(31, 0, 50, 10))
	v := b.AddRoom(0, geom.R(31, 10, 50, 20))
	mustDoor(t, b, 20, 5, a, bb)
	mustDoor(t, b, 20, 15, a, w)
	mustDoor(t, b, 31, 15, w, v)
	mustDoor(t, b, 49, 10, u, v)
	q, r := indoor.Pos(0.5, 5, 0), 30.0
	e, idx, id := scopedRange(t, b, []*object.Object{twoPoint(0, 27, 5, 0.81, 33, 5, 0.19)}, q, r, false)
	if e.standing[id].full != nil {
		t.Fatal("the phase engine must decide the object alone")
	}
	attach := index.Mutation{Kind: index.MutAttachDoor, DoorID: -1,
		Door: &indoor.Door{Pos: geom.Pt(33, 10), P1: u.ID, P2: v.ID}}
	if _, carried := topoStep(t, e, attach); carried != 1 {
		t.Fatalf("carried %d subscriptions, want 1", carried)
	}
	matchesFreshRange(t, e, idx, id, q, r, true)
}

// Y is across a wall from X but reachable only round a corridor that runs
// 340 m out and back (about 670 m). The object's expected distance,
// 96.9 m, needs the full rung, so closing the door between C1b and T —
// two rooms more than 300 m out, beyond 2r+100 — must refresh the
// subscription: its full-rung reach covers them.
func TestTopologyFullReachCoversFarDoor(t *testing.T) {
	b := indoor.NewBuilding(4)
	x := b.AddRoom(0, geom.R(0, 0, 40, 20))
	y := b.AddRoom(0, geom.R(40, 0, 60, 20))
	c1a := b.AddRoom(0, geom.R(0, 20, 310, 30))
	c1b := b.AddRoom(0, geom.R(310, 20, 340, 30))
	turn := b.AddRoom(0, geom.R(340, -10, 360, 30))
	c3 := b.AddRoom(0, geom.R(40, -10, 340, 0))
	mustDoor(t, b, 20, 20, x, c1a)
	mustDoor(t, b, 310, 25, c1a, c1b)
	far := mustDoor(t, b, 340, 25, c1b, turn)
	mustDoor(t, b, 340, -5, turn, c3)
	mustDoor(t, b, 50, 0, c3, y)
	q, r := indoor.Pos(5, 10, 0), 100.0
	e, idx, id := scopedRange(t, b, []*object.Object{twoPoint(0, 38, 10, 0.9, 41, 10, 0.1)}, q, r, true)
	if reach := e.standing[id].fullReach; reach <= 2*r+100 {
		t.Fatalf("full-rung reach %g must exceed 2r+100", reach)
	}
	if admitted, _ := topoStep(t, e, index.Mutation{Kind: index.MutSetDoorClosed, DoorID: far.ID, Closed: true}); admitted != 1 {
		t.Fatalf("admitted %d subscriptions, want 1", admitted)
	}
	matchesFreshRange(t, e, idx, id, q, r, false)
}

// The admission counters on a fixed workload: a door toggle admits the
// subscription whose full rung reaches the door and carries the one
// whose 5 m radius does not, and neither topology commit counts towards
// the object-batch counters.
func TestTopologyCounters(t *testing.T) {
	b, zw := xyzw(t)
	o := twoPoint(0, 23, 5, 0.85, 33, 5, 0.15)
	q := indoor.Pos(0.5, 5, 0)
	e, _, _ := scopedRange(t, b, []*object.Object{o}, q, 30, true)
	if _, _, err := e.SubscribeRange(q, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyObjectUpdates([]index.ObjectUpdate{{Op: index.UpdateMove, Object: o}}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	for _, closed := range []bool{true, false} {
		admitted, carried := topoStep(t, e, index.Mutation{Kind: index.MutSetDoorClosed, DoorID: zw.ID, Closed: closed})
		if admitted != 1 || carried != 1 {
			t.Fatalf("closed=%v: admitted %d carried %d, want 1 and 1", closed, admitted, carried)
		}
	}
	st := e.Stats()
	if st.TopoAdmitted != 2 || st.TopoCarried != 2 {
		t.Fatalf("TopoAdmitted %d TopoCarried %d, want 2 and 2", st.TopoAdmitted, st.TopoCarried)
	}
	if st.Updates != before.Updates || st.RoutedPairs != before.RoutedPairs {
		t.Fatalf("topology commits moved the object-batch counters: %+v -> %+v", before, st)
	}
	if st.Batches != before.Batches+2 {
		t.Fatalf("Batches %d, want %d", st.Batches, before.Batches+2)
	}
}

// The scoped rule against refresh-all on a three-floor mall: moves, door
// toggles, room splits and merges, and door detach/re-attach under range
// and kNN subscriptions. After every step each handle's results (ids and,
// for kNN, distance bits) equal those of a fresh engine restored from the
// same specs on the same index, and the step's events turn the previous
// results into the current ones.
func TestScopedTopologyMatchesFresh(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 3})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 300, Radius: 8, Instances: 8, Seed: 41})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSubscriptions(idx)
	type state struct {
		members map[object.ID]bool
		dist    map[object.ID]float64
	}
	states := map[int]*state{}
	for i, q := range gen.QueryPoints(b, 24, 43) {
		var id int
		if i%3 == 2 {
			id, _, err = e.SubscribeKNN(q, 4+i%5)
		} else {
			id, _, err = e.SubscribeRange(q, 30+float64(i%4)*20)
		}
		if err != nil {
			t.Fatal(err)
		}
		st := &state{members: map[object.ID]bool{}, dist: map[object.ID]float64{}}
		for _, oid := range e.Results(id) {
			st.members[oid] = true
		}
		for _, r := range e.TopK(id) {
			st.dist[r.ID] = r.Distance
		}
		states[id] = st
	}

	check := func(step string, evs []SubEvent) {
		t.Helper()
		for _, ev := range evs {
			st := states[ev.Sub]
			switch ev.Kind {
			case EventEnter:
				st.members[ev.Object] = true
			case EventLeave:
				delete(st.members, ev.Object)
			case EventUpdate:
				if !st.members[ev.Object] {
					t.Fatalf("%s: update for non-member %d of sub %d", step, ev.Object, ev.Sub)
				}
			}
			if ev.Kind != EventLeave && !math.IsNaN(ev.Distance) {
				st.dist[ev.Object] = ev.Distance
			}
		}
		fresh := NewSubscriptions(idx)
		for _, sp := range e.Specs() {
			if err := fresh.Restore(sp); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		for id, st := range states {
			got, want := e.Results(id), fresh.Results(id)
			if !sameIDs(got, want) {
				t.Fatalf("%s: sub %d standing %v, fresh %v", step, id, got, want)
			}
			if len(got) != len(st.members) {
				t.Fatalf("%s: sub %d events replay to %d members, results have %d", step, id, len(st.members), len(got))
			}
			for _, oid := range got {
				if !st.members[oid] {
					t.Fatalf("%s: sub %d member %d missing from the event replay", step, id, oid)
				}
			}
			gotK, wantK := e.TopK(id), fresh.TopK(id)
			for i := range gotK {
				if gotK[i].ID != wantK[i].ID || math.Float64bits(gotK[i].Distance) != math.Float64bits(wantK[i].Distance) {
					t.Fatalf("%s: sub %d top-k[%d] standing %+v, fresh %+v", step, id, i, gotK[i], wantK[i])
				}
				if math.Float64bits(st.dist[gotK[i].ID]) != math.Float64bits(gotK[i].Distance) {
					t.Fatalf("%s: sub %d member %d replayed distance %v, top-k %v", step, id, gotK[i].ID, st.dist[gotK[i].ID], gotK[i].Distance)
				}
			}
		}
	}

	// carriedWithRungs counts subscriptions a commit carried whose answers
	// rest on the full rung.
	var carried, carriedWithRungs int
	topo := func(step string, m index.Mutation) index.Mutation {
		t.Helper()
		engs := map[int]*distance.Engine{}
		for id, s := range e.standing {
			engs[id] = s.eng
		}
		m, evs, err := e.Topology(m)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		cur := idx.Current()
		for id, s := range e.standing {
			if engs[id] == s.eng && s.ex != nil && s.ex.s == cur {
				carried++
				if s.fullReach > 0 {
					carriedWithRungs++
				}
			}
		}
		check(step, evs)
		return m
	}

	rng := rand.New(rand.NewSource(45))
	live := append([]*object.Object(nil), objs...)
	for step := 0; step < 30; step++ {
		name := fmt.Sprintf("step %d", step)
		switch step % 5 {
		case 0, 2:
			var ups []index.ObjectUpdate
			for n := 0; n < 12; n++ {
				i := rng.Intn(len(live))
				c := live[i].Center
				next := indoor.Pos(c.Pt.X+rng.Float64()*80-40, c.Pt.Y+rng.Float64()*80-40, c.Floor)
				if idx.Current().LocatePartition(next) < 0 {
					next = c
				}
				live[i] = object.SampleGaussian(rng, live[i].ID, next, live[i].Radius, 8)
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateMove, Object: live[i]})
			}
			evs, err := e.ApplyObjectUpdates(ups)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(name+" moves", evs)
		case 1:
			doors := b.Doors()
			d := doors[rng.Intn(len(doors))]
			topo(name+" toggle", index.Mutation{Kind: index.MutSetDoorClosed, DoorID: d.ID, Closed: !d.Closed})
		case 3:
			parts := b.Partitions()
			room := parts[rng.Intn(len(parts))]
			if room.Kind != indoor.Room {
				continue
			}
			r := room.Bounds()
			m := topo(name+" split", index.Mutation{Kind: index.MutSplit, PartID: room.ID, AlongX: true, At: (r.MinX + r.MaxX) / 2})
			topo(name+" merge", index.Mutation{Kind: index.MutMerge, PartID: m.ResultA, PartID2: m.ResultB})
		case 4:
			doors := b.Doors()
			d := *doors[rng.Intn(len(doors))]
			topo(name+" detach", index.Mutation{Kind: index.MutDetachDoor, DoorID: d.ID})
			d.ID = -1
			topo(name+" attach", index.Mutation{Kind: index.MutAttachDoor, DoorID: -1, Door: &d})
		}
	}
	if carried == 0 || carriedWithRungs == 0 {
		t.Fatalf("carried %d subscriptions, %d of them with the full rung used", carried, carriedWithRungs)
	}
	t.Logf("carried %d subscriptions (%d with the full rung used); %+v", carried, carriedWithRungs, e.Stats())
}
