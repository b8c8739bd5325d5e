package distance

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// corridor3 is a hand-checkable fixture: rooms A(0..10), B(10..20),
// C(20..30), all 10 m deep, connected in a chain by doors at (10,5) and
// (20,5).
func corridor3(t *testing.T) (*indoor.Building, [3]*indoor.Partition) {
	t.Helper()
	b := indoor.NewBuilding(4)
	a := b.AddRoom(0, geom.R(0, 0, 10, 10))
	bb := b.AddRoom(0, geom.R(10, 0, 20, 10))
	c := b.AddRoom(0, geom.R(20, 0, 30, 10))
	if _, err := b.AddDoor(geom.Pt(10, 5), 0, a.ID, bb.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDoor(geom.Pt(20, 5), 0, bb.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	return b, [3]*indoor.Partition{a, bb, c}
}

func fullEngine(t *testing.T, idx *index.Index, q indoor.Position) *Engine {
	t.Helper()
	e, err := NewFull(idx.Current(), q)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPointDistChain(t *testing.T) {
	b, _ := corridor3(t)
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := fullEngine(t, idx, indoor.Pos(5, 5, 0))

	// Same room: direct Euclidean.
	if d, ok := e.PointDist(indoor.Pos(9, 5, 0)); !ok || math.Abs(d-4) > geom.Eps {
		t.Errorf("same-room dist = %g ok=%v, want 4", d, ok)
	}
	// One door: 5 to the door + leg.
	if d, ok := e.PointDist(indoor.Pos(15, 5, 0)); !ok || math.Abs(d-10) > geom.Eps {
		t.Errorf("next-room dist = %g ok=%v, want 10", d, ok)
	}
	// Two doors: 5 + 10 + 5.
	if d, ok := e.PointDist(indoor.Pos(25, 5, 0)); !ok || math.Abs(d-20) > geom.Eps {
		t.Errorf("two-hop dist = %g ok=%v, want 20", d, ok)
	}
	// Outside every partition.
	if d, _ := e.PointDist(indoor.Pos(100, 100, 0)); !math.IsInf(d, 1) {
		t.Errorf("outside point dist = %g, want +Inf", d)
	}
}

func TestPointDistBlockedByWall(t *testing.T) {
	// Rooms side by side with NO door: indoor distance must be infinite
	// even though the Euclidean distance is tiny (the paper's Figure 1
	// motivation).
	b := indoor.NewBuilding(4)
	b.AddRoom(0, geom.R(0, 0, 10, 10))
	b.AddRoom(0, geom.R(10, 0, 20, 10))
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := fullEngine(t, idx, indoor.Pos(9, 5, 0))
	if d, _ := e.PointDist(indoor.Pos(11, 5, 0)); !math.IsInf(d, 1) {
		t.Errorf("through-wall dist = %g, want +Inf", d)
	}
}

func TestOneWayDoorAsymmetry(t *testing.T) {
	// A -> B one-way door; B reaches A only around through C.
	b := indoor.NewBuilding(4)
	a := b.AddRoom(0, geom.R(0, 0, 10, 10))
	bb := b.AddRoom(0, geom.R(10, 0, 20, 10))
	c := b.AddRoom(0, geom.R(0, 10, 20, 20))
	if _, err := b.AddOneWayDoor(geom.Pt(10, 5), 0, a.ID, bb.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDoor(geom.Pt(5, 10), 0, a.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDoor(geom.Pt(15, 10), 0, bb.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := indoor.Pos(5, 5, 0), indoor.Pos(15, 5, 0)
	dAB, _ := fullEngine(t, idx, qa).PointDist(qb)
	dBA, _ := fullEngine(t, idx, qb).PointDist(qa)
	// Forward: through the one-way door, 5 + 5 = 10.
	if math.Abs(dAB-10) > geom.Eps {
		t.Errorf("A->B = %g, want 10", dAB)
	}
	// Backward: must detour through C (5 up + across + down 5 > 10).
	if dBA <= dAB+geom.Eps {
		t.Errorf("B->A = %g must exceed A->B = %g (one-way detour)", dBA, dAB)
	}
	want := 5.0 + geom.Pt(15, 10).DistTo(geom.Pt(5, 10)) + 5.0
	if math.Abs(dBA-want) > geom.Eps {
		t.Errorf("B->A = %g, want %g", dBA, want)
	}
}

func TestClosedDoorIncreasesDistance(t *testing.T) {
	b, parts := corridor3(t)
	// Add a second, longer route from A to C through a back corridor.
	back, err := b.AddHallway(0, geom.RectPoly(geom.R(0, 10, 30, 16)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDoor(geom.Pt(5, 10), 0, parts[0].ID, back.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDoor(geom.Pt(25, 10), 0, parts[2].ID, back.ID); err != nil {
		t.Fatal(err)
	}
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := indoor.Pos(5, 5, 0)
	p := indoor.Pos(25, 5, 0)
	before, _ := fullEngine(t, idx, q).PointDist(p)
	if math.Abs(before-20) > geom.Eps {
		t.Fatalf("direct route = %g, want 20", before)
	}
	// Close the middle door (B->C): the back corridor becomes the route.
	var middle indoor.DoorID = -1
	for _, d := range b.Doors() {
		if d.Pos.Eq(geom.Pt(20, 5)) {
			middle = d.ID
		}
	}
	if _, err := idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: middle, Closed: true}); err != nil {
		t.Fatal(err)
	}
	after, _ := fullEngine(t, idx, q).PointDist(p)
	if after <= before {
		t.Errorf("closing a door must lengthen the path: %g -> %g", before, after)
	}
	// Reopen: distance restored without any index maintenance.
	if _, err := idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: middle}); err != nil {
		t.Fatal(err)
	}
	restored, _ := fullEngine(t, idx, q).PointDist(p)
	if math.Abs(restored-before) > geom.Eps {
		t.Errorf("reopened distance = %g, want %g", restored, before)
	}
}

func TestExactDistSingleInstanceMatchesPointDist(t *testing.T) {
	b, _ := corridor3(t)
	p := indoor.Pos(25, 5, 0)
	o := object.PointObject(0, p)
	idx, _, err := index.Build(b, []*object.Object{o}, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := fullEngine(t, idx, indoor.Pos(5, 5, 0))
	want, _ := e.PointDist(p)
	got, ok := e.ExactDist(o)
	if !ok || math.Abs(got-want) > geom.Eps {
		t.Errorf("ExactDist = %g ok=%v, want %g", got, ok, want)
	}
}

func TestExactDistMultiPath(t *testing.T) {
	// Room B has two doors from A; an object's two instances each prefer a
	// different door (the single-partition multi-path case, Figure 4).
	b := indoor.NewBuilding(4)
	a := b.AddRoom(0, geom.R(0, 0, 10, 10))
	bb := b.AddRoom(0, geom.R(10, 0, 20, 10))
	if _, err := b.AddDoor(geom.Pt(10, 1), 0, a.ID, bb.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDoor(geom.Pt(10, 9), 0, a.ID, bb.ID); err != nil {
		t.Fatal(err)
	}
	q := indoor.Pos(5, 5, 0)
	s1 := indoor.Pos(11, 1, 0) // near the south door
	s2 := indoor.Pos(11, 9, 0) // near the north door
	o := &object.Object{ID: 0, Instances: []object.Instance{
		{Pos: s1, P: 0.5}, {Pos: s2, P: 0.5},
	}}
	idx, _, err := index.Build(b, []*object.Object{o}, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := fullEngine(t, idx, q)
	got, ok := e.ExactDist(o)
	if !ok {
		t.Fatal("full engine must be complete")
	}
	d1 := q.Pt.DistTo(geom.Pt(10, 1)) + geom.Pt(10, 1).DistTo(s1.Pt)
	d2 := q.Pt.DistTo(geom.Pt(10, 9)) + geom.Pt(10, 9).DistTo(s2.Pt)
	want := 0.5*d1 + 0.5*d2
	if math.Abs(got-want) > geom.Eps {
		t.Errorf("multi-path expected dist = %g, want %g", got, want)
	}
	if e.Stats.MultiPath == 0 {
		t.Error("evaluation should have taken the multi-path case")
	}
}

func TestExactDistSinglePathShortcut(t *testing.T) {
	// Object tucked next to one door: bisector dominance must trigger the
	// Equation 3 shortcut and agree with per-instance evaluation.
	b := indoor.NewBuilding(4)
	a := b.AddRoom(0, geom.R(0, 0, 10, 10))
	bb := b.AddRoom(0, geom.R(10, 0, 20, 10))
	if _, err := b.AddDoor(geom.Pt(10, 1), 0, a.ID, bb.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDoor(geom.Pt(10, 9), 0, a.ID, bb.ID); err != nil {
		t.Fatal(err)
	}
	q := indoor.Pos(5, 1, 0) // much closer to the south door
	o := &object.Object{ID: 0, Instances: []object.Instance{
		{Pos: indoor.Pos(10.5, 0.5, 0), P: 0.5},
		{Pos: indoor.Pos(11.5, 1.5, 0), P: 0.5},
	}}
	idx, _, err := index.Build(b, []*object.Object{o}, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := fullEngine(t, idx, q)
	got, _ := e.ExactDist(o)
	if e.Stats.SinglePath != 1 {
		t.Errorf("single-path shortcut not taken (stats %+v)", e.Stats)
	}
	// Manual Equation 3: w(d south) + expected leg.
	w := q.Pt.DistTo(geom.Pt(10, 1))
	want := 0.5*(w+geom.Pt(10, 1).DistTo(geom.Pt(10.5, 0.5))) +
		0.5*(w+geom.Pt(10, 1).DistTo(geom.Pt(11.5, 1.5)))
	if math.Abs(got-want) > geom.Eps {
		t.Errorf("single-path dist = %g, want %g", got, want)
	}
}

func TestUnreachableObjectInfinite(t *testing.T) {
	b := indoor.NewBuilding(4)
	b.AddRoom(0, geom.R(0, 0, 10, 10))
	sealed := b.AddRoom(0, geom.R(20, 0, 30, 10)) // no doors
	o := object.PointObject(0, indoor.Pos(25, 5, 0))
	_ = sealed
	idx, _, err := index.Build(b, []*object.Object{o}, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := fullEngine(t, idx, indoor.Pos(5, 5, 0))
	d, ok := e.ExactDist(o)
	if !ok || !math.IsInf(d, 1) {
		t.Errorf("sealed-room object dist = %g ok=%v, want +Inf complete", d, ok)
	}
	bounds := e.ObjectBounds(o, math.Inf(1))
	if !math.IsInf(bounds.Upper, 1) {
		t.Error("upper bound of unreachable object must be +Inf")
	}
}

func TestEngineErrorsOutsideBuilding(t *testing.T) {
	b, _ := corridor3(t)
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFull(idx.Current(), indoor.Pos(-5, -5, 0)); err == nil {
		t.Error("query outside the building must error")
	}
	out := indoor.Pos(-5, -5, 0)
	if _, err := New(idx.Current(), out, idx.Current().NewSkelAnchor(out), nil); err == nil {
		t.Error("restricted engine outside the building must error")
	}
}

func TestExactDistBracketCapDiscipline(t *testing.T) {
	b, parts := corridor3(t)
	o := object.PointObject(0, indoor.Pos(25, 5, 0)) // true distance 20
	idx, _, err := index.Build(b, []*object.Object{o}, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Engine restricted to rooms A and B. The object's room C is reached
	// through the shared door at (20,5), whose restricted distance (15) is
	// exact, so a cap at or above 15 closes the bracket at the true value.
	units := append(idx.Current().UnitsOf(parts[0].ID), idx.Current().UnitsOf(parts[1].ID)...)
	q := indoor.Pos(5, 5, 0)
	e, err := New(idx.Current(), q, idx.Current().NewSkelAnchor(q), units)
	if err != nil {
		t.Fatal(err)
	}
	low, high := e.ExactDistBracket(o, 15)
	if low != high || math.Abs(high-20) > geom.Eps {
		t.Errorf("bracket with sufficient cap = [%g, %g], want closed at 20", low, high)
	}
	// A cap below the door distance must keep the bracket open with a
	// sound lower side: cap + leg = 12 + 5.
	low, high = e.ExactDistBracket(o, 12)
	if low >= high {
		t.Errorf("bracket with tight cap must stay open, got [%g, %g]", low, high)
	}
	if math.Abs(low-17) > geom.Eps || math.Abs(high-20) > geom.Eps {
		t.Errorf("bracket = [%g, %g], want [17, 20]", low, high)
	}
	full, exact := fullEngine(t, idx, indoor.Pos(5, 5, 0)).ExactDist(o)
	if !exact || full < low-geom.Eps || full > high+geom.Eps {
		t.Errorf("true distance %g escapes bracket [%g, %g]", full, low, high)
	}
	// A restricted engine must not claim exactness.
	if _, ok := e.ExactDist(o); ok {
		t.Error("restricted engine must not report ExactDist as exact")
	}
}

// The central soundness property across a realistic building: for random
// queries and objects, Lower ≤ Exact ≤ Upper, the skeleton distance lower
// bounds the exact point distance (Lemma 6), and TLU upper-bounds it.
func TestBoundsSandwichExactOnMall(t *testing.T) {
	if testing.Short() {
		t.Skip("mall fixture in -short mode")
	}
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 120, Radius: 10, Seed: 31})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range gen.QueryPoints(b, 6, 32) {
		e := fullEngine(t, idx, q)
		for _, o := range objs {
			bounds := e.ObjectBounds(o, math.Inf(1))
			exact, ok := e.ExactDist(o)
			if !ok {
				t.Fatalf("full engine incomplete for object %d", o.ID)
			}
			if bounds.Lower > exact+1e-6 {
				t.Fatalf("q%d o%d: lower bound %g > exact %g (multi=%v)",
					qi, o.ID, bounds.Lower, exact, bounds.MultiPartition)
			}
			if exact > bounds.Upper+1e-6 {
				t.Fatalf("q%d o%d: exact %g > upper bound %g (multi=%v)",
					qi, o.ID, exact, bounds.Upper, bounds.MultiPartition)
			}
			if tlu := e.TLU(o); exact > tlu+1e-6 {
				t.Fatalf("q%d o%d: exact %g > TLU %g", qi, o.ID, exact, tlu)
			}
			// Lemma 6 at instance granularity.
			for _, in := range o.Instances {
				pd, _ := e.PointDist(in.Pos)
				sk := idx.Current().SkeletonDist(q, in.Pos)
				if sk > pd+1e-6 {
					t.Fatalf("skeleton dist %g > indoor dist %g", sk, pd)
				}
			}
		}
	}
}

// Restricted engines with a sufficient bound must agree with the full
// engine whenever they report completeness.
func TestRestrictedAgreesWithFullOnMall(t *testing.T) {
	if testing.Short() {
		t.Skip("mall fixture in -short mode")
	}
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 60, Radius: 10, Seed: 41})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.QueryPoints(b, 1, 42)[0]
	full := fullEngine(t, idx, q)

	// Candidate set: units within skeleton bound 250 of q (a realistic
	// filtering-phase output).
	var units []index.UnitID
	idx.Current().SearchTree(
		func(box geom.Rect3) bool { return idx.Current().MinSkelDistBox(q, box) <= 250 },
		func(u *index.Unit) { units = append(units, u.ID) },
	)
	e, err := New(idx.Current(), q, idx.Current().NewSkelAnchor(q), units)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, o := range objs {
		low, high := e.ExactDistBracket(o, 250)
		fd, _ := full.ExactDist(o)
		if fd < low-1e-6 || fd > high+1e-6 {
			t.Fatalf("object %d: true %g escapes bracket [%g, %g]", o.ID, fd, low, high)
		}
		if low == high {
			if math.Abs(high-fd) > 1e-6 {
				t.Fatalf("object %d: closed bracket %g != full %g", o.ID, high, fd)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no objects closed their bracket on the restricted engine")
	}
}

// A restricted engine carried across a door toggle outside its unit set
// answers exactly like an engine built fresh over the same units on the
// new snapshot, for objects inside and outside the set alike.
func TestCarryMatchesFreshOutsideRadius(t *testing.T) {
	b, parts := corridor3(t)
	d := b.AddRoom(0, geom.R(30, 0, 40, 10))
	far, err := b.AddDoor(geom.Pt(30, 5), 0, parts[2].ID, d.ID)
	if err != nil {
		t.Fatal(err)
	}
	objs := []*object.Object{
		object.PointObject(0, indoor.Pos(15, 5, 0)),
		object.PointObject(1, indoor.Pos(35, 5, 0)),
		{ID: 2, Instances: []object.Instance{
			{Pos: indoor.Pos(8, 5, 0), P: 0.5}, {Pos: indoor.Pos(25, 5, 0), P: 0.5}}},
	}
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := indoor.Pos(5, 5, 0)
	set := append(idx.Current().UnitsOf(parts[0].ID), idx.Current().UnitsOf(parts[1].ID)...)
	carried, err := New(idx.Current(), q, idx.Current().NewSkelAnchor(q), set)
	if err != nil {
		t.Fatal(err)
	}
	defer carried.Close()
	if _, err := idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: far.ID, Closed: true}); err != nil {
		t.Fatal(err)
	}
	cur := idx.Current()
	if carried.Rebind(cur) {
		t.Fatal("Rebind must refuse a new topology epoch")
	}
	carried.Carry(cur)
	fresh, err := New(cur, q, cur.NewSkelAnchor(q), set)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, o := range objs {
		for _, cap := range []float64{12, math.Inf(1)} {
			cl, ch := carried.ExactDistBracket(o, cap)
			fl, fh := fresh.ExactDistBracket(o, cap)
			if cl != fl || ch != fh {
				t.Errorf("object %d cap %g: carried [%g, %g], fresh [%g, %g]", o.ID, cap, cl, ch, fl, fh)
			}
			if cb, fb := carried.ObjectBounds(o, cap), fresh.ObjectBounds(o, cap); cb != fb {
				t.Errorf("object %d cap %g: carried bounds %+v, fresh %+v", o.ID, cap, cb, fb)
			}
		}
	}
	if !carried.Rebind(cur) {
		t.Fatal("a carried engine must rebind within its new epoch")
	}
}

// Reach is the largest finite door distance a full engine handed out,
// and +Inf once it resolved an unreachable object.
func TestFullEngineReach(t *testing.T) {
	b, _ := corridor3(t)
	b.AddRoom(0, geom.R(40, 0, 50, 10)) // no doors
	near := object.PointObject(0, indoor.Pos(15, 5, 0))
	cut := object.PointObject(1, indoor.Pos(45, 5, 0))
	idx, _, err := index.Build(b, []*object.Object{near, cut}, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := fullEngine(t, idx, indoor.Pos(5, 5, 0))
	defer e.Close()
	if e.Reach() != 0 {
		t.Fatalf("fresh engine reach %g, want 0", e.Reach())
	}
	if _, ok := e.ExactDist(near); !ok {
		t.Fatal("full engine must be exact")
	}
	// B's doors sit at 5 m and 15 m from q.
	if math.Abs(e.Reach()-15) > geom.Eps {
		t.Fatalf("reach after B's object = %g, want 15", e.Reach())
	}
	if d, _ := e.ExactDist(cut); !math.IsInf(d, 1) || !math.IsInf(e.Reach(), 1) {
		t.Fatalf("unreachable object: dist %g reach %g, want +Inf both", d, e.Reach())
	}
}
