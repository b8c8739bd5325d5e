package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// eagerDoorDists runs the full engine's search to completion in its own
// scratch — the same seeds, one uninterrupted Graph.Dijkstra — and returns
// every door's distance by dense id.
func eagerDoorDists(t *testing.T, s *index.Snapshot, q indoor.Position) []float64 {
	t.Helper()
	qUnit := s.LocateUnit(q)
	if qUnit == nil {
		t.Fatalf("query point %v is outside every partition", q)
	}
	dg := s.DoorGraph()
	sc := graph.AcquireScratch()
	defer sc.Release()
	sc.Reset(dg.NumDoors(), dg.NumUnits())
	for _, d := range qUnit.Doors {
		gid := dg.DoorID(d)
		if gid < 0 {
			continue
		}
		if w := qUnit.WalkDist(q, d.Position()); sc.Improve(gid, w) {
			sc.Push(gid, w)
		}
	}
	dg.Graph().Dijkstra(sc, math.Inf(1), false)
	out := make([]float64, dg.NumDoors())
	for i := range out {
		out[i] = sc.Dist(int32(i))
	}
	return out
}

// TestLazyFullMatchesEager checks that the full rung's lazy search, which
// settles only the doors it is asked for, hands out exactly the bits of a
// search run to completion, whatever order the doors and objects are read
// in, and that Reach tracks the largest finite distance handed out. The
// fixture is the 3-floor golden mall with one door closed and a doorless
// room holding an unreachable object.
func TestLazyFullMatchesEager(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 3})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 1000, Radius: 8, Instances: 20, Seed: 7})
	doors := b.Doors()
	if err := b.SetDoorClosed(doors[len(doors)/2].ID, true); err != nil {
		t.Fatal(err)
	}
	b.AddRoom(0, geom.R(-60, -60, -40, -40))
	objs = append(objs, object.PointObject(object.ID(len(objs)), indoor.Pos(-50, -50, 0)))
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := idx.Current()
	dg := s.DoorGraph()
	rng := rand.New(rand.NewSource(47))
	unreachable := 0
	for qi, q := range gen.QueryPoints(b, 20, 11) {
		want := eagerDoorDists(t, s, q)

		// Every door, shuffled, on a fresh lazy engine.
		lazy, err := NewFull(s, q)
		if err != nil {
			t.Fatal(err)
		}
		reach := 0.0
		for _, i := range rng.Perm(dg.NumDoors()) {
			got := lazy.DoorDist(dg.Door(int32(i)))
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("q%d door %d: lazy %g, eager %g", qi, i, got, want[i])
			}
			if !math.IsInf(got, 1) {
				reach = max(reach, got)
			}
			if lazy.Reach() != reach {
				t.Fatalf("q%d door %d: reach %g, largest handed out %g", qi, i, lazy.Reach(), reach)
			}
		}

		// Every object, in ascending order on the drained engine and in a
		// shuffled order on a fresh one.
		drained := make([]float64, len(objs))
		for i, o := range objs {
			drained[i], _ = lazy.ExactDist(o)
		}
		lazy.Close()
		fresh, err := NewFull(s, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(len(objs)) {
			got, _ := fresh.ExactDist(objs[i])
			if math.Float64bits(got) != math.Float64bits(drained[i]) {
				t.Fatalf("q%d object %d: shuffled lazy %g, drained %g", qi, objs[i].ID, got, drained[i])
			}
			if math.IsInf(got, 1) {
				unreachable++
			}
		}
		if !math.IsInf(fresh.Reach(), 1) {
			t.Fatalf("q%d: reach %g after an unreachable object, want +Inf", qi, fresh.Reach())
		}
		fresh.Close()
	}
	if unreachable < 20 {
		t.Fatalf("%d unreachable reads over 20 queries, want at least one per query", unreachable)
	}
}
