package query

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

type fixture struct {
	b    *indoor.Building
	objs []*object.Object
	idx  *index.Index
	or   *baseline.Oracle
}

func newFixture(t *testing.T, floors, nObjects int, radius float64) *fixture {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: floors})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: nObjects, Radius: radius, Instances: 20, Seed: 77})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{b: b, objs: objs, idx: idx, or: baseline.NewOracle(idx)}
}

func idsOf(rs []Result) []object.ID {
	out := make([]object.ID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func sameIDs(a, b []object.ID) bool {
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

func TestRangeQueryMatchesOracle(t *testing.T) {
	f := newFixture(t, 2, 300, 10)
	p := New(f.idx, Options{})
	for qi, q := range gen.QueryPoints(f.b, 8, 101) {
		for _, r := range []float64{50, 100, 150} {
			got, st, err := p.RangeQuery(q, r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.or.Range(q, r)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(idsOf(got), want) {
				t.Fatalf("q%d r=%g: got %v, want %v", qi, r, idsOf(got), want)
			}
			if st.Candidates > st.TotalObjects {
				t.Fatal("candidate count exceeds object count")
			}
			// Reported exact distances (non-NaN) must be within range.
			for _, res := range got {
				if !math.IsNaN(res.Distance) && res.Distance > r+1e-6 {
					t.Fatalf("result %d reports distance %g > r=%g", res.ID, res.Distance, r)
				}
			}
		}
	}
}

func TestKNNQueryMatchesOracle(t *testing.T) {
	f := newFixture(t, 2, 300, 10)
	p := New(f.idx, Options{})
	or := f.or
	for qi, q := range gen.QueryPoints(f.b, 6, 103) {
		for _, k := range []int{1, 10, 50} {
			got, _, err := p.KNNQuery(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := or.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("q%d k=%d: %d results, want %d", qi, k, len(got), len(want))
			}
			// Compare as sets with tie tolerance: objects differing from
			// the oracle's set must sit exactly at the k-th distance
			// boundary.
			wantSet := make(map[object.ID]bool)
			for _, od := range want {
				wantSet[od.ID] = true
			}
			kth := want[len(want)-1].D
			all, err := or.AllDistances(q)
			if err != nil {
				t.Fatal(err)
			}
			distOf := make(map[object.ID]float64, len(all))
			for _, od := range all {
				distOf[od.ID] = od.D
			}
			for _, res := range got {
				if wantSet[res.ID] {
					continue
				}
				if math.Abs(distOf[res.ID]-kth) > 1e-6 {
					t.Fatalf("q%d k=%d: result %d (d=%g) not in oracle top-k (kth=%g)",
						qi, k, res.ID, distOf[res.ID], kth)
				}
			}
		}
	}
}

func TestKNNMoreThanPopulation(t *testing.T) {
	f := newFixture(t, 1, 20, 5)
	p := New(f.idx, Options{})
	q := gen.QueryPoints(f.b, 1, 7)[0]
	got, _, err := p.KNNQuery(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Errorf("k beyond population: %d results, want 20", len(got))
	}
	if res, _, err := p.KNNQuery(q, 0); err != nil || res != nil {
		t.Errorf("k=0 must return nothing, got %v (%v)", res, err)
	}
}

func TestRangeQueryZeroRadius(t *testing.T) {
	f := newFixture(t, 1, 50, 5)
	p := New(f.idx, Options{})
	q := gen.QueryPoints(f.b, 1, 9)[0]
	got, _, err := p.RangeQuery(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.or.Range(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(idsOf(got), want) {
		t.Errorf("r=0: got %v, want %v", idsOf(got), want)
	}
}

func TestQueryOutsideBuilding(t *testing.T) {
	f := newFixture(t, 1, 10, 5)
	p := New(f.idx, Options{})
	if _, _, err := p.RangeQuery(indoor.Pos(-10, -10, 0), 50); err == nil {
		t.Error("range query outside the building must error")
	}
	if _, _, err := p.KNNQuery(indoor.Pos(-10, -10, 0), 5); err == nil {
		t.Error("kNN query outside the building must error")
	}
}

// The ablations must not change answers, only cost.
func TestAblationsPreserveResults(t *testing.T) {
	f := newFixture(t, 2, 200, 10)
	base := New(f.idx, Options{})
	noPrune := New(f.idx, Options{DisablePruning: true})
	noSkel := New(f.idx, Options{DisableSkeleton: true})
	for _, q := range gen.QueryPoints(f.b, 4, 301) {
		want, _, err := base.RangeQuery(q, 100)
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*Processor{"noPruning": noPrune, "noSkeleton": noSkel} {
			got, _, err := p.RangeQuery(q, 100)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(idsOf(got), idsOf(want)) {
				t.Fatalf("%s changed iRQ results", name)
			}
		}
		wantK, _, err := base.KNNQuery(q, 20)
		if err != nil {
			t.Fatal(err)
		}
		gotK, _, err := noPrune.KNNQuery(q, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK) != len(wantK) {
			t.Fatalf("noPruning changed ikNNQ result count: %d vs %d", len(gotK), len(wantK))
		}
	}
}

// Statistics sanity: the filtering phase must discard most objects and the
// skeleton must retrieve fewer units than the Euclidean ablation on a tall
// building (the Fig 15(a) effect).
func TestStatsAndSkeletonEffect(t *testing.T) {
	f := newFixture(t, 4, 400, 10)
	withSkel := New(f.idx, Options{})
	without := New(f.idx, Options{DisableSkeleton: true})
	var unitsWith, unitsWithout, ratioSum float64
	qs := gen.QueryPoints(f.b, 5, 303)
	for _, q := range qs {
		_, st, err := withSkel.RangeQuery(q, 100)
		if err != nil {
			t.Fatal(err)
		}
		unitsWith += float64(st.UnitsRetrieved)
		ratioSum += st.FilteringRatio()
		if st.PruningRatio() < st.FilteringRatio() {
			t.Error("pruning ratio must not be below filtering ratio")
		}
		_, st2, err := without.RangeQuery(q, 100)
		if err != nil {
			t.Fatal(err)
		}
		unitsWithout += float64(st2.UnitsRetrieved)
	}
	if ratioSum/float64(len(qs)) < 0.5 {
		t.Errorf("mean filtering ratio %.2f implausibly low", ratioSum/float64(len(qs)))
	}
	if unitsWith >= unitsWithout {
		t.Errorf("skeleton must retrieve fewer units: with=%g without=%g", unitsWith, unitsWithout)
	}
}

// Queries across floors: objects on other floors must be found when the
// range allows and excluded when it does not.
func TestCrossFloorRange(t *testing.T) {
	f := newFixture(t, 3, 200, 5)
	p := New(f.idx, Options{})
	q := indoor.Pos(300, 60, 1) // middle floor, on corridor 0
	for _, r := range []float64{80, 400, 900} {
		got, _, err := p.RangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.or.Range(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), want) {
			t.Fatalf("r=%g: got %d results, want %d", r, len(got), len(want))
		}
		// With a large enough range, some results must come from other
		// floors.
		if r >= 900 {
			cross := false
			for _, res := range got {
				if f.idx.Current().Objects().Get(res.ID).Floor() != q.Floor {
					cross = true
					break
				}
			}
			if !cross && len(got) > 0 {
				t.Error("large-range query found no cross-floor objects")
			}
		}
	}
}

// Results must respect a one-way-door world: queries behind one-way doors
// still agree with the oracle.
func TestQueriesWithOneWayDoors(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1, OneWayFraction: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 150, Radius: 5, Instances: 20, Seed: 14})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	or := baseline.NewOracle(idx)
	p := New(idx, Options{})
	for _, q := range gen.QueryPoints(b, 5, 15) {
		got, _, err := p.RangeQuery(q, 120)
		if err != nil {
			t.Fatal(err)
		}
		want, err := or.Range(q, 120)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), want) {
			t.Fatalf("one-way mall mismatch: got %d, want %d", len(got), len(want))
		}
	}
}

// Door closure must be reflected in query results without reindexing.
func TestQueryAfterDoorClosure(t *testing.T) {
	f := newFixture(t, 1, 150, 5)
	p := New(f.idx, Options{})
	q := gen.QueryPoints(f.b, 1, 17)[0]
	before, _, err := p.RangeQuery(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Close the query partition's doors: everything beyond becomes
	// unreachable, so only same-partition objects remain.
	pid := f.idx.Current().LocatePartition(q)
	part := f.b.Partition(pid)
	for _, did := range part.Doors {
		if _, err := f.idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: did, Closed: true}); err != nil {
			t.Fatal(err)
		}
	}
	after, _, err := p.RangeQuery(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) > len(before) {
		t.Error("closing doors must not grow the result")
	}
	for _, res := range after {
		units := f.idx.Current().ObjectUnits(res.ID)
		inPart := false
		for _, uid := range units {
			if f.idx.Current().PartitionOf(uid) == pid {
				inPart = true
			}
		}
		if !inPart {
			t.Errorf("object %d beyond closed doors still reported", res.ID)
		}
	}
	want, err := f.or.Range(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(idsOf(after), want) {
		t.Error("closed-door results disagree with oracle")
	}
}
