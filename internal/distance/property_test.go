package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
)

// Closing any door can only lengthen (never shorten) indoor distances, and
// reopening restores them exactly.
func TestDoorClosureMonotone(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 60, Radius: 8, Instances: 10, Seed: 81})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.QueryPoints(b, 1, 82)[0]
	rng := rand.New(rand.NewSource(83))
	doors := b.Doors()

	before := make([]float64, len(objs))
	e := fullEngine(t, idx, q)
	for i, o := range objs {
		before[i], _ = e.ExactDist(o)
	}
	for trial := 0; trial < 10; trial++ {
		d := doors[rng.Intn(len(doors))]
		if _, err := idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: d.ID, Closed: true}); err != nil {
			t.Fatal(err)
		}
		e2 := fullEngine(t, idx, q)
		for i, o := range objs {
			after, _ := e2.ExactDist(o)
			if after < before[i]-1e-9 {
				t.Fatalf("closing door %d shortened object %d: %g -> %g",
					d.ID, o.ID, before[i], after)
			}
		}
		if _, err := idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: d.ID}); err != nil {
			t.Fatal(err)
		}
		e3 := fullEngine(t, idx, q)
		for i, o := range objs {
			restored, _ := e3.ExactDist(o)
			if math.Abs(restored-before[i]) > 1e-9 {
				t.Fatalf("reopening door %d did not restore object %d: %g vs %g",
					d.ID, o.ID, before[i], restored)
			}
		}
	}
}

// Bounds tighten monotonically with the cap: a larger cap can only raise
// the lower bound (capped door floors rise toward the true distances).
func TestBoundsMonotoneInCap(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 50, Radius: 10, Instances: 10, Seed: 84})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.QueryPoints(b, 1, 85)[0]
	e := fullEngine(t, idx, q)
	for _, o := range objs {
		prev := -math.MaxFloat64
		for _, cap := range []float64{25, 50, 100, 200, math.Inf(1)} {
			bd := e.ObjectBounds(o, cap)
			if bd.Lower < prev-1e-9 {
				t.Fatalf("object %d: lower bound fell from %g to %g as cap grew",
					o.ID, prev, bd.Lower)
			}
			prev = bd.Lower
			if bd.Lower > bd.Upper+1e-9 {
				t.Fatalf("object %d: crossed bounds [%g, %g] at cap %g",
					o.ID, bd.Lower, bd.Upper, cap)
			}
		}
	}
}

// ExactDistBracket is nested in the cap: growing the cap can only narrow
// the bracket, and the bracket always contains the true value.
func TestBracketNestedInCap(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 50, Radius: 10, Instances: 10, Seed: 86})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := gen.QueryPoints(b, 1, 87)[0]
	e := fullEngine(t, idx, q)
	for _, o := range objs {
		truth, _ := e.ExactDist(o)
		prevLow := -math.MaxFloat64
		for _, cap := range []float64{25, 50, 100, 200, math.Inf(1)} {
			low, high := e.ExactDistBracket(o, cap)
			if truth < low-1e-9 || truth > high+1e-9 {
				t.Fatalf("object %d: truth %g escapes bracket [%g, %g] at cap %g",
					o.ID, truth, low, high, cap)
			}
			if low < prevLow-1e-9 {
				t.Fatalf("object %d: bracket low fell as cap grew", o.ID)
			}
			prevLow = low
		}
	}
}

// The TLU never falls below the topological upper bound's tight companion:
// for any object, exact ≤ topological UB ≤ TLU on the same engine is not
// required (TLU is looser in general), but exact ≤ TLU must always hold.
func TestTLUAboveExactEverywhere(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 80, Radius: 10, Instances: 10, Seed: 88})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range gen.QueryPoints(b, 3, 89) {
		e := fullEngine(t, idx, q)
		for _, o := range objs {
			exact, _ := e.ExactDist(o)
			if tlu := e.TLU(o); exact > tlu+1e-6 {
				t.Fatalf("object %d: exact %g > TLU %g", o.ID, exact, tlu)
			}
		}
	}
}

// PointDist respects staircase runs: a point one floor up costs at least
// the horizontal trip to a staircase plus the run plus the trip back.
func TestCrossFloorPointDist(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := indoor.Pos(300, 60, 0)
	p := indoor.Pos(300, 60, 1)
	e := fullEngine(t, idx, q)
	d, ok := e.PointDist(p)
	if !ok || math.IsInf(d, 1) {
		t.Fatalf("cross-floor dist = %g ok=%v", d, ok)
	}
	sk := idx.Current().SkeletonDist(q, p)
	if d < sk-1e-9 {
		t.Fatalf("indoor dist %g below skeleton lower bound %g", d, sk)
	}
	// The staircases sit ~280 m away at the corridor ends.
	if d < 2*280 {
		t.Errorf("cross-floor dist %g implausibly small", d)
	}
}
