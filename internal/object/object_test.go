package object

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/indoor"
)

func TestSampleGaussianContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	center := indoor.Pos(100, 100, 2)
	o := SampleGaussian(rng, 7, center, 10, 100)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(o.Instances) != 100 {
		t.Fatalf("instances = %d", len(o.Instances))
	}
	if o.Floor() != 2 {
		t.Errorf("floor = %d, want 2", o.Floor())
	}
	for i, in := range o.Instances {
		if d := in.Pos.Pt.DistTo(center.Pt); d > 10+geom.Eps {
			t.Errorf("instance %d at distance %g outside radius 10", i, d)
		}
		if math.Abs(in.P-0.01) > 1e-12 {
			t.Errorf("instance %d probability %g, want 0.01", i, in.P)
		}
	}
}

func TestSampleGaussianConcentration(t *testing.T) {
	// σ = radius/3, so ~99.7% of the mass lies within the circle even
	// before truncation, and the sample mean should be close to center.
	rng := rand.New(rand.NewSource(2))
	center := indoor.Pos(0, 0, 0)
	o := SampleGaussian(rng, 0, center, 15, 2000)
	var mx, my float64
	for _, in := range o.Instances {
		mx += in.Pos.Pt.X
		my += in.Pos.Pt.Y
	}
	mx /= float64(len(o.Instances))
	my /= float64(len(o.Instances))
	if math.Hypot(mx, my) > 1 {
		t.Errorf("sample mean (%g, %g) too far from center", mx, my)
	}
}

func TestValidateRejectsBadObjects(t *testing.T) {
	cases := []struct {
		name string
		o    *Object
	}{
		{"empty", &Object{ID: 1}},
		{"negative prob", &Object{ID: 2, Instances: []Instance{
			{Pos: indoor.Pos(0, 0, 0), P: 1.5},
			{Pos: indoor.Pos(1, 0, 0), P: -0.5},
		}}},
		{"sum != 1", &Object{ID: 3, Instances: []Instance{
			{Pos: indoor.Pos(0, 0, 0), P: 0.4},
		}}},
		{"multi floor", &Object{ID: 4, Instances: []Instance{
			{Pos: indoor.Pos(0, 0, 0), P: 0.5},
			{Pos: indoor.Pos(0, 0, 1), P: 0.5},
		}}},
	}
	for _, c := range cases {
		if err := c.o.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestPointObject(t *testing.T) {
	o := PointObject(5, indoor.Pos(3, 4, 1))
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	o := &Object{ID: 1, Instances: []Instance{
		{Pos: indoor.Pos(2, 3, 0), P: 0.25},
		{Pos: indoor.Pos(8, 1, 0), P: 0.25},
		{Pos: indoor.Pos(5, 9, 0), P: 0.5},
	}}
	if b := o.Bounds(); b != (geom.Rect{MinX: 2, MinY: 1, MaxX: 8, MaxY: 9}) {
		t.Errorf("bounds = %v", b)
	}
}

func TestSplitByPartition(t *testing.T) {
	// Locator: x<10 -> partition 1, x>=10 -> partition 2.
	locate := func(p indoor.Position) indoor.PartitionID {
		if p.Pt.X < 10 {
			return 1
		}
		return 2
	}
	o := &Object{ID: 1, Instances: []Instance{
		{Pos: indoor.Pos(5, 5, 0), P: 0.2},
		{Pos: indoor.Pos(15, 5, 0), P: 0.3},
		{Pos: indoor.Pos(7, 2, 0), P: 0.1},
		{Pos: indoor.Pos(12, 8, 0), P: 0.4},
	}}
	subs := o.Split(locate)
	if len(subs) != 2 {
		t.Fatalf("subregions = %d, want 2", len(subs))
	}
	if subs[0].Part != 1 || subs[1].Part != 2 {
		t.Fatalf("subregion order = %d, %d; want sorted by partition", subs[0].Part, subs[1].Part)
	}
	if math.Abs(subs[0].Prob-0.3) > 1e-12 || math.Abs(subs[1].Prob-0.7) > 1e-12 {
		t.Errorf("probs = %g, %g; want 0.3, 0.7", subs[0].Prob, subs[1].Prob)
	}
	if len(subs[0].Instances) != 2 || len(subs[1].Instances) != 2 {
		t.Error("instance counts wrong")
	}
	// Probability mass conserved.
	var total float64
	for _, s := range subs {
		total += s.Prob
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("mass leaked: %g", total)
	}
	// MBRs tight.
	if subs[0].MBR != (geom.Rect{MinX: 5, MinY: 2, MaxX: 7, MaxY: 5}) {
		t.Errorf("sub MBR = %v", subs[0].MBR)
	}
}

func TestSplitUnlocatableInstances(t *testing.T) {
	locate := func(indoor.Position) indoor.PartitionID { return indoor.NoPartition }
	o := PointObject(1, indoor.Pos(1, 1, 0))
	subs := o.Split(locate)
	if len(subs) != 1 || subs[0].Part != indoor.NoPartition {
		t.Fatalf("subs = %+v", subs)
	}
	if math.Abs(subs[0].Prob-1) > 1e-12 {
		t.Error("unlocatable mass must be preserved")
	}
}

func TestSplitSingletonFastPath(t *testing.T) {
	locate := func(indoor.Position) indoor.PartitionID { return 3 }
	rng := rand.New(rand.NewSource(4))
	o := SampleGaussian(rng, 1, indoor.Pos(50, 50, 0), 5, 100)
	subs := o.Split(locate)
	if len(subs) != 1 || subs[0].Part != 3 || len(subs[0].Instances) != 100 {
		t.Fatalf("single-partition split wrong: %d subregions", len(subs))
	}
}

func TestStore(t *testing.T) {
	m := NewStore().Mutate()
	a := PointObject(-1, indoor.Pos(0, 0, 0))
	idA := m.Put(a)
	b := PointObject(-1, indoor.Pos(1, 1, 0))
	idB := m.Put(b)
	if idA == idB {
		t.Fatal("auto-assigned IDs must differ")
	}
	s := m.Freeze()
	if s.Len() != 2 || s.Get(idA) != a || s.Get(idB) != b {
		t.Fatal("store lookup broken")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] > ids[1] {
		t.Errorf("IDs() = %v, want ascending", ids)
	}
	m = s.Mutate()
	if !m.Remove(idA) || m.Remove(idA) {
		t.Error("Remove must report existence correctly")
	}
	s2 := m.Freeze()
	if s2.Len() != 1 {
		t.Errorf("len = %d after removal", s2.Len())
	}
	// Explicit-ID put advances the allocator.
	m = s2.Mutate()
	c := PointObject(100, indoor.Pos(2, 2, 0))
	m.Put(c)
	d := PointObject(-1, indoor.Pos(3, 3, 0))
	if id := m.Put(d); id <= 100 {
		t.Errorf("allocator did not advance past explicit ID: %d", id)
	}
}

// TestStoreSnapshotIsolation pins the MVCC contract: frozen stores never
// observe later edits, slots stay put across replaces, and removal recycles
// slots only for versions that come after it.
func TestStoreSnapshotIsolation(t *testing.T) {
	m := NewStore().Mutate()
	for i := 0; i < 100; i++ {
		m.Put(PointObject(ID(i), indoor.Pos(float64(i), 0, 0)))
	}
	v1 := m.Freeze()

	// Replace keeps the slot and must not show through v1.
	m = v1.Mutate()
	slotBefore := m.SlotOf(7)
	repl := PointObject(7, indoor.Pos(-1, -1, 0))
	m.Put(repl)
	m.Remove(40)
	v2 := m.Freeze()

	if v1.Get(7).Center.Pt.X != 7 {
		t.Fatal("v1 observed a replace from v2")
	}
	if v1.Get(40) == nil || v1.Len() != 100 {
		t.Fatal("v1 observed a removal from v2")
	}
	if v2.Get(7) != repl || v2.SlotOf(7) != slotBefore {
		t.Fatal("replace must keep the slot")
	}
	if v2.Get(40) != nil || v2.Len() != 99 {
		t.Fatal("v2 missing its own removal")
	}

	// The freed slot is recycled in a later version without disturbing v2.
	m = v2.Mutate()
	m.Put(PointObject(500, indoor.Pos(5, 5, 0)))
	v3 := m.Freeze()
	if v3.SlotBound() != v2.SlotBound() {
		t.Fatalf("slot not recycled: bound %d -> %d", v2.SlotBound(), v3.SlotBound())
	}
	if v2.Get(500) != nil || v3.Get(500) == nil {
		t.Fatal("recycled insertion leaked across versions")
	}
}

func TestGaussianDeterminism(t *testing.T) {
	a := SampleGaussian(rand.New(rand.NewSource(9)), 0, indoor.Pos(5, 5, 0), 10, 50)
	b := SampleGaussian(rand.New(rand.NewSource(9)), 0, indoor.Pos(5, 5, 0), 10, 50)
	for i := range a.Instances {
		if !a.Instances[i].Pos.Pt.Eq(b.Instances[i].Pos.Pt) {
			t.Fatal("same seed must reproduce the same object")
		}
	}
}
