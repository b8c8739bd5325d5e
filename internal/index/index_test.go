package index

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/object"
)

func mall(t *testing.T, floors int) *indoor.Building {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: floors})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func buildIdx(t *testing.T, b *indoor.Building, objs []*object.Object) *Index {
	t.Helper()
	idx, _, err := Build(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestBuildSmallMall(t *testing.T) {
	b := mall(t, 2)
	objs := gen.Objects(b, gen.ObjectSpec{N: 100, Radius: 10, Seed: 1})
	idx, stats, err := Build(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Current().NumUnits() < b.NumPartitions() {
		t.Errorf("units %d < partitions %d; corridors must decompose", idx.Current().NumUnits(), b.NumPartitions())
	}
	if idx.Current().Objects().Len() != 100 {
		t.Errorf("stored objects = %d", idx.Current().Objects().Len())
	}
	if stats.Total() <= 0 {
		t.Error("construction stats must be positive")
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHTableMapsUnitsToPartitions(t *testing.T) {
	b := mall(t, 1)
	idx := buildIdx(t, b, nil)
	for _, p := range b.Partitions() {
		units := idx.Current().UnitsOf(p.ID)
		if len(units) == 0 {
			t.Fatalf("partition %d has no units", p.ID)
		}
		var area float64
		for _, uid := range units {
			if idx.Current().PartitionOf(uid) != p.ID {
				t.Fatalf("h-table mismatch for unit %d", uid)
			}
			area += idx.Current().Unit(uid).Rect.Area()
		}
		if math.Abs(area-p.Shape.Area()) > 1e-6*p.Shape.Area() {
			t.Errorf("partition %d: unit area %g != shape area %g", p.ID, area, p.Shape.Area())
		}
	}
}

func TestLocateUnitAgreesWithBuilding(t *testing.T) {
	b := mall(t, 3)
	idx := buildIdx(t, b, nil)
	for i, q := range gen.QueryPoints(b, 200, 9) {
		u := idx.Current().LocateUnit(q)
		if u == nil {
			t.Fatalf("point %d (%v) not located", i, q)
		}
		if !u.Contains(q) {
			t.Fatalf("located unit does not contain %v", q)
		}
		p := b.PartitionAt(q)
		if p == nil {
			t.Fatalf("building cannot locate %v", q)
		}
		// The unit's partition must contain the point too (boundary cases
		// may pick a different but still-containing partition).
		if !b.Partition(u.Part).Contains(q) {
			t.Fatalf("unit partition %d does not contain %v", u.Part, q)
		}
	}
	if got := idx.Current().LocateUnit(indoor.Pos(-50, -50, 0)); got != nil {
		t.Error("outside point must not locate")
	}
	if got := idx.Current().LocatePartition(indoor.Pos(-50, -50, 0)); got != indoor.NoPartition {
		t.Error("outside point must yield NoPartition")
	}
}

func TestTopologicalLayerConnectivity(t *testing.T) {
	// Every unit must reach every other unit through door refs (units form
	// a connected graph in the mall).
	b := mall(t, 2)
	idx := buildIdx(t, b, nil)
	units := idx.Current().topo.units
	start := UnitID(-1)
	for uid, u := range units {
		if u != nil && (start == -1 || UnitID(uid) < start) {
			start = UnitID(uid)
		}
	}
	visited := map[UnitID]bool{start: true}
	queue := []UnitID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range units[cur].Doors {
			next := d.OtherUnit(cur)
			if next == NoUnit || visited[next] {
				continue
			}
			if !d.CanEnter(units[next]) {
				continue
			}
			visited[next] = true
			queue = append(queue, next)
		}
	}
	if len(visited) != idx.Current().NumUnits() {
		t.Errorf("reached %d of %d units through the topological layer",
			len(visited), idx.Current().NumUnits())
	}
}

func TestVirtualDoorsAlwaysEnterable(t *testing.T) {
	b := mall(t, 1)
	idx := buildIdx(t, b, nil)
	virtuals := 0
	for _, u := range idx.Current().topo.units {
		for _, d := range u.Doors {
			if d.Virtual() {
				virtuals++
				if !d.CanEnter(u) {
					t.Fatal("virtual door must always be enterable")
				}
				if idx.Current().PartitionOf(d.U1) != idx.Current().PartitionOf(d.U2) {
					t.Fatal("virtual door must not cross partitions")
				}
			}
		}
	}
	if virtuals == 0 {
		t.Error("decomposed corridors must produce virtual doors")
	}
}

func TestDoorRefDirectionality(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1, OneWayFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx := buildIdx(t, b, nil)
	checked := 0
	for _, d := range b.Doors() {
		if !d.OneWay {
			continue
		}
		ref := idx.Current().topo.doorRefs[d.ID]
		if ref == nil {
			t.Fatalf("door %d has no ref", d.ID)
		}
		intoRoom := idx.Current().Unit(ref.U1)
		other := idx.Current().Unit(ref.U2)
		if intoRoom.Part != d.To {
			intoRoom, other = other, intoRoom
		}
		if !ref.CanEnter(intoRoom) {
			t.Error("one-way door must permit entry into its To partition")
		}
		if ref.CanEnter(other) {
			t.Error("one-way door must block entry into its From partition")
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no one-way doors checked")
	}
}

func TestStaircaseUnits(t *testing.T) {
	b := mall(t, 2)
	idx := buildIdx(t, b, nil)
	stairs := 0
	for _, u := range idx.Current().topo.units {
		if u.FloorHi <= u.FloorLo {
			continue
		}
		stairs++
		if u.FloorHi != u.FloorLo+1 {
			t.Errorf("stair unit spans [%d,%d]", u.FloorLo, u.FloorHi)
		}
		if len(u.Doors) != 2 {
			t.Errorf("stair unit has %d doors, want 2 entrances", len(u.Doors))
		}
		// Cross-floor walking distance includes the run length.
		a := indoor.Position{Pt: u.Rect.Center(), Floor: u.FloorLo}
		c := indoor.Position{Pt: u.Rect.Center(), Floor: u.FloorHi}
		if d := u.WalkDist(a, c); d < 2*b.FloorHeight-1e-9 {
			t.Errorf("stair walk dist %g < run length", d)
		}
	}
	if stairs != 4 {
		t.Errorf("stair units = %d, want 4", stairs)
	}
}

func TestObjectLayer(t *testing.T) {
	b := mall(t, 2)
	objs := gen.Objects(b, gen.ObjectSpec{N: 200, Radius: 10, Seed: 3})
	idx := buildIdx(t, b, objs)

	multi := 0
	for _, o := range objs {
		units := idx.Current().ObjectUnits(o.ID)
		if len(units) == 0 {
			t.Fatalf("object %d has no units", o.ID)
		}
		if len(units) > 1 {
			multi++
		}
		// Inverse mapping: the object appears in each listed bucket.
		for _, uid := range units {
			found := false
			for _, oid := range idx.Current().BucketObjectsView(uid) {
				if oid == o.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("object %d missing from bucket %d", o.ID, uid)
			}
		}
		// Every instance is inside one of the listed units.
		for _, in := range o.Instances {
			ok := false
			for _, uid := range units {
				if idx.Current().Unit(uid).Contains(in.Pos) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("object %d instance %v outside its units", o.ID, in.Pos)
			}
		}
	}
	if multi == 0 {
		t.Error("with r=10 some objects must straddle multiple units (multi-partition case)")
	}
}

func TestInsertDeleteObject(t *testing.T) {
	b := mall(t, 1)
	idx := buildIdx(t, b, nil)
	o := object.PointObject(1, gen.QueryPoints(b, 1, 5)[0])
	if err := idx.InsertObject(o); err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertObject(o); err == nil {
		t.Error("double insert must error")
	}
	if len(idx.Current().ObjectUnits(1)) != 1 {
		t.Error("point object must occupy one unit")
	}
	if err := idx.DeleteObject(1); err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteObject(1); err == nil {
		t.Error("double delete must error")
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateAndMoveObject(t *testing.T) {
	b := mall(t, 1)
	qs := gen.QueryPoints(b, 4, 6)
	idx := buildIdx(t, b, nil)
	o := object.PointObject(1, qs[0])
	if err := idx.InsertObject(o); err != nil {
		t.Fatal(err)
	}
	// Full update to a far location.
	o2 := object.PointObject(1, qs[1])
	if err := idx.UpdateObject(o2); err != nil {
		t.Fatal(err)
	}
	u := idx.Current().LocateUnit(qs[1])
	if got := idx.Current().ObjectUnits(1); len(got) != 1 || got[0] != u.ID {
		t.Errorf("o-table after update = %v, want [%d]", got, u.ID)
	}
	// Adjacency-accelerated move to a nearby point in the same unit.
	nearSame := indoor.Position{Pt: qs[1].Pt, Floor: qs[1].Floor}
	o3 := object.PointObject(1, nearSame)
	if err := idx.MoveObject(o3); err != nil {
		t.Fatal(err)
	}
	if got := idx.Current().ObjectUnits(1); len(got) != 1 || got[0] != u.ID {
		t.Errorf("o-table after move = %v", got)
	}
	// Move with fallback: far jump still lands correctly.
	o4 := object.PointObject(1, qs[2])
	if err := idx.MoveObject(o4); err != nil {
		t.Fatal(err)
	}
	u4 := idx.Current().LocateUnit(qs[2])
	if got := idx.Current().ObjectUnits(1); len(got) != 1 || got[0] != u4.ID {
		t.Errorf("o-table after far move = %v, want [%d]", got, u4.ID)
	}
	if err := idx.MoveObject(object.PointObject(99, qs[3])); err == nil {
		t.Error("moving an unknown object must error")
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRemovePartitionDynamic(t *testing.T) {
	b := mall(t, 1)
	idx := buildIdx(t, b, nil)
	before := idx.Current().NumUnits()

	// Insert a kiosk room inside nothing (isolated partition) then connect
	// it to a corridor with a door.
	kiosk := b.AddRoom(0, geom.R(250, 56, 260, 64)) // inside corridor band 0? That region is corridor; pick free space instead.
	_ = kiosk
	// The corridor band 0 occupies y in [55,65]; placing a kiosk inside an
	// existing corridor would overlap, which the model tolerates but the
	// test avoids: remove it and use open space out of partitions — there
	// is none in the mall, so instead split an existing room.
	b.RemovePartition(kiosk.ID)

	// Remove a room via the index.
	var room *indoor.Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room {
			room = p
			break
		}
	}
	doorCount := len(room.Doors)
	if doorCount == 0 {
		t.Fatal("mall room must have a door")
	}
	if _, err := idx.Apply(Mutation{Kind: MutRemovePartition, PartID: room.ID}); err != nil {
		t.Fatal(err)
	}
	if idx.Current().NumUnits() != before-1 {
		t.Errorf("units = %d, want %d", idx.Current().NumUnits(), before-1)
	}
	if b.Partition(room.ID) != nil {
		t.Error("partition must be gone from the building")
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Re-add a room in the freed space.
	added, err := idx.Apply(Mutation{Kind: MutAddPartition, PartID: indoor.NoPartition,
		Part: &indoor.Partition{Kind: indoor.Room, Shape: geom.RectPoly(room.Bounds())}})
	if err != nil {
		t.Fatal(err)
	}
	r2 := b.Partition(added.PartID)
	if idx.Current().NumUnits() != before {
		t.Errorf("units = %d after re-add, want %d", idx.Current().NumUnits(), before)
	}
	// Connect it back to its corridor and attach the door.
	c := idx.Current().LocateUnit(indoor.Pos(r2.Bounds().Center().X, r2.Bounds().MaxY+1, 0))
	if c == nil {
		t.Fatal("no corridor above the re-added room")
	}
	door := Mutation{Kind: MutAttachDoor, DoorID: -1, Door: &indoor.Door{
		Pos: geom.Pt(r2.Bounds().Center().X, r2.Bounds().MaxY), P1: r2.ID, P2: c.Part}}
	attached, err := idx.Apply(door)
	if err != nil {
		t.Fatal(err)
	}
	door.DoorID = attached.DoorID
	if _, err := idx.Apply(door); err == nil {
		t.Error("double attach must error")
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMergeThroughIndex(t *testing.T) {
	b := mall(t, 1)
	objs := gen.Objects(b, gen.ObjectSpec{N: 100, Radius: 5, Seed: 4})
	idx := buildIdx(t, b, objs)

	var room *indoor.Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room {
			room = p
			break
		}
	}
	mid := room.Bounds().Center().X
	split, err := idx.Apply(Mutation{Kind: MutSplit, PartID: room.ID, AlongX: true, At: mid})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatalf("after split: %v", err)
	}
	m, err := idx.Apply(Mutation{Kind: MutMerge, PartID: split.ResultA, PartID2: split.ResultB})
	if err != nil {
		t.Fatal(err)
	}
	merged := m.ResultA
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatalf("after merge: %v", err)
	}
	if b.Partition(merged) == nil {
		t.Fatal("merged partition missing")
	}
	// Objects relocated: every object still has every instance covered.
	for _, o := range objs {
		units := idx.Current().ObjectUnits(o.ID)
		for _, in := range o.Instances {
			ok := false
			for _, uid := range units {
				if u := idx.Current().Unit(uid); u != nil && u.Contains(in.Pos) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("object %d instance %v lost after split+merge", o.ID, in.Pos)
			}
		}
	}
}

func TestSplitFailureRestoresIndex(t *testing.T) {
	b := mall(t, 1)
	idx := buildIdx(t, b, nil)
	var room *indoor.Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room {
			room = p
			break
		}
	}
	before := idx.Current().NumUnits()
	// Split line outside the room: must fail and restore.
	if m, err := idx.Apply(Mutation{Kind: MutSplit, PartID: room.ID, AlongX: true, At: -1000}); err == nil {
		t.Fatal("expected split failure")
	} else if m.ResultA != indoor.NoPartition || m.ResultB != indoor.NoPartition {
		t.Errorf("refused split reported results (%d,%d)", m.ResultA, m.ResultB)
	}
	if idx.Current().NumUnits() != before {
		t.Errorf("units = %d after failed split, want %d", idx.Current().NumUnits(), before)
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TopoDelta names exactly the units a commit changed: nothing for an
// object batch, the door's two sides for a toggle, the partition's old
// and new units plus the neighbours whose door lists changed for a split,
// and a wholesale change when the skeleton is rebuilt.
func TestTopoDelta(t *testing.T) {
	b := mall(t, 1)
	objs := gen.Objects(b, gen.ObjectSpec{N: 50, Radius: 5, Seed: 4})
	idx := buildIdx(t, b, objs)

	prev := idx.Current()
	if err := idx.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateMove, Object: objs[0]}}); err != nil {
		t.Fatal(err)
	}
	if changed, all := idx.Current().TopoDelta(prev); changed != nil || all {
		t.Fatalf("object batch: changed %v all %v", changed, all)
	}

	var door *indoor.Door
	for _, d := range b.Doors() {
		if d.P2 != indoor.NoPartition {
			door = d
			break
		}
	}
	ref := prev.topo.doorRefs[door.ID]
	prev = idx.Current()
	if _, err := idx.Apply(Mutation{Kind: MutSetDoorClosed, DoorID: door.ID, Closed: true}); err != nil {
		t.Fatal(err)
	}
	changed, all := idx.Current().TopoDelta(prev)
	want := []UnitID{min(ref.U1, ref.U2), max(ref.U1, ref.U2)}
	if all || len(changed) != 2 || changed[0] != want[0] || changed[1] != want[1] {
		t.Fatalf("door toggle: changed %v all %v, want %v", changed, all, want)
	}

	var room *indoor.Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room {
			room = p
			break
		}
	}
	prev = idx.Current()
	oldUnits := prev.UnitsOf(room.ID)
	split, err := idx.Apply(Mutation{Kind: MutSplit, PartID: room.ID, AlongX: true, At: room.Bounds().Center().X})
	if err != nil {
		t.Fatal(err)
	}
	cur := idx.Current()
	changed, all = cur.TopoDelta(prev)
	in := make(map[UnitID]bool, len(changed))
	for _, u := range changed {
		in[u] = true
	}
	for _, u := range append(append(oldUnits, cur.UnitsOf(split.ResultA)...), cur.UnitsOf(split.ResultB)...) {
		if !in[u] {
			t.Fatalf("split: unit %d missing from changed %v", u, changed)
		}
	}
	if all || len(changed) >= cur.NumUnits() {
		t.Fatalf("split: changed %d of %d units, all %v", len(changed), cur.NumUnits(), all)
	}
	for _, u := range changed {
		if _, ok := cur.UnitBox(u); !ok {
			if _, ok := prev.UnitBox(u); !ok {
				t.Fatalf("changed unit %d has no box in either snapshot", u)
			}
		}
	}

	prev = idx.Current()
	if _, err := idx.Apply(Mutation{Kind: MutRebuildSkeleton}); err != nil {
		t.Fatal(err)
	}
	if _, all := idx.Current().TopoDelta(prev); !all {
		t.Fatal("skeleton rebuild must change every unit")
	}
}

// TestEpochTreeSharedAndRepacked pins the tree tier's life cycle: door
// toggles, attaches and detaches publish a successor that shares the
// predecessor's tree pointer, and partition adds, removes, splits and
// merges publish a tree equal to a fresh pack of the live units in id
// order. A snapshot pinned before any edit keeps locating every point as
// it did.
func TestEpochTreeSharedAndRepacked(t *testing.T) {
	b := mall(t, 2)
	objs := gen.Objects(b, gen.ObjectSpec{N: 100, Radius: 5, Seed: 9})
	idx := buildIdx(t, b, objs)

	var room *indoor.Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room && len(p.Doors) > 0 {
			room = p
			break
		}
	}
	door := *b.Door(room.Doors[0])
	shape := geom.RectPoly(room.Bounds())
	mid := room.Bounds().Center().X

	type probe struct {
		pos  indoor.Position
		unit *Unit
	}
	var pinned []*Snapshot
	var probes [][]probe
	step := func(name string, structural bool, m Mutation) Mutation {
		t.Helper()
		prev := idx.Current()
		var ps []probe
		for _, u := range prev.topo.units {
			if u != nil {
				pos := indoor.Position{Pt: u.Rect.Center(), Floor: u.FloorLo}
				ps = append(ps, probe{pos, prev.LocateUnit(pos)})
			}
		}
		pinned, probes = append(pinned, prev), append(probes, ps)

		got, err := idx.Apply(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cur := idx.Current()
		if err := cur.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if structural {
			if cur.topo.tree == prev.topo.tree {
				t.Fatalf("%s: structural commit kept the predecessor's tree", name)
			}
			if want := cur.topo.packTree(b, idx.Options().Fanout); !reflect.DeepEqual(cur.topo.tree, want) {
				t.Fatalf("%s: tree differs from a fresh pack of the live units", name)
			}
		} else if cur.topo.tree != prev.topo.tree {
			t.Fatalf("%s: non-structural commit replaced the tree", name)
		}
		for i, s := range pinned {
			for _, p := range probes[i] {
				if u := s.LocateUnit(p.pos); u != p.unit {
					t.Fatalf("%s: snapshot pinned before step %d now locates %v in unit %v, was %v",
						name, i, p.pos, u, p.unit)
				}
			}
		}
		return got
	}

	step("close", false, Mutation{Kind: MutSetDoorClosed, DoorID: door.ID, Closed: true})
	step("open", false, Mutation{Kind: MutSetDoorClosed, DoorID: door.ID, Closed: false})
	step("detach", false, Mutation{Kind: MutDetachDoor, DoorID: door.ID})
	step("attach", false, Mutation{Kind: MutAttachDoor, DoorID: door.ID, Door: &door})
	split := step("split", true, Mutation{Kind: MutSplit, PartID: room.ID, AlongX: true, At: mid})
	merged := step("merge", true, Mutation{Kind: MutMerge, PartID: split.ResultA, PartID2: split.ResultB})
	step("remove", true, Mutation{Kind: MutRemovePartition, PartID: merged.ResultA})
	step("add", true, Mutation{Kind: MutAddPartition, PartID: indoor.NoPartition,
		Part: &indoor.Partition{Kind: indoor.Room, Floor: room.Floor, Shape: shape}})
}
