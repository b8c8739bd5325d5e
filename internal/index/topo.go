package index

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/rtree"
)

// clone deep-copies the topological layer for a copy-on-write edit: fresh
// Unit structs, fresh DoorRefs (identity-mapped, so a ref shared by two
// units stays one ref) and fresh maps. The tree and the skeleton are
// shared: both are immutable, and the structural edits that change them
// replace them (a re-pack, a skeleton rebuild). The door graph is left for
// freeze to compile. The clone's epoch is the base's plus one — exactly
// one advance per topology mutation.
func (t *topoLayer) clone() *topoLayer {
	nt := &topoLayer{
		units:          make([]*Unit, len(t.units)),
		numUnits:       t.numUnits,
		nextUnit:       t.nextUnit,
		tree:           t.tree,
		hTable:         make(map[UnitID]indoor.PartitionID, len(t.hTable)),
		partUnits:      make(map[indoor.PartitionID][]UnitID, len(t.partUnits)),
		doorRefs:       make(map[indoor.DoorID]*DoorRef, len(t.doorRefs)),
		virtualRefs:    make(map[indoor.PartitionID][]*DoorRef, len(t.virtualRefs)),
		nextDoorSerial: t.nextDoorSerial,
		skeleton:       t.skeleton,
		epoch:          t.epoch + 1,
	}
	refMap := make(map[*DoorRef]*DoorRef, len(t.doorRefs))
	cloneRef := func(r *DoorRef) *DoorRef {
		c, ok := refMap[r]
		if !ok {
			c = &DoorRef{}
			*c = *r
			refMap[r] = c
		}
		return c
	}
	for id, u := range t.units {
		if u == nil {
			continue
		}
		nu := &Unit{}
		*nu = *u
		nu.Doors = make([]*DoorRef, len(u.Doors))
		for i, r := range u.Doors {
			nu.Doors[i] = cloneRef(r)
		}
		nt.units[id] = nu
	}
	for k, v := range t.hTable {
		nt.hTable[k] = v
	}
	for k, v := range t.partUnits {
		nt.partUnits[k] = append([]UnitID(nil), v...)
	}
	for k, v := range t.doorRefs {
		nt.doorRefs[k] = cloneRef(v)
	}
	for k, v := range t.virtualRefs {
		rs := make([]*DoorRef, len(v))
		for i, r := range v {
			rs[i] = cloneRef(r)
		}
		nt.virtualRefs[k] = rs
	}
	return nt
}

// rebakeDoors refreshes every real door reference's baked enterability
// from the live building's door state. Freeze calls it on edited layers,
// so whatever door flags the mutation changed are captured exactly once,
// at publication. Virtual refs are always enterable and never rebaked.
func (t *topoLayer) rebakeDoors() {
	for _, r := range t.doorRefs {
		p1 := t.hTable[r.U1]
		p2 := indoor.NoPartition
		if r.U2 != NoUnit {
			p2 = t.hTable[r.U2]
		}
		r.bake(p1, p2)
	}
}

// makeUnits decomposes a partition into units and registers them; the
// caller re-packs the tree.
func (t *topoLayer) makeUnits(p *indoor.Partition, opts Options) {
	var rects []geom.Rect
	if p.Kind == indoor.Staircase {
		// Staircases stay whole: their geometry is the footprint and their
		// distance semantics are the stair run.
		rects = []geom.Rect{p.Bounds()}
	} else {
		rects = indoor.Decompose(p.Shape, opts.Tshape)
	}
	lo, hi := p.FloorSpan()
	for _, r := range rects {
		u := &Unit{
			ID: t.nextUnit, Part: p.ID, Rect: r,
			FloorLo: lo, FloorHi: hi,
			stairLen: p.StairLength,
		}
		t.nextUnit++
		t.units = append(t.units, u)
		t.numUnits++
		t.hTable[u.ID] = p.ID
		t.partUnits[p.ID] = append(t.partUnits[p.ID], u.ID)
	}
}

// packTree packs the tree tier over the layer's live units in id order.
func (t *topoLayer) packTree(b *indoor.Building, fanout int) *rtree.Tree {
	entries := make([]rtree.Entry, 0, t.numUnits)
	for _, u := range t.units {
		if u != nil {
			entries = append(entries, rtree.Entry{Box: unitBox(b, u), ID: int(u.ID)})
		}
	}
	return rtree.Bulk(fanout, entries)
}

// linkSiblingUnits creates virtual doors between touching units of one
// partition.
func (t *topoLayer) linkSiblingUnits(pid indoor.PartitionID) {
	ids := t.partUnits[pid]
	if len(ids) < 2 {
		return
	}
	rects := make([]geom.Rect, len(ids))
	for i, id := range ids {
		rects[i] = t.units[id].Rect
	}
	floor := t.units[ids[0]].FloorLo
	for _, l := range indoor.UnitAdjacency(rects) {
		ua, ub := t.units[ids[l.I]], t.units[ids[l.J]]
		ref := &DoorRef{
			Pos: l.Mid, Floor: floor, U1: ua.ID, U2: ub.ID,
			serial: t.nextDoorSerial, enter1: true, enter2: true,
		}
		t.nextDoorSerial++
		ua.Doors = append(ua.Doors, ref)
		ub.Doors = append(ub.Doors, ref)
		t.virtualRefs[pid] = append(t.virtualRefs[pid], ref)
	}
}

// attachDoor creates the reference for a real door, resolving the index
// unit on each side by position and baking its enterability.
func (t *topoLayer) attachDoor(d *indoor.Door) error {
	u1, err := t.unitForDoor(d, d.P1)
	if err != nil {
		return err
	}
	u2 := NoUnit
	p2 := indoor.NoPartition
	if d.P2 != indoor.NoPartition {
		u, err := t.unitForDoor(d, d.P2)
		if err != nil {
			return err
		}
		u2, p2 = u.ID, u.Part
	}
	ref := &DoorRef{Pos: d.Pos, Floor: d.Floor, Real: d, U1: u1.ID, U2: u2, serial: t.nextDoorSerial}
	ref.bake(u1.Part, p2)
	t.nextDoorSerial++
	u1.Doors = append(u1.Doors, ref)
	if u2 != NoUnit {
		t.units[u2].Doors = append(t.units[u2].Doors, ref)
	}
	t.doorRefs[d.ID] = ref
	return nil
}

// unitForDoor finds the unit of partition pid whose rectangle touches the
// door position; the smallest UnitID wins for determinism.
func (t *topoLayer) unitForDoor(d *indoor.Door, pid indoor.PartitionID) (*Unit, error) {
	var best *Unit
	for _, uid := range t.partUnits[pid] {
		u := t.units[uid]
		if u.Rect.Contains(d.Pos) && (best == nil || u.ID < best.ID) {
			best = u
		}
	}
	if best == nil {
		return nil, fmt.Errorf("index: door %d at %v touches no unit of partition %d",
			d.ID, d.Pos, pid)
	}
	return best, nil
}

// detachDoor removes a door reference from the topological layer.
func (t *topoLayer) detachDoor(did indoor.DoorID) {
	ref := t.doorRefs[did]
	if ref == nil {
		return
	}
	for _, uid := range []UnitID{ref.U1, ref.U2} {
		if uid == NoUnit {
			continue
		}
		if u := t.unitAt(uid); u != nil {
			for i, dr := range u.Doors {
				if dr == ref {
					u.Doors = append(u.Doors[:i], u.Doors[i+1:]...)
					break
				}
			}
		}
	}
	delete(t.doorRefs, did)
}

// TopoDelta diffs the snapshot's topological layer against prev's and
// returns the units a topology commit changed: a unit present in only one
// of the layers, or present in both with a different rectangle, floor
// span, stair length, partition, or door list (serials, positions, sides
// and baked enterability, in order). all reports a skeleton change, which
// moves the Equation 10 bound everywhere, so callers must treat every
// unit as changed. The diff is kind-agnostic and costs O(units).
func (s *Snapshot) TopoDelta(prev *Snapshot) (changed []UnitID, all bool) {
	a, b := prev.topo, s.topo
	if a == b {
		return nil, false
	}
	if a.skeleton != b.skeleton {
		return nil, true
	}
	for id := 0; id < max(len(a.units), len(b.units)); id++ {
		if !sameUnit(a.unitAt(UnitID(id)), b.unitAt(UnitID(id))) {
			changed = append(changed, UnitID(id))
		}
	}
	return changed, false
}

// sameUnit reports whether two versions of a unit are topologically
// identical (both absent counts as identical).
func sameUnit(x, y *Unit) bool {
	if x == nil || y == nil {
		return x == y
	}
	if x.Part != y.Part || x.Rect != y.Rect || x.FloorLo != y.FloorLo ||
		x.FloorHi != y.FloorHi || x.stairLen != y.stairLen || len(x.Doors) != len(y.Doors) {
		return false
	}
	for i, d := range x.Doors {
		e := y.Doors[i]
		if d.serial != e.serial || d.Pos != e.Pos || d.Floor != e.Floor ||
			d.U1 != e.U1 || d.U2 != e.U2 || d.enter1 != e.enter1 || d.enter2 != e.enter2 {
			return false
		}
	}
	return true
}

// UnitBox returns the tree-tier box of a unit, reporting false for an
// absent unit.
func (s *Snapshot) UnitBox(id UnitID) (geom.Rect3, bool) {
	u := s.topo.unitAt(id)
	if u == nil {
		return geom.Rect3{}, false
	}
	return unitBox(s.b, u), true
}
