package index

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/pvec"
	"repro/internal/rtree"
)

// Snapshot is one immutable version of the composite index: the geometric
// and topological layers (index units, the indR-tree tier, door
// references, the skeleton tier and the compiled door-graph tier) plus the
// object layer (persistent object store, o-table/subregion records and
// per-unit buckets). Snapshots are published through the Index's atomic
// head pointer; readers pin one with Index.Current and then use it with no
// locking for as long as they like — a snapshot never changes after
// publication, mutators only build and publish successors.
//
// Versions share structure: an object update reuses the whole topology
// (units, tree, doors graph, skeleton) and copies only the object-layer
// chunks it touches; a topology update clones the topological layer but
// reuses the persistent object store's untouched storage.
type Snapshot struct {
	b    *indoor.Building
	opts Options
	topo *topoLayer
	objs *objLayer
	seq  uint64
	lsn  uint64
}

// topoLayer is the geometric + topological state of one snapshot. It is
// immutable once the snapshot is published; topology mutations deep-clone
// it (the editor), so every DoorRef and Unit reachable from a published
// snapshot is frozen — including the baked enterability flags that replace
// query-time reads of the live building's door state.
type topoLayer struct {
	// units is indexed by UnitID (ids are dense and never reused; removed
	// units leave nil holes), so the query hot path resolves units without
	// map hashing. numUnits counts the live entries.
	units    []*Unit
	numUnits int
	nextUnit UnitID
	tree     *rtree.Tree

	// hTable maps index units to their indoor partition; partUnits is the
	// reverse (§III-A.2).
	hTable    map[UnitID]indoor.PartitionID
	partUnits map[indoor.PartitionID][]UnitID

	// doorRefs maps real doors to their references; virtualRefs stores the
	// decomposition-internal links per partition.
	doorRefs    map[indoor.DoorID]*DoorRef
	virtualRefs map[indoor.PartitionID][]*DoorRef

	nextDoorSerial int32

	skeleton *Skeleton

	// epoch advances once per topology mutation; graph is the door-graph
	// tier compiled for exactly this topology (snapshot identity replaces
	// the old lazy epoch-invalidation protocol).
	epoch uint64
	graph *DoorGraph
}

// objEntry is one object's index record, stored by store slot: the o-table
// row (units the instances occupy) and the cached subregion split (§II-B).
type objEntry struct {
	units []UnitID
	subs  []Subregion
}

// objLayer is the object-layer state of one snapshot: the persistent
// store, the per-slot records and the per-unit buckets (ascending id
// slices, iterated by queries without allocating).
type objLayer struct {
	store   *object.Store
	table   pvec.Vec[*objEntry] // pointer entries keep COW chunk copies word-sized
	buckets pvec.Vec[[]object.ID]
}

// Seq returns the snapshot's publication sequence number (1 is the freshly
// built index; every mutation publishes the next).
func (s *Snapshot) Seq() uint64 { return s.seq }

// LSN returns the WAL LSN of the mutation that published this snapshot —
// the correlation between the MVCC timeline (Seq) and the durability
// timeline historical AsOf reads address. Zero on an ephemeral index (no
// commit hook installed) and on the freshly built snapshot.
func (s *Snapshot) LSN() uint64 { return s.lsn }

// Building returns the indexed building. The building is owned by the
// writer side: its partition and door structure may change after this
// snapshot was taken, so treat it as configuration (floor height,
// elevations) unless you hold the Index's read lock.
func (s *Snapshot) Building() *indoor.Building { return s.b }

// Objects returns the snapshot's persistent object store.
func (s *Snapshot) Objects() *object.Store { return s.objs.store }

// Skeleton returns the skeleton tier.
func (s *Snapshot) Skeleton() *Skeleton { return s.topo.skeleton }

// TopoEpoch returns the topology epoch the snapshot's door-graph tier was
// compiled at. It advances on every mutation that can change the doors
// graph (partition insertion or removal, door attach/detach, door closure,
// split/merge).
func (s *Snapshot) TopoEpoch() uint64 { return s.topo.epoch }

// DoorGraph returns the compiled door-graph tier. Snapshots compile the
// graph at publication, so this is a plain field read.
func (s *Snapshot) DoorGraph() *DoorGraph { return s.topo.graph }

// Unit returns the unit with the given id, or nil.
func (s *Snapshot) Unit(id UnitID) *Unit { return s.topo.unitAt(id) }

// unitAt resolves a UnitID against the dense unit slice (nil for removed
// or out-of-range ids).
func (t *topoLayer) unitAt(id UnitID) *Unit {
	if id < 0 || int(id) >= len(t.units) {
		return nil
	}
	return t.units[id]
}

// NumUnits returns the number of index units.
func (s *Snapshot) NumUnits() int { return s.topo.numUnits }

// PartitionOf implements the h-table lookup.
func (s *Snapshot) PartitionOf(u UnitID) indoor.PartitionID { return s.topo.hTable[u] }

// UnitsOf returns the index units of a partition, ascending.
func (s *Snapshot) UnitsOf(pid indoor.PartitionID) []UnitID {
	ids := append([]UnitID(nil), s.topo.partUnits[pid]...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// entryOf returns an object's record, or the zero record for unknown ids.
func (s *Snapshot) entryOf(id object.ID) objEntry {
	slot := s.objs.store.SlotOf(id)
	if slot < 0 || int(slot) >= s.objs.table.Len() {
		return objEntry{}
	}
	e := s.objs.table.At(int(slot))
	if e == nil {
		return objEntry{}
	}
	return *e
}

// ObjectUnits implements the o-table lookup: the units an object's
// instances occupy. The slice is a copy.
func (s *Snapshot) ObjectUnits(id object.ID) []UnitID {
	return append([]UnitID(nil), s.entryOf(id).units...)
}

// ObjectUnitsView is ObjectUnits without the copy. The slice is owned by
// the snapshot and must not be modified.
func (s *Snapshot) ObjectUnitsView(id object.ID) []UnitID {
	return s.entryOf(id).units
}

// BucketObjects returns a copy of the ids in a unit's object bucket,
// ascending.
func (s *Snapshot) BucketObjects(u UnitID) []object.ID {
	return append([]object.ID(nil), s.BucketObjectsView(u)...)
}

// BucketObjectsView returns the ids in a unit's object bucket, ascending.
// The slice is owned by the snapshot and must not be modified; the query
// hot path uses this accessor to iterate buckets without copying.
func (s *Snapshot) BucketObjectsView(u UnitID) []object.ID {
	if u < 0 || int(u) >= s.objs.buckets.Len() {
		return nil
	}
	return s.objs.buckets.At(int(u))
}

// LocateUnit finds the index unit containing pos through the tree tier
// (point-location; the r = 0 degenerate range query of §III-B). Ties on
// shared boundaries resolve to the smallest UnitID.
func (s *Snapshot) LocateUnit(pos indoor.Position) *Unit {
	return s.topo.locateUnit(s.b, pos)
}

// locateUnit is the shared point-location over one topological layer:
// snapshots locate through their frozen layer, the editor through its
// (possibly mid-mutation) clone — one implementation, so the tie-break
// and probe geometry can never diverge between the two sides.
func (t *topoLayer) locateUnit(b *indoor.Building, pos indoor.Position) *Unit {
	z := b.Elevation(pos.Floor) + zSliver/2
	probe := geom.R3(geom.Rect{
		MinX: pos.Pt.X, MinY: pos.Pt.Y, MaxX: pos.Pt.X, MaxY: pos.Pt.Y,
	}, z-zSliver, z+zSliver)
	var best *Unit
	t.tree.Search(
		func(box geom.Rect3) bool { return box.Intersects3(probe) },
		func(id int, _ geom.Rect3) {
			u := t.unitAt(UnitID(id))
			if u != nil && u.Contains(pos) && (best == nil || u.ID < best.ID) {
				best = u
			}
		},
	)
	return best
}

// LocatePartition returns the partition containing pos via the tree tier,
// or indoor.NoPartition.
func (s *Snapshot) LocatePartition(pos indoor.Position) indoor.PartitionID {
	if u := s.LocateUnit(pos); u != nil {
		return u.Part
	}
	return indoor.NoPartition
}

// SearchTree walks the tree tier, descending into boxes accepted by descend
// and emitting accepted leaf units. It is the raw traversal behind
// Algorithm 4.
func (s *Snapshot) SearchTree(descend func(geom.Rect3) bool, emit func(*Unit)) {
	s.topo.tree.Search(descend, func(id int, _ geom.Rect3) {
		if u := s.topo.unitAt(UnitID(id)); u != nil {
			emit(u)
		}
	})
}

// FloorsOfBox recovers the floor interval covered by a tree-tier box.
func (s *Snapshot) FloorsOfBox(b geom.Rect3) (lo, hi int) {
	h := s.b.FloorHeight
	lo = int((b.MinZ + zSliver/2) / h)
	hi = int((b.MaxZ - zSliver/2) / h)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// CheckInvariants validates cross-layer consistency for tests: h-table and
// partUnits are inverse, o-table records and buckets are inverse, every
// door ref is attached to the units it names, and every unit's box is in
// the tree. Snapshots are immutable, so it needs no locking.
func (s *Snapshot) CheckInvariants() error {
	t := s.topo
	for uid, pid := range t.hTable {
		found := false
		for _, u := range t.partUnits[pid] {
			if u == uid {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("index: h-table names unit %d under partition %d but partUnits disagrees", uid, pid)
		}
	}
	for pid, list := range t.partUnits {
		for _, uid := range list {
			if t.hTable[uid] != pid {
				return fmt.Errorf("index: partUnits[%d] lists unit %d with h-table %d", pid, uid, t.hTable[uid])
			}
			if t.unitAt(uid) == nil {
				return fmt.Errorf("index: partUnits[%d] lists missing unit %d", pid, uid)
			}
		}
	}
	for _, oid := range s.objs.store.IDs() {
		e := s.entryOf(oid)
		for _, uid := range e.units {
			if !bucketHas(s.BucketObjectsView(uid), oid) {
				return fmt.Errorf("index: o-table says object %d in unit %d but bucket disagrees", oid, uid)
			}
		}
		if len(e.subs) != len(e.units) {
			return fmt.Errorf("index: object %d has %d subregions but %d o-table units", oid, len(e.subs), len(e.units))
		}
		for i, sub := range e.subs {
			if sub.Unit != e.units[i] {
				return fmt.Errorf("index: object %d subregion %d unit mismatch", oid, i)
			}
			if t.unitAt(sub.Unit) == nil {
				return fmt.Errorf("index: object %d subregion references dead unit %d", oid, sub.Unit)
			}
		}
	}
	for uid := 0; uid < s.objs.buckets.Len(); uid++ {
		bucket := s.objs.buckets.At(uid)
		if !sort.SliceIsSorted(bucket, func(i, j int) bool { return bucket[i] < bucket[j] }) {
			return fmt.Errorf("index: bucket %d is not sorted", uid)
		}
		for _, oid := range bucket {
			found := false
			for _, u := range s.entryOf(oid).units {
				if u == UnitID(uid) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("index: bucket %d holds object %d missing from o-table", uid, oid)
			}
		}
	}
	for _, u := range t.units {
		if u == nil {
			continue
		}
		for _, d := range u.Doors {
			if d.U1 != u.ID && d.U2 != u.ID {
				return fmt.Errorf("index: unit %d lists foreign door ref", u.ID)
			}
		}
	}
	count := 0
	t.tree.Search(
		func(geom.Rect3) bool { return true },
		func(id int, _ geom.Rect3) {
			if t.unitAt(UnitID(id)) != nil {
				count++
			}
		},
	)
	if count != t.numUnits {
		return fmt.Errorf("index: tree holds %d live units, registry has %d", count, t.numUnits)
	}
	return nil
}
