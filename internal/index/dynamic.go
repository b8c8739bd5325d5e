package index

import (
	"fmt"
	"sort"

	"repro/internal/indoor"
	"repro/internal/object"
)

// Every public mutator follows the same MVCC protocol: take the writer
// mutex, open a copy-on-write editor over the current snapshot, apply the
// §III-C maintenance algorithm to the edit, and publish the successor
// snapshot — or, on any validation error, drop the editor and leave both
// the published snapshot and the building exactly as they were. Readers
// pinning snapshots are never blocked and never observe a half-applied
// mutation.

// InsertObject adds an object to the object layer (§III-C.2): its instances
// are located through the tree tier, the buckets of the overlapping units
// are extended, and the o-table gains the new entry.
func (idx *Index) InsertObject(o *object.Object) error {
	return idx.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateInsert, Object: o}})
}

func (ed *editor) insertObject(o *object.Object) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.ID >= 0 && ed.storeGet(o.ID) != nil {
		return fmt.Errorf("index: object %d already present", o.ID)
	}
	ed.storeMut().Put(o)
	ed.indexObject(o, ed.locateUnit)
	return nil
}

// indexObject (re)computes an object's subregion split with the given
// locator and installs it in the object layer, clearing any previous
// bucket entries.
func (ed *editor) indexObject(o *object.Object, locate func(indoor.Position) *Unit) {
	slot := ed.slotOf(o.ID)
	old := ed.entryAt(slot)
	for _, uid := range old.units {
		ed.bucketRemove(uid, o.ID)
	}
	subs := computeSubregions(o, locate)
	units := make([]UnitID, len(subs))
	for i, s := range subs {
		units[i] = s.Unit
	}
	ed.setEntry(slot, objEntry{units: units, subs: subs})
	for _, uid := range units {
		ed.bucketInsert(uid, o.ID)
	}
}

// DeleteObject removes an object via the o-table (§III-C.2).
func (idx *Index) DeleteObject(id object.ID) error {
	return idx.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateDelete, ID: id}})
}

func (ed *editor) deleteObject(id object.ID) error {
	slot := ed.slotOf(id)
	if slot < 0 {
		return fmt.Errorf("index: no object %d", id)
	}
	e := ed.entryAt(slot)
	for _, uid := range e.units {
		ed.bucketRemove(uid, id)
	}
	ed.setEntry(slot, objEntry{})
	ed.storeMut().Remove(id)
	return nil
}

// UpdateObject replaces an object's uncertainty information, implemented as
// deletion followed by insertion per §III-C.2. Both steps land in one
// published snapshot, so no reader observes the object half-removed.
func (idx *Index) UpdateObject(o *object.Object) error {
	return idx.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateReplace, Object: o}})
}

// MoveObject is the adjacency-accelerated update of §III-C.2: when location
// reporting is frequent, the new uncertainty region lies in the previous
// partition or its neighbours, so the units are found through the o-table
// and the topological links instead of the tree. It falls back to the tree
// for instances outside that neighbourhood.
func (idx *Index) MoveObject(o *object.Object) error {
	return idx.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateMove, Object: o}})
}

func (ed *editor) moveObject(o *object.Object) error {
	if err := o.Validate(); err != nil {
		return err
	}
	slot := ed.slotOf(o.ID)
	if slot < 0 {
		return fmt.Errorf("index: no object %d", o.ID)
	}
	t := ed.curTopo()
	// Candidate units: previous units, their partition siblings, and units
	// reachable through one door.
	cand := make(map[UnitID]*Unit)
	addUnit := func(uid UnitID) {
		if u := t.unitAt(uid); u != nil {
			cand[uid] = u
		}
	}
	for _, uid := range ed.entryAt(slot).units {
		u := t.unitAt(uid)
		if u == nil {
			continue
		}
		for _, sib := range t.partUnits[u.Part] {
			addUnit(sib)
		}
		for _, d := range u.Doors {
			if o2 := d.OtherUnit(uid); o2 != NoUnit {
				u2 := t.unitAt(o2)
				if u2 == nil {
					continue
				}
				for _, sib := range t.partUnits[u2.Part] {
					addUnit(sib)
				}
			}
		}
	}

	locate := func(pos indoor.Position) *Unit {
		var best *Unit
		for _, u := range cand {
			if u.Contains(pos) && (best == nil || u.ID < best.ID) {
				best = u
			}
		}
		if best != nil {
			return best
		}
		return ed.locateUnit(pos)
	}
	ed.storeMut().Put(o) // replace stored object, keeping its slot
	ed.indexObject(o, locate)
	return nil
}

// UpdateOp selects the mutation an ObjectUpdate applies.
type UpdateOp uint8

const (
	// UpdateMove is the adjacency-accelerated location update (MoveObject).
	UpdateMove UpdateOp = iota
	// UpdateInsert indexes a new object (InsertObject).
	UpdateInsert
	// UpdateDelete removes the object with ID (DeleteObject).
	UpdateDelete
	// UpdateReplace swaps an object's uncertainty information
	// (UpdateObject: delete followed by insert).
	UpdateReplace
)

// ObjectUpdate is one element of a coalesced object-layer batch.
type ObjectUpdate struct {
	Op     UpdateOp
	Object *object.Object // all ops except UpdateDelete
	ID     object.ID      // UpdateDelete only
}

// ApplyObjectUpdates applies a batch of object-layer mutations as ONE
// copy-on-write edit and publishes ONE successor snapshot: high-rate
// movement coalesces into a single swap instead of one per update, which
// both amortises the copy-on-write cost and hands concurrent readers a
// single consistent step. The batch is transactional — on the first error
// nothing is published and the index is unchanged.
func (idx *Index) ApplyObjectUpdates(ups []ObjectUpdate) error {
	_, err := idx.Apply(Mutation{Kind: MutObjects, Updates: ups})
	return err
}

func (ed *editor) applyObjects(ups []ObjectUpdate) error {
	for i, up := range ups {
		var err error
		switch up.Op {
		case UpdateMove:
			err = ed.moveObject(up.Object)
		case UpdateInsert:
			err = ed.insertObject(up.Object)
		case UpdateDelete:
			err = ed.deleteObject(up.ID)
		case UpdateReplace:
			if err = ed.deleteObject(up.Object.ID); err == nil {
				err = ed.insertObject(up.Object)
			}
		default:
			err = fmt.Errorf("unknown op %d", up.Op)
		}
		if err != nil {
			return fmt.Errorf("index: object update %d: %w", i, err)
		}
	}
	return nil
}

// Apply commits one mutation — an object batch or a §III-C.1 topology
// operation — in one writer-mutex section: validate, edit the index
// copy-on-write, run the commit hook, edit the building, publish. It
// returns the committed mutation with every id it allocated. A negative
// PartID (MutAddPartition) or DoorID (MutAttachDoor) allocates the next
// free id and a non-negative one is restored exactly, which is how log
// replay stays id-exact; MutSplit and MutMerge report the partitions they
// made in ResultA/ResultB, NoPartition when refused. A refused mutation
// publishes nothing and leaves the building as it was, except for the
// split/merge case CommitHook documents.
func (idx *Index) Apply(m Mutation) (Mutation, error) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	ed := idx.edit()
	switch m.Kind {
	case MutObjects:
		if err := ed.applyObjects(m.Updates); err != nil || len(m.Updates) == 0 {
			return m, err
		}
		return m, idx.commit(ed, m, nil)
	case MutSetDoorClosed:
		if idx.b.Door(m.DoorID) == nil {
			return m, fmt.Errorf("index: no door %d", m.DoorID)
		}
		// No structural maintenance, but enterability is baked into the
		// published layer, so the toggle republishes it with fresh flags;
		// pinned snapshots keep the closure state they were published with.
		ed.ownTopo()
		return m, idx.commit(ed, m, func() { _ = idx.b.SetDoorClosed(m.DoorID, m.Closed) })
	case MutAddPartition:
		return idx.addPartition(ed, m)
	case MutRemovePartition:
		// §III-C.1 deletion: the partition leaves with its doors, and the
		// objects bucketed in its units are re-located.
		p := idx.b.Partition(m.PartID)
		if p == nil {
			return m, fmt.Errorf("index: no partition %d", m.PartID)
		}
		ed.rebuildSkel = p.Kind == indoor.Staircase
		affected := ed.unindexPartitionKeepBuilding(m.PartID)
		return m, idx.commit(ed, m, func() {
			_ = idx.b.RemovePartition(m.PartID)
			ed.relocateObjects(affected)
		})
	case MutAttachDoor:
		return idx.attachDoor(ed, m)
	case MutDetachDoor:
		d := idx.b.Door(m.DoorID)
		if d == nil && ed.base.topo.doorRefs[m.DoorID] == nil {
			return m, nil // unknown door: nothing to detach
		}
		ed.rebuildSkel = d != nil && staircaseSide(idx.b, d) != indoor.NoPartition
		ed.ownTopo().detachDoor(m.DoorID)
		return m, idx.commit(ed, m, func() { idx.b.RemoveDoor(m.DoorID) })
	case MutSplit, MutMerge:
		return idx.slideWall(ed, m)
	case MutRebuildSkeleton:
		// Callers use this after out-of-band building edits, which are by
		// definition not in the log; the record only keeps replay aligned,
		// so a refused hook does not block the in-memory rebuild.
		ed.ownTopo()
		ed.rebuildSkel = true
		_ = idx.hook(m)
		idx.publish(ed.freeze())
		return m, nil
	}
	return m, fmt.Errorf("index: unknown mutation kind %d", m.Kind)
}

// commit runs the hook on the mutation as logged, then the building edit
// (nil when the mutation has none left to make), then publishes. A
// refused hook drops the index edit before the building changes.
func (idx *Index) commit(ed *editor, logged Mutation, building func()) error {
	if err := idx.hook(logged); err != nil {
		return err
	}
	if building != nil {
		building()
	}
	idx.publish(ed.freeze())
	return nil
}

// addPartition is §III-C.1 insertion: decomposition, sibling links, door
// attachment and h-table maintenance; the tree tier is re-packed before
// the edit next locates a point or at freeze. The building gains the
// partition only after the hook accepted it.
func (idx *Index) addPartition(ed *editor, m Mutation) (Mutation, error) {
	if m.Part == nil {
		return m, fmt.Errorf("index: add partition %d without its geometry", m.PartID)
	}
	spec := *m.Part
	spec.ID = m.PartID
	p, err := idx.b.PreparePartition(spec)
	if err != nil {
		return m, err
	}
	if err := ed.addPartition(p); err != nil {
		return m, err
	}
	logged := Mutation{Kind: MutAddPartition, PartID: p.ID, Part: p}
	if err := idx.commit(ed, logged, func() { idx.b.InsertPartition(p) }); err != nil {
		return m, err
	}
	m.PartID = p.ID
	return m, nil
}

func (ed *editor) addPartition(p *indoor.Partition) error {
	if len(ed.curTopo().partUnits[p.ID]) > 0 {
		return fmt.Errorf("index: partition %d already indexed", p.ID)
	}
	t := ed.ownTopo()
	t.makeUnits(p, ed.opts)
	t.tree = nil // stale until repack
	t.linkSiblingUnits(p.ID)
	for _, did := range p.Doors {
		d := ed.b.Door(did)
		if d == nil || t.doorRefs[did] != nil {
			continue
		}
		// Attach only when every side of the door is indexed.
		other := d.Other(p.ID)
		if other != indoor.NoPartition && len(t.partUnits[other]) == 0 {
			continue
		}
		if err := t.attachDoor(d); err != nil {
			return err
		}
	}
	if p.Kind == indoor.Staircase {
		ed.rebuildSkel = true
	}
	return nil
}

// attachDoor indexes a door, linking the units on its sides; a staircase
// entrance rebuilds the skeleton. The building gains the door only after
// the hook accepted it.
func (idx *Index) attachDoor(ed *editor, m Mutation) (Mutation, error) {
	if m.Door == nil {
		return m, fmt.Errorf("index: attach door %d without its spec", m.DoorID)
	}
	spec := *m.Door
	spec.ID = m.DoorID
	d, err := idx.b.PrepareDoor(spec)
	if err != nil {
		return m, err
	}
	if err := ed.ownTopo().attachDoor(d); err != nil {
		return m, err
	}
	ed.rebuildSkel = staircaseSide(idx.b, d) != indoor.NoPartition
	logged := Mutation{Kind: MutAttachDoor, DoorID: d.ID, Door: d}
	if err := idx.commit(ed, logged, func() { idx.b.InsertDoor(d) }); err != nil {
		return m, err
	}
	m.DoorID = d.ID
	return m, nil
}

// slideWall mounts (MutSplit) or dismounts (MutMerge) a sliding wall and
// reindexes the partitions it leaves, re-locating the objects bucketed in
// the old units. A rejected line or shape publishes nothing and leaves
// the building untouched.
func (idx *Index) slideWall(ed *editor, m Mutation) (Mutation, error) {
	refused := m
	refused.ResultA = indoor.NoPartition
	if m.Kind == MutSplit {
		refused.ResultB = indoor.NoPartition
	}
	affected := ed.unindexPartitionKeepBuilding(m.PartID)
	var made []*indoor.Partition
	if m.Kind == MutSplit {
		pa, pb, err := idx.b.SplitPartition(m.PartID, m.AlongX, m.At)
		if err != nil {
			return refused, err
		}
		made = []*indoor.Partition{pa, pb}
	} else {
		affected = append(affected, ed.unindexPartitionKeepBuilding(m.PartID2)...)
		merged, err := idx.b.MergePartitions(m.PartID, m.PartID2)
		if err != nil {
			return refused, err
		}
		made = []*indoor.Partition{merged}
	}
	for _, p := range made {
		if err := ed.addPartition(p); err != nil {
			return refused, err
		}
	}
	ed.relocateObjects(affected)
	m.ResultA = made[0].ID
	if m.Kind == MutSplit {
		m.ResultB = made[1].ID
	}
	if err := idx.commit(ed, m, nil); err != nil {
		return refused, err
	}
	return m, nil
}

// unindexPartitionKeepBuilding removes a partition's units and door
// references from the edit without touching the building, returning the
// ids of objects that lost bucket entries.
func (ed *editor) unindexPartitionKeepBuilding(pid indoor.PartitionID) []object.ID {
	p := ed.b.Partition(pid)
	if p == nil {
		return nil
	}
	t := ed.ownTopo()
	t.tree = nil // stale until repack
	for _, did := range p.Doors {
		t.detachDoor(did)
	}
	seen := make(map[object.ID]bool)
	var affected []object.ID
	for _, uid := range t.partUnits[pid] {
		for _, oid := range ed.bucketAt(uid) {
			slot := ed.slotOf(oid)
			e := ed.entryAt(slot)
			ed.setEntry(slot, objEntry{units: removeUnit(e.units, uid), subs: e.subs})
			if !seen[oid] {
				seen[oid] = true
				affected = append(affected, oid)
			}
		}
		if m := ed.bucketsMut(); int(uid) < m.Len() {
			m.Set(int(uid), nil)
		}
		delete(t.hTable, uid)
		t.units[uid] = nil
		t.numUnits--
	}
	delete(t.partUnits, pid)
	delete(t.virtualRefs, pid)
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	return affected
}

// relocateObjects re-runs instance location for objects whose bucket
// entries were invalidated by a topological change. Their subregion splits
// are recomputed wholesale, restoring the o-table/subregion pairing
// invariant.
func (ed *editor) relocateObjects(ids []object.ID) {
	for _, oid := range ids {
		if o := ed.storeGet(oid); o != nil {
			ed.indexObject(o, ed.locateUnit)
		}
	}
}

// removeUnit returns list without uid; the slice is copied, never mutated
// (older snapshots may alias it).
func removeUnit(list []UnitID, uid UnitID) []UnitID {
	for i, u := range list {
		if u == uid {
			out := make([]UnitID, 0, len(list)-1)
			out = append(out, list[:i]...)
			return append(out, list[i+1:]...)
		}
	}
	return list
}

// bucketHas reports sorted-bucket membership.
func bucketHas(list []object.ID, id object.ID) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	return i < len(list) && list[i] == id
}
