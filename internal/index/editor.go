package index

import (
	"sort"

	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/pvec"
)

// editor is one copy-on-write edit session producing the successor of a
// base snapshot. Layers are cloned lazily and only as deep as the edit
// needs: object updates never touch the topological layer (units, tree,
// door refs, skeleton, compiled doors graph are shared with the base
// snapshot pointer-for-pointer), topology updates share the object
// layer's untouched chunks through the persistent structures, and only
// structural ones re-pack the immutable tree. An editor
// that is dropped without freeze/publish leaves the base snapshot — and
// the live building, provided the edit failed before mutating it — fully
// intact, which is what makes mutator error paths rollback-free.
//
// Callers hold the Index's writer mutex for the editor's whole lifetime.
type editor struct {
	idx  *Index
	base *Snapshot
	b    *indoor.Building
	opts Options

	// topo is the owned deep clone of the topological layer, nil while the
	// edit has not needed one. Its epoch is base+1, its graph is compiled
	// at freeze, and its tree is nil while a structural edit has left it
	// stale (see repack).
	topo        *topoLayer
	rebuildSkel bool

	// Lazy object-layer edit sessions.
	store   *object.StoreMut
	table   *pvec.Mut[*objEntry]
	buckets *pvec.Mut[[]object.ID]
}

// edit opens an editor over the current snapshot. The caller holds the
// writer mutex.
func (idx *Index) edit() *editor {
	base := idx.Current()
	return &editor{idx: idx, base: base, b: idx.b, opts: idx.opts}
}

// newBuildEditor returns the editor Build grows the first snapshot in: an
// owned empty topological layer and empty object-layer sessions.
func newBuildEditor(idx *Index) *editor {
	return &editor{
		idx:  idx,
		b:    idx.b,
		opts: idx.opts,
		topo: &topoLayer{
			hTable:      make(map[UnitID]indoor.PartitionID),
			partUnits:   make(map[indoor.PartitionID][]UnitID),
			doorRefs:    make(map[indoor.DoorID]*DoorRef),
			virtualRefs: make(map[indoor.PartitionID][]*DoorRef),
		},
		store:   object.NewStore().Mutate(),
		table:   pvec.Vec[*objEntry]{}.Mutate(),
		buckets: pvec.Vec[[]object.ID]{}.Mutate(),
	}
}

// curTopo returns the layer reads should go through: the owned clone when
// the edit has one, the shared base layer otherwise.
func (ed *editor) curTopo() *topoLayer {
	if ed.topo != nil {
		return ed.topo
	}
	return ed.base.topo
}

// ownTopo deep-clones the topological layer on first need. The clone's
// epoch is base+1; its door graph is compiled at freeze.
func (ed *editor) ownTopo() *topoLayer {
	if ed.topo == nil {
		ed.topo = ed.base.topo.clone()
	}
	return ed.topo
}

func (ed *editor) storeMut() *object.StoreMut {
	if ed.store == nil {
		ed.store = ed.base.objs.store.Mutate()
	}
	return ed.store
}

func (ed *editor) tableMut() *pvec.Mut[*objEntry] {
	if ed.table == nil {
		ed.table = ed.base.objs.table.Mutate()
	}
	return ed.table
}

func (ed *editor) bucketsMut() *pvec.Mut[[]object.ID] {
	if ed.buckets == nil {
		ed.buckets = ed.base.objs.buckets.Mutate()
	}
	return ed.buckets
}

// Read-through helpers that see the edit's own writes.

func (ed *editor) storeGet(id object.ID) *object.Object {
	if ed.store != nil {
		return ed.store.Get(id)
	}
	return ed.base.objs.store.Get(id)
}

func (ed *editor) slotOf(id object.ID) int32 {
	if ed.store != nil {
		return ed.store.SlotOf(id)
	}
	return ed.base.objs.store.SlotOf(id)
}

func (ed *editor) entryAt(slot int32) objEntry {
	var e *objEntry
	if ed.table != nil {
		if int(slot) < ed.table.Len() {
			e = ed.table.At(int(slot))
		}
	} else if int(slot) < ed.base.objs.table.Len() {
		e = ed.base.objs.table.At(int(slot))
	}
	if e == nil {
		return objEntry{}
	}
	return *e
}

func (ed *editor) setEntry(slot int32, e objEntry) {
	m := ed.tableMut()
	if int(slot) >= m.Len() {
		m.Grow(int(slot) + 1)
	}
	if e.units == nil && e.subs == nil {
		m.Set(int(slot), nil)
		return
	}
	m.Set(int(slot), &e)
}

func (ed *editor) bucketAt(uid UnitID) []object.ID {
	if ed.buckets != nil {
		if int(uid) < ed.buckets.Len() {
			return ed.buckets.At(int(uid))
		}
		return nil
	}
	if int(uid) < ed.base.objs.buckets.Len() {
		return ed.base.objs.buckets.At(int(uid))
	}
	return nil
}

// bucketInsert adds id to a unit's bucket keeping ascending order. The
// bucket slice is replaced, never mutated: older snapshots may alias it.
func (ed *editor) bucketInsert(uid UnitID, id object.ID) {
	old := ed.bucketAt(uid)
	i := sort.Search(len(old), func(i int) bool { return old[i] >= id })
	if i < len(old) && old[i] == id {
		return
	}
	fresh := make([]object.ID, len(old)+1)
	copy(fresh, old[:i])
	fresh[i] = id
	copy(fresh[i+1:], old[i:])
	m := ed.bucketsMut()
	if int(uid) >= m.Len() {
		m.Grow(int(uid) + 1)
	}
	m.Set(int(uid), fresh)
}

// bucketRemove deletes id from a unit's bucket, copy-on-write.
func (ed *editor) bucketRemove(uid UnitID, id object.ID) {
	old := ed.bucketAt(uid)
	i := sort.Search(len(old), func(i int) bool { return old[i] >= id })
	if i >= len(old) || old[i] != id {
		return
	}
	var fresh []object.ID
	if len(old) > 1 {
		fresh = make([]object.ID, len(old)-1)
		copy(fresh, old[:i])
		copy(fresh[i:], old[i+1:])
	}
	m := ed.bucketsMut()
	if int(uid) >= m.Len() {
		m.Grow(int(uid) + 1)
	}
	m.Set(int(uid), fresh)
}

// repack packs the owned layer's tree tier over its live units when a
// structural edit left it stale (nil). Every structural commit pays it
// once, before its first point location or at freeze.
func (ed *editor) repack() {
	if t := ed.topo; t != nil && t.tree == nil {
		t.tree = t.packTree(ed.b, ed.opts.Fanout)
	}
}

// locateUnit is point-location through the edit's current tree tier (the
// re-packed clone after structural edits, the shared base tree otherwise).
func (ed *editor) locateUnit(pos indoor.Position) *Unit {
	ed.repack()
	return ed.curTopo().locateUnit(ed.b, pos)
}

// freeze assembles the successor snapshot: an edited topological layer is
// rebaked (door enterability), its skeleton rebuilt when flagged and its
// door graph recompiled; untouched layers are shared with the base.
func (ed *editor) freeze() *Snapshot {
	topo := ed.topo
	if topo == nil {
		topo = ed.base.topo
	} else {
		ed.repack()
		if ed.rebuildSkel {
			topo.skeleton = buildSkeleton(ed.b)
		}
		topo.rebakeDoors()
		if topo.graph == nil || topo.graph.epoch != topo.epoch {
			topo.graph = compileDoorGraph(topo)
		}
	}
	var objs *objLayer
	if ed.store == nil && ed.table == nil && ed.buckets == nil {
		objs = ed.base.objs
	} else {
		objs = &objLayer{}
		if ed.base != nil {
			*objs = *ed.base.objs
		}
		if ed.store != nil {
			objs.store = ed.store.Freeze()
		}
		if ed.table != nil {
			objs.table = ed.table.Freeze()
		}
		if ed.buckets != nil {
			objs.buckets = ed.buckets.Freeze()
		}
	}
	return &Snapshot{b: ed.b, opts: ed.opts, topo: topo, objs: objs}
}
