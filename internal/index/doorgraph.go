package index

import (
	"repro/internal/doorgraph"
)

// DoorGraph is one compiled snapshot of the door-graph tier: the CSR doors
// graph of internal/doorgraph plus the dense-id translation tables that tie
// it back to the index's DoorRefs and units. It is immutable and owned by
// exactly one index Snapshot — under MVCC the "is it stale?" question
// disappears, because a topology mutation publishes a new snapshot with a
// freshly compiled graph and pinned snapshots keep the one they were born
// with. Engines hold the snapshot (and with it the graph) for their whole
// lifetime, so a topology change never invalidates an in-flight query — it
// only redirects the next one.
type DoorGraph struct {
	epoch uint64
	g     *doorgraph.Graph

	// doors maps dense door ids back to their references; doorSlot maps a
	// DoorRef's immutable serial to its dense id (-1 when the door was not
	// attached at compile time).
	doors    []*DoorRef
	doorSlot []int32

	// unitSlot maps UnitID to the dense unit slot edges reference (-1 for
	// units removed before the compile); unitIDs is the reverse.
	unitSlot []int32
	unitIDs  []UnitID
}

// Graph returns the compiled CSR doors graph.
func (dg *DoorGraph) Graph() *doorgraph.Graph { return dg.g }

// NumDoors returns the number of door nodes in the snapshot.
func (dg *DoorGraph) NumDoors() int { return len(dg.doors) }

// NumUnits returns the number of unit slots in the snapshot.
func (dg *DoorGraph) NumUnits() int { return len(dg.unitIDs) }

// DoorID returns the dense id of a door reference, or -1 when the door is
// not part of the snapshot.
func (dg *DoorGraph) DoorID(d *DoorRef) int32 {
	if d == nil || int(d.serial) >= len(dg.doorSlot) {
		return -1
	}
	return dg.doorSlot[d.serial]
}

// Door returns the reference of a dense door id.
func (dg *DoorGraph) Door(id int32) *DoorRef { return dg.doors[id] }

// UnitSlot returns the dense slot of a unit, or -1 when the unit is not
// part of the snapshot.
func (dg *DoorGraph) UnitSlot(id UnitID) int32 {
	if id < 0 || int(id) >= len(dg.unitSlot) {
		return -1
	}
	return dg.unitSlot[id]
}

// compileDoorGraph flattens a topological layer into a DoorGraph: dense
// unit slots in ascending UnitID order, dense door ids in first-encounter
// order over that unit order, and one directed CSR edge a→b per unit u and
// door pair (a, b) with a enterable into u, memoizing the intra-unit
// walking distance as the edge weight. Freeze calls it once per topology
// edit, so the compiled graph and the layer it indexes always publish
// together.
//
// The unitSlot/doorSlot translation tables are sized by the all-time id
// counters (UnitIDs and door serials are never reused), so sustained
// topology churn grows them beyond the live topology: the trade-off buys
// O(1) id translation without locks or remapping. At int32 table entries
// this costs 4 bytes per historical unit/door per snapshot — revisit with
// a compaction pass if a deployment ever churns through millions of
// partitions.
func compileDoorGraph(t *topoLayer) *DoorGraph {
	dg := &DoorGraph{
		epoch:    t.epoch,
		unitSlot: make([]int32, t.nextUnit),
		doorSlot: make([]int32, t.nextDoorSerial),
	}
	for i := range dg.unitSlot {
		dg.unitSlot[i] = -1
	}
	for i := range dg.doorSlot {
		dg.doorSlot[i] = -1
	}
	dg.unitIDs = make([]UnitID, 0, t.numUnits)
	for id, u := range t.units { // ascending: the registry is id-indexed
		if u != nil {
			dg.unitIDs = append(dg.unitIDs, UnitID(id))
		}
	}
	for slot, id := range dg.unitIDs {
		dg.unitSlot[id] = int32(slot)
	}

	doorID := func(d *DoorRef) int32 {
		n := dg.doorSlot[d.serial]
		if n < 0 {
			n = int32(len(dg.doors))
			dg.doorSlot[d.serial] = n
			dg.doors = append(dg.doors, d)
		}
		return n
	}
	nEdges := 0
	for _, id := range dg.unitIDs {
		u := t.units[id]
		for _, d := range u.Doors {
			doorID(d)
			if d.CanEnter(u) {
				nEdges += len(u.Doors) - 1
			}
		}
	}

	b := doorgraph.NewBuilder(len(dg.doors), len(dg.unitIDs))
	b.Grow(nEdges)
	for slot, id := range dg.unitIDs {
		u := t.units[id]
		for _, a := range u.Doors {
			if !a.CanEnter(u) {
				continue
			}
			na := doorID(a)
			for _, c := range u.Doors {
				if c == a {
					continue
				}
				b.AddEdge(na, doorID(c), int32(slot), u.WalkDist(a.Position(), c.Position()))
			}
		}
	}
	dg.g = b.Build()
	return dg
}
