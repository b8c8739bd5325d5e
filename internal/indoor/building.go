package indoor

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Building is a multi-floor indoor space: the set O of partitions and doors
// plus the floor geometry. Partition and door IDs are allocated
// monotonically and never reused, so external structures (the composite
// index, object tables) can reference them safely across updates.
//
// Building is not safe for concurrent mutation; the composite index layers
// its own synchronisation on top.
type Building struct {
	// FloorHeight is the vertical extent of one floor in metres (4 m for
	// the paper's mall).
	FloorHeight float64

	parts map[PartitionID]*Partition
	doors map[DoorID]*Door

	nextPart PartitionID
	nextDoor DoorID
}

// NewBuilding returns an empty building with the given floor height.
func NewBuilding(floorHeight float64) *Building {
	return &Building{
		FloorHeight: floorHeight,
		parts:       make(map[PartitionID]*Partition),
		doors:       make(map[DoorID]*Door),
	}
}

// NumPartitions returns the number of partitions.
func (b *Building) NumPartitions() int { return len(b.parts) }

// NumDoors returns the number of doors.
func (b *Building) NumDoors() int { return len(b.doors) }

// Partition returns the partition with the given id, or nil.
func (b *Building) Partition(id PartitionID) *Partition { return b.parts[id] }

// Door returns the door with the given id, or nil.
func (b *Building) Door(id DoorID) *Door { return b.doors[id] }

// Partitions returns all partitions sorted by ID for deterministic
// iteration.
func (b *Building) Partitions() []*Partition {
	out := make([]*Partition, 0, len(b.parts))
	for _, p := range b.parts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Doors returns all doors sorted by ID.
func (b *Building) Doors() []*Door {
	out := make([]*Door, 0, len(b.doors))
	for _, d := range b.doors {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Floors returns the number of floors, assuming floors are numbered from 0.
func (b *Building) Floors() int {
	max := -1
	for _, p := range b.parts {
		_, hi := p.FloorSpan()
		if hi > max {
			max = hi
		}
	}
	return max + 1
}

// Elevation returns the z coordinate of the given floor's ground plane.
func (b *Building) Elevation(floor int) float64 {
	return float64(floor) * b.FloorHeight
}

// PreparePartition validates p against the building without adding it:
// its id must be unused (a negative id takes the next free one) and its
// shape a valid rectilinear polygon. It returns the partition
// InsertPartition would add, with its final id and no doors. The split
// lets a caller validate and log a partition before the building changes.
func (b *Building) PreparePartition(p Partition) (*Partition, error) {
	if p.ID < 0 {
		p.ID = b.nextPart
	} else if _, dup := b.parts[p.ID]; dup {
		return nil, fmt.Errorf("indoor: duplicate partition id %d", p.ID)
	}
	if err := p.Shape.Validate(); err != nil {
		return nil, fmt.Errorf("indoor: bad partition shape: %w", err)
	}
	p.Doors = nil
	return &p, nil
}

// InsertPartition adds a partition PreparePartition returned, advancing
// the allocator past its id so future allocations stay unique.
func (b *Building) InsertPartition(p *Partition) {
	b.parts[p.ID] = p
	if p.ID >= b.nextPart {
		b.nextPart = p.ID + 1
	}
}

// AddPartition inserts a partition with the given kind, floor and footprint
// and returns it. The shape must be a valid rectilinear polygon.
func (b *Building) AddPartition(kind Kind, floor int, shape geom.Polygon) (*Partition, error) {
	return b.AddPartitionWithID(NoPartition, kind, floor, shape)
}

// AddRoom is AddPartition for a rectangular room.
func (b *Building) AddRoom(floor int, r geom.Rect) *Partition {
	p, err := b.AddPartition(Room, floor, geom.RectPoly(r))
	if err != nil {
		panic(err) // rectangles are always valid polygons
	}
	return p
}

// AddHallway is AddPartition for a (possibly concave) hallway.
func (b *Building) AddHallway(floor int, shape geom.Polygon) (*Partition, error) {
	return b.AddPartition(Hallway, floor, shape)
}

// AddStaircase inserts a staircase joining floor and floor+1 with the given
// footprint and run length.
func (b *Building) AddStaircase(floor int, footprint geom.Rect, runLength float64) *Partition {
	p, err := b.AddPartition(Staircase, floor, geom.RectPoly(footprint))
	if err != nil {
		panic(err)
	}
	p.StairLength = runLength
	return p
}

// AddPartitionWithID inserts a partition under an explicit id, for
// deserialisers restoring a building whose ids must survive a round trip
// (the durable checkpoint format, whose write-ahead log references
// partitions by id). It fails on a duplicate id and advances the
// allocator past id so future allocations stay unique. A negative id
// allocates.
func (b *Building) AddPartitionWithID(id PartitionID, kind Kind, floor int, shape geom.Polygon) (*Partition, error) {
	p, err := b.PreparePartition(Partition{ID: id, Kind: kind, Floor: floor, Shape: shape})
	if err != nil {
		return nil, err
	}
	b.InsertPartition(p)
	return p, nil
}

// AllocBounds returns the partition and door id allocators' next values.
// Together with AddPartitionWithID / AddDoorWithID and ReserveIDs they
// let a deserialiser reproduce the building's exact id state, which is
// what makes write-ahead-log replay deterministic after recovery.
func (b *Building) AllocBounds() (PartitionID, DoorID) { return b.nextPart, b.nextDoor }

// ReserveIDs advances the id allocators to at least the given values, so
// ids allocated after an exact restore match the original timeline even
// when the highest original ids were later removed.
func (b *Building) ReserveIDs(nextPart PartitionID, nextDoor DoorID) {
	if nextPart > b.nextPart {
		b.nextPart = nextPart
	}
	if nextDoor > b.nextDoor {
		b.nextDoor = nextDoor
	}
}

// RemovePartition deletes a partition and every door attached to it,
// mirroring the paper's deletion operation (§III-C.1).
func (b *Building) RemovePartition(id PartitionID) error {
	p := b.parts[id]
	if p == nil {
		return fmt.Errorf("indoor: no partition %d", id)
	}
	for _, did := range append([]DoorID(nil), p.Doors...) {
		b.RemoveDoor(did)
	}
	delete(b.parts, id)
	return nil
}

// AddDoor inserts a bidirectional door at pos on the given floor joining p1
// and p2 (p2 may be NoPartition for an exterior door).
func (b *Building) AddDoor(pos geom.Point, floor int, p1, p2 PartitionID) (*Door, error) {
	return b.AddDoorWithID(-1, pos, floor, p1, p2, false, NoPartition, NoPartition, false)
}

// AddOneWayDoor inserts a unidirectional door permitting movement only
// from → to.
func (b *Building) AddOneWayDoor(pos geom.Point, floor int, from, to PartitionID) (*Door, error) {
	return b.AddDoorWithID(-1, pos, floor, from, to, true, from, to, false)
}

// PrepareDoor validates d against the building without adding it: its id
// must be unused (a negative id takes the next free one), its partitions
// must exist and a one-way direction must run between them. It returns
// the door InsertDoor would add, with its final id; a two-way door's
// From/To are normalised to NoPartition.
func (b *Building) PrepareDoor(d Door) (*Door, error) {
	if d.ID < 0 {
		d.ID = b.nextDoor
	} else if _, dup := b.doors[d.ID]; dup {
		return nil, fmt.Errorf("indoor: duplicate door id %d", d.ID)
	}
	if b.parts[d.P1] == nil {
		return nil, fmt.Errorf("indoor: door %d references missing partition %d", d.ID, d.P1)
	}
	if d.P2 != NoPartition && b.parts[d.P2] == nil {
		return nil, fmt.Errorf("indoor: door %d references missing partition %d", d.ID, d.P2)
	}
	if !d.OneWay {
		d.From, d.To = NoPartition, NoPartition
	} else if !d.Connects(d.From) || !d.Connects(d.To) || d.From == d.To {
		return nil, fmt.Errorf("indoor: door %d has inconsistent one-way direction", d.ID)
	}
	return &d, nil
}

// InsertDoor adds a door PrepareDoor returned, linking it into its
// partitions' door lists and advancing the allocator past its id.
func (b *Building) InsertDoor(d *Door) {
	b.doors[d.ID] = d
	b.parts[d.P1].Doors = append(b.parts[d.P1].Doors, d.ID)
	if d.P2 != NoPartition {
		b.parts[d.P2].Doors = append(b.parts[d.P2].Doors, d.ID)
	}
	if d.ID >= b.nextDoor {
		b.nextDoor = d.ID + 1
	}
}

// AddDoorWithID inserts a door under an explicit id with its full state
// (direction and closure), the door-side counterpart of
// AddPartitionWithID for id-exact restores. A negative id allocates.
func (b *Building) AddDoorWithID(id DoorID, pos geom.Point, floor int, p1, p2 PartitionID, oneWay bool, from, to PartitionID, closed bool) (*Door, error) {
	d, err := b.PrepareDoor(Door{
		ID: id, Pos: pos, Floor: floor, P1: p1, P2: p2,
		OneWay: oneWay, From: from, To: to, Closed: closed,
	})
	if err != nil {
		return nil, err
	}
	b.InsertDoor(d)
	return d, nil
}

// RemoveDoor deletes a door and detaches it from its partitions.
func (b *Building) RemoveDoor(id DoorID) {
	d := b.doors[id]
	if d == nil {
		return
	}
	if p := b.parts[d.P1]; p != nil {
		p.removeDoor(id)
	}
	if d.P2 != NoPartition {
		if p := b.parts[d.P2]; p != nil {
			p.removeDoor(id)
		}
	}
	delete(b.doors, id)
}

// SetDoorClosed opens or closes a door — the temporal variation of §I
// (rooms blocked in emergencies, temporary doors).
func (b *Building) SetDoorClosed(id DoorID, closed bool) error {
	d := b.doors[id]
	if d == nil {
		return fmt.Errorf("indoor: no door %d", id)
	}
	d.Closed = closed
	return nil
}

// PartitionAt locates the partition containing the position, P(q) in the
// paper. It scans linearly; the composite index answers the same question
// through the tree. When partitions share a boundary the lowest ID wins,
// keeping the answer deterministic.
func (b *Building) PartitionAt(pos Position) *Partition {
	var best *Partition
	for _, p := range b.parts {
		if p.Contains(pos) && (best == nil || p.ID < best.ID) {
			best = p
		}
	}
	return best
}

// AdjacentPartitions returns the partitions reachable from id through a
// single currently-passable door, sorted by ID.
func (b *Building) AdjacentPartitions(id PartitionID) []PartitionID {
	p := b.parts[id]
	if p == nil {
		return nil
	}
	seen := make(map[PartitionID]bool)
	for _, did := range p.Doors {
		d := b.doors[did]
		if d == nil || !d.Passable(id) {
			continue
		}
		o := d.Other(id)
		if o != NoPartition {
			seen[o] = true
		}
	}
	out := make([]PartitionID, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks structural invariants: door endpoints exist, door lists
// are consistent, one-way directions reference the door's own partitions,
// staircases have exactly the entrance doors on their two floors, and every
// partition shape is valid.
func (b *Building) Validate() error {
	for id, p := range b.parts {
		if p.ID != id {
			return fmt.Errorf("indoor: partition map key %d != ID %d", id, p.ID)
		}
		if err := p.Shape.Validate(); err != nil {
			return fmt.Errorf("indoor: partition %d: %w", id, err)
		}
		for _, did := range p.Doors {
			d := b.doors[did]
			if d == nil {
				return fmt.Errorf("indoor: partition %d lists missing door %d", id, did)
			}
			if !d.Connects(id) {
				return fmt.Errorf("indoor: partition %d lists door %d that does not connect it", id, did)
			}
		}
	}
	for id, d := range b.doors {
		if d.ID != id {
			return fmt.Errorf("indoor: door map key %d != ID %d", id, d.ID)
		}
		p1 := b.parts[d.P1]
		if p1 == nil {
			return fmt.Errorf("indoor: door %d references missing partition %d", id, d.P1)
		}
		if !p1.hasDoor(id) {
			return fmt.Errorf("indoor: door %d missing from partition %d's list", id, d.P1)
		}
		if d.P2 != NoPartition {
			p2 := b.parts[d.P2]
			if p2 == nil {
				return fmt.Errorf("indoor: door %d references missing partition %d", id, d.P2)
			}
			if !p2.hasDoor(id) {
				return fmt.Errorf("indoor: door %d missing from partition %d's list", id, d.P2)
			}
		}
		if d.OneWay {
			if !d.Connects(d.From) || !d.Connects(d.To) || d.From == d.To {
				return fmt.Errorf("indoor: door %d has inconsistent one-way direction", id)
			}
		}
	}
	return nil
}
