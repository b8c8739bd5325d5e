// Package index implements the paper's composite index for indoor spaces
// (§III): a geometric layer made of the indR-tree tier over decomposed
// index units plus the staircase skeleton tier, a topological layer of
// inter-unit door links that forms a de-facto doors graph, and an object
// layer of per-unit buckets with the o-table and h-table mappings. The
// index is maintained incrementally under both topological updates and
// object updates (§III-C) and deliberately performs no door-to-door
// distance pre-computation.
package index

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/rtree"
)

// zSliver is the 1 cm vertical extent given to planar index units so that
// R*-tree volume optimisation stays meaningful (§III-A.2).
const zSliver = 0.01

// UnitID identifies an index unit (a leaf entry of the tree tier). IDs are
// never reused.
type UnitID int

// NoUnit marks the absent side of an exterior door reference.
const NoUnit UnitID = -1

// Unit is one index unit: a convex rectangle obtained from Algorithm 3,
// belonging to exactly one indoor partition (the h-table mapping), spanning
// the floor interval [FloorLo, FloorHi] (staircases span two floors), and
// carrying the attached door references of the topological layer. Units
// reachable from a published Snapshot are immutable.
type Unit struct {
	ID       UnitID
	Part     indoor.PartitionID
	Rect     geom.Rect
	FloorLo  int
	FloorHi  int
	Doors    []*DoorRef
	stairLen float64 // > 0 for staircase units
}

// OnFloor reports whether the unit occupies floor f.
func (u *Unit) OnFloor(f int) bool { return f >= u.FloorLo && f <= u.FloorHi }

// Contains reports whether pos lies inside the unit.
func (u *Unit) Contains(pos indoor.Position) bool {
	return u.OnFloor(pos.Floor) && u.Rect.Contains(pos.Pt)
}

// WalkDist returns the intra-unit walking distance between two positions of
// the unit. Within a convex planar unit this is the Euclidean distance; in
// a staircase unit a cross-floor leg adds the stair run length.
func (u *Unit) WalkDist(a, b indoor.Position) float64 {
	d := a.Pt.DistTo(b.Pt)
	if a.Floor != b.Floor {
		d += u.stairLen
	}
	return d
}

// DoorRef is a topological-layer link: a door (real or virtual) attached to
// up to two index units. Virtual doors are created between sibling units of
// a decomposed partition at shared-edge midpoints and are always passable.
type DoorRef struct {
	Pos   geom.Point
	Floor int
	Real  *indoor.Door // nil for virtual doors
	U1    UnitID
	U2    UnitID // NoUnit for exterior doors

	// serial is the reference's immutable creation number, the key the
	// door-graph tier translates to dense ids. Never reused.
	serial int32

	// enter1/enter2 bake the door's current enterability per side (into
	// the partition of U1 / of U2). Queries read these instead of the live
	// building's door flags, so a pinned snapshot keeps answering with the
	// closure state it was published with; a door toggle republishes the
	// topological layer with fresh flags.
	enter1, enter2 bool
}

// Virtual reports whether the reference is a decomposition-internal door.
func (d *DoorRef) Virtual() bool { return d.Real == nil }

// OtherUnit returns the unit on the opposite side of u, or NoUnit.
func (d *DoorRef) OtherUnit(u UnitID) UnitID {
	switch u {
	case d.U1:
		return d.U2
	case d.U2:
		return d.U1
	}
	return NoUnit
}

// CanEnter reports whether movement through the door into unit u is
// permitted in this snapshot. Together with the subgraph construction it
// realises the directed doors graph of §II-A: an edge a→b through unit u
// exists iff a permits entry into u.
func (d *DoorRef) CanEnter(u *Unit) bool {
	switch u.ID {
	case d.U1:
		return d.enter1
	case d.U2:
		return d.enter2
	}
	return false
}

// bake recomputes the enterability flags from the underlying door's
// current state, given the partitions on the reference's two sides. Called
// at reference creation and when a topology edit republishes the layer.
func (d *DoorRef) bake(p1, p2 indoor.PartitionID) {
	if d.Real == nil {
		d.enter1, d.enter2 = true, true
		return
	}
	if d.Real.Closed {
		d.enter1, d.enter2 = false, false
		return
	}
	if !d.Real.OneWay {
		d.enter1, d.enter2 = true, true
		return
	}
	d.enter1 = p1 == d.Real.To
	d.enter2 = p2 != indoor.NoPartition && p2 == d.Real.To
}

// Position returns the door's indoor position.
func (d *DoorRef) Position() indoor.Position {
	return indoor.Position{Pt: d.Pos, Floor: d.Floor}
}

// Options configures index construction.
type Options struct {
	// Fanout of the tree tier; rtree.DefaultFanout when zero.
	Fanout int
	// Tshape is the decomposition threshold; indoor.DefaultTshape when
	// zero. Negative disables ratio splitting.
	Tshape float64
}

func (o Options) withDefaults() Options {
	if o.Fanout == 0 {
		o.Fanout = rtree.DefaultFanout
	}
	if o.Tshape == 0 {
		o.Tshape = indoor.DefaultTshape
	}
	return o
}

// BuildStats reports per-layer construction time, the series of Fig 15(b).
type BuildStats struct {
	TreeTier     time.Duration
	TopoLayer    time.Duration
	ObjectLayer  time.Duration
	SkeletonTier time.Duration
	// DoorGraph is the door-graph tier compile time. It is excluded from
	// Total, which reports the paper's four layers; the compiled graph is a
	// derived cache the paper's index does not carry.
	DoorGraph time.Duration
}

// Total returns the full construction time.
func (s BuildStats) Total() time.Duration {
	return s.TreeTier + s.TopoLayer + s.ObjectLayer + s.SkeletonTier
}

// Index is the composite index over one building and its objects.
//
// Concurrency — MVCC snapshot isolation. The index state lives in
// immutable Snapshots published through an atomic head pointer. Readers
// never lock: Current() pins the latest snapshot wait-free, and every read
// accessor on the pinned snapshot observes one consistent point-in-time
// state for as long as the snapshot is held (the query processors pin one
// snapshot per query; the serving layer pins one per batch). Mutators
// serialise on a writer mutex, build the successor snapshot copy-on-write
// — object updates share the whole topology, topology updates share the
// object store's untouched storage — and publish it with one atomic swap,
// so writers never block readers and readers never block writers. Index
// itself has no read accessors: every read goes through a pinned Snapshot.
//
// The building is owned by the writer side. RLock/RUnlock bracket direct
// reads of the building's partition/door structure (rendering,
// serialisation) against mutators; queries never need them. The building
// must be mutated only through the index once the index is shared between
// goroutines.
type Index struct {
	// mu is the writer mutex: mutators hold it exclusively while editing
	// and publishing; RLock takes its read side to still the building.
	mu sync.RWMutex

	b    *indoor.Building
	opts Options

	// commitHook, when installed, observes every mutation pre-publish
	// (the durable store's write-ahead hook). Guarded by mu.
	commitHook CommitHook

	// lastLSN is the WAL LSN the most recent hook call reported; the next
	// publish stamps it onto the snapshot. Guarded by mu (hook and publish
	// run under the writer mutex). Zero while no hook is installed.
	lastLSN uint64

	head  atomic.Pointer[Snapshot]
	swaps atomic.Uint64
}

// Build constructs the composite index over the building and object set,
// reporting per-layer construction times.
func Build(b *indoor.Building, objs []*object.Object, opts Options) (*Index, BuildStats, error) {
	opts = opts.withDefaults()
	idx := &Index{b: b, opts: opts}
	ed := newBuildEditor(idx)
	var stats BuildStats

	// Tree tier: decompose every partition and pack the indR-tree.
	start := time.Now()
	for _, p := range b.Partitions() {
		ed.topo.makeUnits(p, opts)
	}
	ed.repack()
	stats.TreeTier = time.Since(start)

	// Topological layer: virtual doors between sibling units, then real
	// door references.
	start = time.Now()
	for _, p := range b.Partitions() {
		ed.topo.linkSiblingUnits(p.ID)
	}
	for _, d := range b.Doors() {
		if err := ed.topo.attachDoor(d); err != nil {
			return nil, stats, err
		}
	}
	stats.TopoLayer = time.Since(start)

	// Skeleton tier.
	start = time.Now()
	ed.topo.skeleton = buildSkeleton(b)
	stats.SkeletonTier = time.Since(start)

	// Object layer.
	start = time.Now()
	for _, o := range objs {
		if err := ed.insertObject(o); err != nil {
			return nil, stats, err
		}
	}
	stats.ObjectLayer = time.Since(start)

	// Door-graph tier: compile the static doors graph as part of the first
	// snapshot, so the first query pays no compile latency.
	start = time.Now()
	ed.topo.epoch = 1
	ed.topo.graph = compileDoorGraph(ed.topo)
	stats.DoorGraph = time.Since(start)

	idx.publish(ed.freeze())
	return idx, stats, nil
}

// Current pins the latest published snapshot. The load is wait-free;
// snapshots are immutable, so the caller may use it from any goroutine for
// any length of time. Long-held snapshots only cost memory (they keep
// their version of the layers alive).
func (idx *Index) Current() *Snapshot { return idx.head.Load() }

// publish installs s as the new head. Callers hold the writer mutex (or
// own the index exclusively, as Build does).
func (idx *Index) publish(s *Snapshot) {
	s.seq = idx.swaps.Add(1)
	s.lsn = idx.lastLSN
	idx.head.Store(s)
}

// SnapshotSwaps returns the number of snapshots published so far (the
// freshly built index counts as one). Batched updates advance it once per
// batch — the coalescing win ApplyObjectUpdates exists for.
func (idx *Index) SnapshotSwaps() uint64 { return idx.swaps.Load() }

// RLock stills the *building* (it takes the read side of the writer
// mutex): hold it while reading the building's partition/door structure
// directly, e.g. for rendering or serialisation. Queries do not need it —
// they pin snapshots. Mutators are excluded while it is held.
func (idx *Index) RLock() { idx.mu.RLock() }

// RUnlock releases the read side of the writer mutex.
func (idx *Index) RUnlock() { idx.mu.RUnlock() }

// unitBox returns the 3D box stored in the tree tier for a unit: the planar
// rectangle with the 1 cm sliver starting at the unit's floor elevation;
// staircase units span up to their upper floor.
func unitBox(b *indoor.Building, u *Unit) geom.Rect3 {
	zlo := b.Elevation(u.FloorLo)
	zhi := b.Elevation(u.FloorHi) + zSliver
	return geom.R3(u.Rect, zlo, zhi)
}

// Building returns the indexed building.
func (idx *Index) Building() *indoor.Building { return idx.b }

// Options returns the construction options the index was built with —
// the durable store persists them so a recovered index decomposes the
// restored building identically.
func (idx *Index) Options() Options { return idx.opts }
