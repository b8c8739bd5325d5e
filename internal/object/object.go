// Package object models indoor moving objects with uncertain locations as
// in §II-B of the paper: an object is a set of discrete instances
// {(s_i, p_i)} whose existential probabilities sum to one. The instance
// representation is general for arbitrary distributions; the generator in
// this package produces the paper's experimental pdf — Gaussian samples
// truncated to a circular uncertainty region with σ = diameter/6.
package object

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/pvec"
)

// ID identifies an uncertain object within a Store or index.
type ID int

// Instance is one existential sample s_i of an object with probability P.
type Instance struct {
	Pos indoor.Position
	P   float64
}

// Object is an indoor moving object O = {(s_i, p_i)}. All instances lie on
// a single floor: indoor positioning reports a region around a reader or
// access point, which never straddles a slab. The uncertainty region
// (Center, Radius) is retained for bookkeeping; distance computations use
// only the instances.
type Object struct {
	ID        ID
	Center    indoor.Position
	Radius    float64
	Instances []Instance
}

// probTol is the acceptable deviation of the probability mass from 1.
const probTol = 1e-6

// MaxInstances bounds an object's instance count. Every object the index
// admits can be logged and recovered, and the store's decoder refuses a
// larger count before allocating for it.
const MaxInstances = 1 << 20

// Validate checks the §II-B contract: between one and MaxInstances
// instances, non-negative probabilities summing to 1, and a single floor.
func (o *Object) Validate() error {
	if len(o.Instances) == 0 {
		return fmt.Errorf("object %d: no instances", o.ID)
	}
	if len(o.Instances) > MaxInstances {
		return fmt.Errorf("object %d: %d instances, more than %d", o.ID, len(o.Instances), MaxInstances)
	}
	var sum float64
	for i, in := range o.Instances {
		if in.P < 0 {
			return fmt.Errorf("object %d: instance %d has negative probability %g", o.ID, i, in.P)
		}
		if in.Pos.Floor != o.Instances[0].Pos.Floor {
			return fmt.Errorf("object %d: instances span floors %d and %d",
				o.ID, o.Instances[0].Pos.Floor, in.Pos.Floor)
		}
		sum += in.P
	}
	if math.Abs(sum-1) > probTol {
		return fmt.Errorf("object %d: probabilities sum to %g", o.ID, sum)
	}
	return nil
}

// Floor returns the floor the object occupies.
func (o *Object) Floor() int { return o.Instances[0].Pos.Floor }

// Bounds returns the planar MBR of the instances, the footprint the
// composite index stores for the object.
func (o *Object) Bounds() geom.Rect {
	b := geom.EmptyRect
	for _, in := range o.Instances {
		b = b.Union(geom.Rect{
			MinX: in.Pos.Pt.X, MinY: in.Pos.Pt.Y,
			MaxX: in.Pos.Pt.X, MaxY: in.Pos.Pt.Y,
		})
	}
	return b
}

// Subregion is an uncertainty subregion S[j]: the instances of an object
// falling into one partition, with their aggregate probability mass and
// planar MBR (§II-B).
type Subregion struct {
	Part      indoor.PartitionID
	Instances []Instance
	Prob      float64
	MBR       geom.Rect
}

// Split divides the object's instances into subregions by partition using
// the supplied locator (the composite index's point-location, or
// Building.PartitionAt in tests). Instances the locator cannot place are
// assigned to indoor.NoPartition so that no probability mass silently
// disappears. Subregions are ordered by ascending PartitionID for
// determinism.
func (o *Object) Split(locate func(indoor.Position) indoor.PartitionID) []Subregion {
	byPart := make(map[indoor.PartitionID]*Subregion)
	order := make([]indoor.PartitionID, 0, 4)
	for _, in := range o.Instances {
		pid := locate(in.Pos)
		s := byPart[pid]
		if s == nil {
			s = &Subregion{Part: pid, MBR: geom.EmptyRect}
			byPart[pid] = s
			order = append(order, pid)
		}
		s.Instances = append(s.Instances, in)
		s.Prob += in.P
		s.MBR = s.MBR.Union(geom.Rect{
			MinX: in.Pos.Pt.X, MinY: in.Pos.Pt.Y,
			MaxX: in.Pos.Pt.X, MaxY: in.Pos.Pt.Y,
		})
	}
	// Insertion order follows instance order; sort by partition ID.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]Subregion, 0, len(order))
	for _, pid := range order {
		out = append(out, *byPart[pid])
	}
	return out
}

// SampleGaussian draws an object with n instances of equal probability 1/n
// from a Gaussian centred at center, σ = radius/3 (the paper's variance:
// the square of 1/6 of the diameter), truncated to the circular uncertainty
// region by resampling.
func SampleGaussian(rng *rand.Rand, id ID, center indoor.Position, radius float64, n int) *Object {
	o := &Object{ID: id, Center: center, Radius: radius, Instances: make([]Instance, 0, n)}
	sigma := radius / 3
	p := 1.0 / float64(n)
	for len(o.Instances) < n {
		dx := rng.NormFloat64() * sigma
		dy := rng.NormFloat64() * sigma
		if math.Hypot(dx, dy) > radius {
			continue // truncate to the uncertainty circle
		}
		o.Instances = append(o.Instances, Instance{
			Pos: indoor.Position{
				Pt:    geom.Pt(center.Pt.X+dx, center.Pt.Y+dy),
				Floor: center.Floor,
			},
			P: p,
		})
	}
	return o
}

// PointObject builds a certain object: a single instance with probability 1.
// Degenerate objects exercise the single-partition single-path fast path and
// model precisely-positioned assets.
func PointObject(id ID, pos indoor.Position) *Object {
	return &Object{
		ID: id, Center: pos, Radius: 0,
		Instances: []Instance{{Pos: pos, P: 1}},
	}
}

// Store is a persistent (copy-on-write) id-addressed collection of
// objects: the backing container of the composite index's object layer. A
// Store is immutable once built — readers may use it from any goroutine
// with no locking — and editing goes through Mutate, which produces a new
// Store sharing untouched storage with the old one.
//
// Every live object carries a dense *slot index* in [0, SlotBound()):
// slots are assigned at insertion, recycled on removal, and stay put while
// the object lives (re-adding a live id keeps its slot). Slot stability
// across versions is what makes the store "slot-versioned": index layers
// keyed by slot stay valid across every edit that does not remove the
// object, and query processors key per-query visited stamps by slot so
// stamp arrays stay proportional to the number of live objects even when
// the ID space is sparse.
type Store struct {
	byID map[ID]int32      // id → slot
	recs pvec.Vec[*Object] // slot → object (nil for freed slots)
	free []int32
	next ID
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byID: make(map[ID]int32)}
}

// Get returns the object with the given id, or nil.
func (s *Store) Get(id ID) *Object {
	slot, ok := s.byID[id]
	if !ok {
		return nil
	}
	return s.recs.At(int(slot))
}

// SlotOf returns the dense slot index of a live object, or -1.
func (s *Store) SlotOf(id ID) int32 {
	if slot, ok := s.byID[id]; ok {
		return slot
	}
	return -1
}

// SlotBound returns an exclusive upper bound on live slot indices.
func (s *Store) SlotBound() int { return s.recs.Len() }

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.byID) }

// IDs returns all object ids in ascending order.
func (s *Store) IDs() []ID {
	out := make([]ID, 0, len(s.byID))
	for id := range s.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mutate opens an edit session. Replacing a live object is cheap (no map
// copy — the id/slot structure is untouched); the first insertion or
// removal of a session pays one copy of the id map. The base store and
// every previously frozen version stay untouched whatever the session
// does.
func (s *Store) Mutate() *StoreMut {
	return &StoreMut{byID: s.byID, recs: s.recs.Mutate(), free: s.free, next: s.next}
}

// StoreMut is a mutable edit session over a Store. Not safe for concurrent
// use.
type StoreMut struct {
	byID  map[ID]int32
	recs  *pvec.Mut[*Object]
	free  []int32
	next  ID
	owned bool // byID and free are private copies
}

// ownMaps clones the id/slot structure before the first structural change.
func (m *StoreMut) ownMaps() {
	if m.owned {
		return
	}
	fresh := make(map[ID]int32, len(m.byID)+1)
	for id, slot := range m.byID {
		fresh[id] = slot
	}
	m.byID = fresh
	m.free = append([]int32(nil), m.free...)
	m.owned = true
}

// Put inserts o, assigning it the next free ID when o.ID is negative.
// Re-adding a live id replaces the object and keeps its slot.
func (m *StoreMut) Put(o *Object) ID {
	if o.ID < 0 {
		o.ID = m.next
	}
	if o.ID >= m.next {
		m.next = o.ID + 1
	}
	slot, ok := m.byID[o.ID]
	if !ok {
		m.ownMaps()
		if n := len(m.free); n > 0 {
			slot = m.free[n-1]
			m.free = m.free[:n-1]
			m.recs.Set(int(slot), o)
		} else {
			slot = int32(m.recs.Append(o))
		}
		m.byID[o.ID] = slot
		return o.ID
	}
	m.recs.Set(int(slot), o)
	return o.ID
}

// Remove deletes the object with the given id and reports whether it
// existed. Its slot is recycled for a future insertion.
func (m *StoreMut) Remove(id ID) bool {
	slot, ok := m.byID[id]
	if !ok {
		return false
	}
	m.ownMaps()
	m.recs.Set(int(slot), nil)
	m.free = append(m.free, slot)
	delete(m.byID, id)
	return true
}

// Get returns the session's current object for id, or nil.
func (m *StoreMut) Get(id ID) *Object {
	slot, ok := m.byID[id]
	if !ok {
		return nil
	}
	return m.recs.At(int(slot))
}

// SlotOf returns the session's current slot for id, or -1.
func (m *StoreMut) SlotOf(id ID) int32 {
	if slot, ok := m.byID[id]; ok {
		return slot
	}
	return -1
}

// SlotBound returns the session's current exclusive slot bound.
func (m *StoreMut) SlotBound() int { return m.recs.Len() }

// Len returns the session's current object count.
func (m *StoreMut) Len() int { return len(m.byID) }

// Freeze publishes the session as an immutable Store. The session keeps
// working afterwards; all its storage reverts to shared, so later edits
// copy again instead of mutating the published version.
func (m *StoreMut) Freeze() *Store {
	m.owned = false
	return &Store{byID: m.byID, recs: m.recs.Freeze(), free: m.free, next: m.next}
}
