package index

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Subregion is an uncertainty subregion S[j] of §II-B resolved against the
// index: the instances of one object falling into one index unit, with
// their aggregate probability mass and planar MBR. Instances are referenced
// by position in Object.Instances to avoid duplicating them.
type Subregion struct {
	Unit UnitID
	// Idx are indices into the object's Instances slice.
	Idx  []int
	Prob float64
	MBR  geom.Rect
}

// computeSubregions groups an object's instances by index unit using the
// supplied locator (the tree tier by default; moveObject passes an
// adjacency-accelerated locator). Instances the locator cannot place are
// dropped from subregions; the generator keeps all instances inside
// walkable space, so this only occurs transiently during topology changes.
func computeSubregions(o *object.Object, locate func(indoor.Position) *Unit) []Subregion {
	byUnit := make(map[UnitID]*Subregion)
	var order []UnitID
	for i, in := range o.Instances {
		u := locate(in.Pos)
		if u == nil {
			continue
		}
		s := byUnit[u.ID]
		if s == nil {
			s = &Subregion{Unit: u.ID, MBR: geom.EmptyRect}
			byUnit[u.ID] = s
			order = append(order, u.ID)
		}
		s.Idx = append(s.Idx, i)
		s.Prob += in.P
		s.MBR = s.MBR.Union(geom.Rect{
			MinX: in.Pos.Pt.X, MinY: in.Pos.Pt.Y,
			MaxX: in.Pos.Pt.X, MaxY: in.Pos.Pt.Y,
		})
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]Subregion, 0, len(order))
	for _, uid := range order {
		out = append(out, *byUnit[uid])
	}
	return out
}

// ObjectSubregions returns the cached subregion split of an object, or nil
// for unknown objects. The returned slice is owned by the snapshot.
func (s *Snapshot) ObjectSubregions(id object.ID) []Subregion {
	return s.entryOf(id).subs
}

// ObjectMinEuclid3 returns the 3D Euclidean lower bound from q to any
// subregion MBR — the weaker geometric bound used when the skeleton tier is
// disabled (the Fig 15(a) ablation).
func (s *Snapshot) ObjectMinEuclid3(q indoor.Position, id object.ID) float64 {
	qz := geom.Pt3(q.Pt.X, q.Pt.Y, s.b.Elevation(q.Floor))
	best := math.Inf(1)
	for _, sub := range s.entryOf(id).subs {
		u := s.topo.unitAt(sub.Unit)
		if u == nil {
			continue
		}
		box := geom.R3(sub.MBR, s.b.Elevation(u.FloorLo), s.b.Elevation(u.FloorHi))
		if v := box.MinDist3(qz); v < best {
			best = v
		}
	}
	return best
}

// MultiPartition reports whether the object's subregions span more than one
// indoor partition (the case routed to probabilistic bounds in Table III).
func (s *Snapshot) MultiPartition(id object.ID) bool {
	subs := s.entryOf(id).subs
	if len(subs) < 2 {
		return false
	}
	u0 := s.topo.unitAt(subs[0].Unit)
	if u0 == nil {
		return false
	}
	for _, sub := range subs[1:] {
		if u := s.topo.unitAt(sub.Unit); u != nil && u.Part != u0.Part {
			return true
		}
	}
	return false
}
