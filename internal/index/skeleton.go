package index

import (
	"math"

	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Skeleton is the skeleton tier of §III-A.5: a small graph whose nodes are
// staircase entrances, with the all-pairs entrance-to-entrance distance
// matrix Ms2s. The tier supports the skeleton distance (Definition 2) and
// the geometric lower bound (Lemma 6, Equation 10) used to constrain tree
// traversal.
type Skeleton struct {
	entrances []entrance
	byFloor   map[int][]int // entrance indices per floor
	m         [][]float64   // Ms2s
}

// entrance is one staircase entrance: the door joining a staircase to a
// regular partition on some floor.
type entrance struct {
	pos   geom.Point
	floor int
	door  indoor.DoorID
	stair indoor.PartitionID
}

// buildSkeleton collects staircase entrances from the building and computes
// Ms2s per the four properties of §III-A.5:
//
//	(1) Ms2s[s, s] = 0;
//	(2) same-floor entrances: straight Euclidean distance;
//	(3) entrances of one staircase: the stair run length;
//	(4) otherwise: shortest path in the skeleton graph.
func buildSkeleton(b *indoor.Building) *Skeleton {
	sk := &Skeleton{byFloor: make(map[int][]int)}
	for _, d := range b.Doors() {
		stair := staircaseSide(b, d)
		if stair == indoor.NoPartition {
			continue
		}
		sk.entrances = append(sk.entrances, entrance{
			pos: d.Pos, floor: d.Floor, door: d.ID, stair: stair,
		})
	}
	for i, e := range sk.entrances {
		sk.byFloor[e.floor] = append(sk.byFloor[e.floor], i)
	}

	n := len(sk.entrances)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = math.Inf(1)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ei, ej := sk.entrances[i], sk.entrances[j]
			switch {
			case ei.stair == ej.stair:
				run := b.Partition(ei.stair).StairLength
				m[i][j], m[j][i] = run, run
			case ei.floor == ej.floor:
				w := ei.pos.DistTo(ej.pos)
				m[i][j], m[j][i] = w, w
			}
		}
	}
	// Property (4): Floyd–Warshall in place over the entrance matrix, one
	// row per staircase entrance.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := m[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + m[k][j]; nd < m[i][j] {
					m[i][j] = nd
				}
			}
		}
	}
	sk.m = m
	return sk
}

// staircaseSide returns the staircase partition of a staircase-entrance
// door (a door with exactly one staircase side), or NoPartition.
func staircaseSide(b *indoor.Building, d *indoor.Door) indoor.PartitionID {
	var stair indoor.PartitionID = indoor.NoPartition
	p1 := b.Partition(d.P1)
	if p1 != nil && p1.Kind == indoor.Staircase {
		stair = d.P1
	}
	if d.P2 != indoor.NoPartition {
		p2 := b.Partition(d.P2)
		if p2 != nil && p2.Kind == indoor.Staircase {
			if stair != indoor.NoPartition {
				return indoor.NoPartition // staircase-to-staircase door: not an entrance
			}
			stair = d.P2
		}
	}
	return stair
}

// NumEntrances returns the number of staircase entrances M.
func (sk *Skeleton) NumEntrances() int { return len(sk.entrances) }

// Ms2s returns the matrix entry between entrances i and j.
func (sk *Skeleton) Ms2s(i, j int) float64 { return sk.m[i][j] }

// Dist implements Definition 2, the skeleton distance |q, p|K: the planar
// Euclidean distance on a shared floor, otherwise the cheapest
// entrance-to-entrance route. It returns +Inf when no staircase route
// exists.
func (sk *Skeleton) Dist(q, p indoor.Position) float64 {
	if q.Floor == p.Floor {
		return q.Pt.DistTo(p.Pt)
	}
	best := math.Inf(1)
	for _, i := range sk.byFloor[q.Floor] {
		for _, j := range sk.byFloor[p.Floor] {
			d := q.Pt.DistTo(sk.entrances[i].pos) + sk.m[i][j] + sk.entrances[j].pos.DistTo(p.Pt)
			if d < best {
				best = d
			}
		}
	}
	return best
}

// MinDistRect implements Equation 10, the minimum skeleton distance
// |q, e|minK from a query position to an entity spanning the planar
// rectangle r over floors [lo, hi]. It lower-bounds the indoor distance to
// every point of the entity (Lemma 6 plus the descendant-containment note).
func (sk *Skeleton) MinDistRect(q indoor.Position, r geom.Rect, lo, hi int) float64 {
	if q.Floor >= lo && q.Floor <= hi {
		return r.MinDist(q.Pt)
	}
	best := math.Inf(1)
	for _, f := range []int{lo, hi} {
		for _, i := range sk.byFloor[q.Floor] {
			for _, j := range sk.byFloor[f] {
				d := q.Pt.DistTo(sk.entrances[i].pos) + sk.m[i][j] + r.MinDist(sk.entrances[j].pos)
				if d < best {
					best = d
				}
			}
		}
		if lo == hi {
			break
		}
	}
	return best
}

// SkelAnchor caches one query position's skeleton reachability: for every
// entrance j, the cheapest cost of reaching j from q through the skeleton
// (min over same-floor entrances i of |q, e_i| + Ms2s[i, j]). Anchoring
// turns every subsequent Equation 10 evaluation from a double loop over
// entrance pairs into a single loop over the target floor's entrances —
// the filtering phase evaluates the bound against thousands of tree boxes
// per query, so the factor matters. The anchor is bound to the skeleton of
// the snapshot that created it; like the snapshot itself it stays valid
// indefinitely.
type SkelAnchor struct {
	sk *Skeleton
	q  indoor.Position
	to []float64 // per entrance: cheapest q→entrance route, +Inf if none
}

// NewSkelAnchor anchors q against the snapshot's skeleton tier.
func (s *Snapshot) NewSkelAnchor(q indoor.Position) *SkelAnchor {
	sk := s.topo.skeleton
	a := &SkelAnchor{sk: sk, q: q, to: make([]float64, len(sk.entrances))}
	for j := range a.to {
		a.to[j] = math.Inf(1)
	}
	for _, i := range sk.byFloor[q.Floor] {
		base := q.Pt.DistTo(sk.entrances[i].pos)
		for j := range a.to {
			if d := base + sk.m[i][j]; d < a.to[j] {
				a.to[j] = d
			}
		}
	}
	return a
}

// MinDistRect is Skeleton.MinDistRect evaluated through the anchor; the
// two agree exactly.
func (a *SkelAnchor) MinDistRect(r geom.Rect, lo, hi int) float64 {
	if a.q.Floor >= lo && a.q.Floor <= hi {
		return r.MinDist(a.q.Pt)
	}
	best := math.Inf(1)
	for _, f := range []int{lo, hi} {
		for _, j := range a.sk.byFloor[f] {
			if a.to[j] >= best {
				continue
			}
			if d := a.to[j] + r.MinDist(a.sk.entrances[j].pos); d < best {
				best = d
			}
		}
		if lo == hi {
			break
		}
	}
	return best
}

// AnchorMinDistBox evaluates Equation 10 against a tree-tier box through
// the anchor (the anchored MinSkelDistBox).
func (s *Snapshot) AnchorMinDistBox(a *SkelAnchor, b geom.Rect3) float64 {
	lo, hi := s.FloorsOfBox(b)
	return a.MinDistRect(b.Rect, lo, hi)
}

// AnchorMinDistUnit evaluates Equation 10 against an index unit through
// the anchor.
func (s *Snapshot) AnchorMinDistUnit(a *SkelAnchor, u *Unit) float64 {
	return a.MinDistRect(u.Rect, u.FloorLo, u.FloorHi)
}

// AnchorObjectMinSkel is ObjectMinSkel through the anchor.
func (s *Snapshot) AnchorObjectMinSkel(a *SkelAnchor, id object.ID) float64 {
	best := math.Inf(1)
	for _, sub := range s.entryOf(id).subs {
		u := s.topo.unitAt(sub.Unit)
		if u == nil {
			continue
		}
		if v := a.MinDistRect(sub.MBR, u.FloorLo, u.FloorHi); v < best {
			best = v
		}
	}
	return best
}

// MinSkelDistBox evaluates Equation 10 against a tree-tier box.
func (s *Snapshot) MinSkelDistBox(q indoor.Position, b geom.Rect3) float64 {
	lo, hi := s.FloorsOfBox(b)
	return s.topo.skeleton.MinDistRect(q, b.Rect, lo, hi)
}

// MinSkelDistUnit evaluates Equation 10 against an index unit.
func (s *Snapshot) MinSkelDistUnit(q indoor.Position, u *Unit) float64 {
	return s.topo.skeleton.MinDistRect(q, u.Rect, u.FloorLo, u.FloorHi)
}

// SkeletonDist is Definition 2 for two indoor positions.
func (s *Snapshot) SkeletonDist(q, p indoor.Position) float64 {
	return s.topo.skeleton.Dist(q, p)
}

// Index-level skeleton conveniences over the current snapshot. Anchors
// deliberately have no Index-level counterparts: a SkelAnchor is bound to
// the snapshot that created it, and evaluating it against a *different*
// (current) snapshot would mix index versions — pin a Snapshot and anchor
// through it instead.

// MinSkelDistBox evaluates Equation 10 against a tree-tier box.
func (idx *Index) MinSkelDistBox(q indoor.Position, b geom.Rect3) float64 {
	return idx.Current().MinSkelDistBox(q, b)
}

// MinSkelDistUnit evaluates Equation 10 against an index unit.
func (idx *Index) MinSkelDistUnit(q indoor.Position, u *Unit) float64 {
	return idx.Current().MinSkelDistUnit(q, u)
}

// SkeletonDist is Definition 2 for two indoor positions.
func (idx *Index) SkeletonDist(q, p indoor.Position) float64 {
	return idx.Current().SkeletonDist(q, p)
}
