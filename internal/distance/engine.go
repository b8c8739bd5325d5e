// Package distance implements the paper's indoor distance machinery (§II):
// expected indoor distances of uncertain objects (Equations 2–6) evaluated
// through the composite index without any pre-computed door-to-door
// distances, plus every bound the query algorithms prune with — the
// Euclidean/skeleton geometric lower bound (Lemma 6), the topological
// upper/lower bounds (Lemmas 1–3, Equation 7) and the probabilistic bounds
// for multi-partition objects (Lemmas 4–5, Equation 8).
//
// An Engine is the subgraph phase of §IV-B made reusable: it binds one
// query point and its skeleton anchor, runs a multi-source Dijkstra over
// the doors of a restricted unit set, and then answers bound and
// exact-distance requests for any object whose uncertainty region lies in
// those units.
package distance

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/indoor"
)

// Engine holds single-source (the query point) shortest-path distances to
// every door of a restricted set of index units. Distances to doors outside
// the set are +Inf; evaluation against such doors produces sound brackets
// via the cap discipline (see ExactDistBracket and the package note in
// expected.go); query refinement resolves a bracket that stays open on a
// full engine (NewFull).
//
// An Engine never assembles a graph: it slices the index's precompiled
// door-graph tier by unit-set membership, seeding a Dijkstra whose working
// storage (distances, heap, marks) comes from the shared scratch pool in
// internal/graph. Call Close when done with the engine to return the
// scratch to the pool; a forgotten Close costs pooling, not correctness.
// An Engine is not safe for concurrent use.
type Engine struct {
	idx    *index.Snapshot
	q      indoor.Position
	qUnit  *index.Unit
	dg     *index.DoorGraph
	sc     *graph.Scratch
	anchor *index.SkelAnchor
	full   bool

	// reach is a full engine's largest finite door distance handed out,
	// +Inf once it resolved an unreachable object (see Reach).
	reach float64

	// Reusable evaluation buffers, recycled across engines through the
	// package pool (see batch.go).
	bufs *evalBufs

	// Stats counts which expected-distance case (§II-C) each evaluated
	// subregion hit.
	Stats CaseStats
}

// CaseStats tallies the three indoor-distance cases of §II-C.
type CaseStats struct {
	SinglePath  int // single-partition single-path, Equation 3
	MultiPath   int // single-partition multi-path, Equation 4
	Unreachable int
}

// New builds an engine over the given candidate units (the output of the
// filtering phase) against one pinned index snapshot. The query point's
// own unit is always included. a is q's skeleton anchor on idx, which the
// query evaluation shares with its filtering phase.
func New(idx *index.Snapshot, q indoor.Position, a *index.SkelAnchor, unitIDs []index.UnitID) (*Engine, error) {
	return build(idx, q, a, unitIDs, false)
}

// NewFull builds an engine over every unit of the index: the reference
// evaluator used for refinement fallback and as the test oracle's
// counterpart. It only seeds the search: each DoorDist resumes the
// unrestricted Dijkstra until the asked door is settled, so an engine that
// reads the doors near q never walks the rest of the building. The
// distances are bit-identical to a search run to completion.
func NewFull(idx *index.Snapshot, q indoor.Position) (*Engine, error) {
	return NewFullAnchored(idx, q, idx.NewSkelAnchor(q))
}

// NewFullAnchored is NewFull with q's skeleton anchor on idx supplied, as
// New takes it: a query evaluation hands its full rung the anchor its
// filtering phase already built.
func NewFullAnchored(idx *index.Snapshot, q indoor.Position, a *index.SkelAnchor) (*Engine, error) {
	return build(idx, q, a, nil, true)
}

// build performs the subgraph phase against the precompiled door-graph
// tier: mark the unit set's slots, seed the doors of the query point's
// unit, and run the membership-restricted Dijkstra in pooled scratch
// storage. A full engine skips the marking and leaves the unrestricted
// search to DoorDist.
func build(idx *index.Snapshot, q indoor.Position, a *index.SkelAnchor, unitIDs []index.UnitID, full bool) (*Engine, error) {
	qUnit := idx.LocateUnit(q)
	if qUnit == nil {
		return nil, fmt.Errorf("distance: query point %v is outside every partition", q)
	}
	e := &Engine{idx: idx, q: q, qUnit: qUnit, anchor: a, full: full}
	e.dg = e.idx.DoorGraph()
	e.bufs = acquireEvalBufs()
	e.sc = graph.AcquireScratch()
	e.sc.Reset(e.dg.NumDoors(), e.dg.NumUnits())
	if !e.full {
		for _, id := range unitIDs {
			if s := e.dg.UnitSlot(id); s >= 0 {
				e.sc.Mark(s)
			}
		}
		if s := e.dg.UnitSlot(e.qUnit.ID); s >= 0 {
			e.sc.Mark(s)
		}
	}
	for _, d := range e.qUnit.Doors {
		gid := e.dg.DoorID(d)
		if gid < 0 {
			continue
		}
		if w := e.qUnit.WalkDist(e.q, d.Position()); e.sc.Improve(gid, w) {
			e.sc.Push(gid, w)
		}
	}
	if !e.full {
		e.dg.Graph().Dijkstra(e.sc, math.Inf(1), true)
	}
	return e, nil
}

// Rebind switches the engine's object-layer reads to a newer snapshot and
// reports whether it could. It succeeds only when the snapshots share the
// same topology epoch: the engine's cached door distances, query unit,
// anchor and compiled graph are all topology-derived, so they stay exact,
// while subsequent ObjectBounds/TLU/ExactDist calls read the new
// snapshot's object records. The subscription engine rebinds its
// standing engines after every object update instead of re-running the
// subgraph phase. Across a topology commit the rebind fails; the caller
// then either carries the engine (Carry) or refreshes it.
func (e *Engine) Rebind(s *index.Snapshot) bool {
	if s.TopoEpoch() != e.idx.TopoEpoch() {
		return false
	}
	e.idx = s
	return true
}

// Carry moves a restricted engine to a snapshot of a later topology epoch
// whose commit changed no unit within the engine's radius: it reads units
// and objects from s but keeps the door distances and the compiled graph
// of the epoch it was built at. Door ids translate by the immutable
// DoorRef serial, so the old graph still indexes every unchanged door; a
// door created since resolves to +Inf, which the cap discipline reads as
// "beyond cap" — sound, because a new door lies in a changed unit, and
// every changed unit is farther than cap. Deciding that the commit left
// the radius untouched is the caller's job (Snapshot.TopoDelta plus the
// Equation 10 bound). A full engine must not be carried: it is
// unrestricted, so its distances beyond Reach may be stale.
func (e *Engine) Carry(s *index.Snapshot) { e.idx = s }

// Reach reports which part of the topology a full engine's answers so far
// depend on: the largest finite door distance it handed out, or +Inf once
// it resolved an unreachable object (opening a door anywhere may make it
// reachable). A topology change farther than Reach from the query point,
// by the Equation 10 bound, cannot change any of those answers: a door
// distance d is a shortest path that never leaves the units within d, and
// a new path through a changed unit is longer than d. Only distances
// handed out count, not the doors the lazy search settled on the way to
// them. Zero for an engine that handed out nothing, and for restricted
// engines, whose radius is their cap.
func (e *Engine) Reach() float64 { return e.reach }

// Close releases the engine's pooled scratch storage and evaluation
// buffers. The engine must not be used afterwards; Close is idempotent and
// safe on a nil engine.
func (e *Engine) Close() {
	if e == nil || e.sc == nil {
		return
	}
	e.sc.Release()
	e.sc = nil
	if e.bufs != nil {
		e.bufs.release()
		e.bufs = nil
	}
}

// DoorDist returns the indoor distance from the query point to a door
// (+Inf when the door is outside the engine's unit set or unreachable). On
// a full engine it first resumes the paused search until the door is
// settled — an unreachable door drains it — so a read writes the engine's
// scratch; like the rest of the engine it must not be called concurrently.
func (e *Engine) DoorDist(d *index.DoorRef) float64 {
	n := e.dg.DoorID(d)
	if n < 0 {
		return math.Inf(1)
	}
	if !e.full {
		return e.sc.Dist(n)
	}
	e.dg.Graph().DijkstraTo(e.sc, math.Inf(1), false, n)
	v := e.sc.Dist(n)
	if v > e.reach && !math.IsInf(v, 1) {
		e.reach = v
	}
	return v
}

// InUnitSet reports whether a unit belongs to the engine's restricted set
// (every unit does, for a full engine).
func (e *Engine) InUnitSet(id index.UnitID) bool {
	if e.full {
		return true
	}
	s := e.dg.UnitSlot(id)
	return s >= 0 && e.sc.Marked(s)
}

// PointDist returns the indoor distance |q, p|I to a fixed point. The
// boolean is false when p's unit has doors outside the engine's reach, in
// which case the value is only an upper view and the caller should retry
// with a full engine.
func (e *Engine) PointDist(p indoor.Position) (float64, bool) {
	u := e.idx.LocateUnit(p)
	if u == nil {
		return math.Inf(1), true
	}
	best := math.Inf(1)
	if u.ID == e.qUnit.ID {
		best = u.WalkDist(e.q, p)
	}
	complete := e.InUnitSet(u.ID)
	for _, d := range u.Doors {
		if !d.CanEnter(u) {
			continue
		}
		base := e.DoorDist(d)
		if math.IsInf(base, 1) {
			if !e.full {
				complete = false
			}
			continue
		}
		if v := base + u.WalkDist(d.Position(), p); v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) && e.full {
		complete = true
	}
	return best, complete
}
