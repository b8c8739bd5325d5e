// Package doorgraph holds the precompiled door-graph tier of the composite
// index: the full directed doors graph of §II-A — an edge a→b through unit
// u exists iff door a permits entry into u, weighted by the memoized
// intra-unit walking distance — flattened into a CSR adjacency over dense
// integer door ids.
//
// Lifecycle (compile / epoch / slice). The index compiles the graph once at
// build time and stamps it with the topology epoch; every topology mutator
// (partition insert/remove, door attach/detach/closure, split/merge) bumps
// the epoch, and the next query lazily recompiles. Query engines never copy
// or rebuild the graph: they *slice* it, seeding a multi-source Dijkstra at
// the query unit's doors and restricting edge relaxation to the doors of
// their candidate unit set through a generation-stamped mark set. The
// per-query state (distances, heap, marks) lives in a pooled graph.Scratch,
// so steady-state queries allocate nothing on this path. The unrestricted
// full-building search runs the same loop lazily (DijkstraTo): it pauses
// once the door asked for is settled and resumes on the next ask.
//
// The package is deliberately index-agnostic: the index enumerates doors
// and units into dense ids and feeds edges to a Builder; this package owns
// only the flat representation and the restricted search over it.
package doorgraph

import "repro/internal/graph"

// Edge is one directed door-to-door hop: To is the dense id of the
// destination door, Unit the dense slot of the unit the hop crosses, and W
// the intra-unit walking distance between the two doors.
type Edge struct {
	To   int32
	Unit int32
	W    float64
}

// Graph is the compiled doors graph: CSR offsets into a flat edge array.
// It is immutable after Build and safe for concurrent readers.
type Graph struct {
	off    []int32
	edges  []Edge
	nUnits int
}

// NumDoors returns the number of door nodes.
func (g *Graph) NumDoors() int { return len(g.off) - 1 }

// NumUnits returns the number of unit slots edges may reference.
func (g *Graph) NumUnits() int { return g.nUnits }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Dijkstra runs the seeded shortest-path search over the compiled graph to
// completion. Seeds must already be pushed into sc (Improve + Push) and sc
// must have been Reset to (NumDoors, NumUnits). Nodes farther than bound
// stay at +Inf. When restricted, an edge is relaxed only if its
// through-unit is marked in sc — the "slice by unit-set membership" of the
// subgraph phase. Final distances are read back through sc.Dist.
func (g *Graph) Dijkstra(sc *graph.Scratch, bound float64, restricted bool) {
	g.DijkstraTo(sc, bound, restricted, -1)
}

// DijkstraTo is Dijkstra paused as soon as node stop is settled: the heap
// is empty or its smallest key is no less than stop's tentative distance,
// so no later relaxation can lower it. A negative stop runs to completion.
// Calling it again on the same scratch resumes the search where it paused;
// pausing never reorders pops or relaxations, so every settled node holds
// exactly the distance an uninterrupted run gives it.
func (g *Graph) DijkstraTo(sc *graph.Scratch, bound float64, restricted bool, stop int32) {
	for {
		if stop >= 0 && sc.Top() >= sc.Dist(stop) {
			return
		}
		node, d, ok := sc.Pop()
		if !ok {
			return
		}
		if d > sc.Dist(node) { // stale heap entry
			continue
		}
		for _, e := range g.edges[g.off[node]:g.off[node+1]] {
			if restricted && !sc.Marked(e.Unit) {
				continue
			}
			nd := d + e.W
			if nd <= bound && sc.Improve(e.To, nd) {
				sc.Push(e.To, nd)
			}
		}
	}
}

// Builder accumulates edges and compiles them into a Graph. Edges may be
// added in any order; Build counting-sorts them by source door.
type Builder struct {
	nDoors, nUnits int
	from           []int32
	edges          []Edge
}

// NewBuilder returns a builder for a graph over nDoors doors and nUnits
// unit slots.
func NewBuilder(nDoors, nUnits int) *Builder {
	return &Builder{nDoors: nDoors, nUnits: nUnits}
}

// Grow pre-allocates room for n edges.
func (b *Builder) Grow(n int) {
	if cap(b.from) < n {
		from := make([]int32, len(b.from), n)
		copy(from, b.from)
		b.from = from
		edges := make([]Edge, len(b.edges), n)
		copy(edges, b.edges)
		b.edges = edges
	}
}

// AddEdge records the directed hop from→to through unit with walking
// distance w.
func (b *Builder) AddEdge(from, to, unit int32, w float64) {
	b.from = append(b.from, from)
	b.edges = append(b.edges, Edge{To: to, Unit: unit, W: w})
}

// Build compiles the accumulated edges into the CSR form. Edges of one
// door keep their insertion order relative to each other.
func (b *Builder) Build() *Graph {
	g := &Graph{off: make([]int32, b.nDoors+1), nUnits: b.nUnits}
	for _, f := range b.from {
		g.off[f+1]++
	}
	for i := 1; i <= b.nDoors; i++ {
		g.off[i] += g.off[i-1]
	}
	g.edges = make([]Edge, len(b.edges))
	cursor := make([]int32, b.nDoors)
	for i, f := range b.from {
		g.edges[g.off[f]+cursor[f]] = b.edges[i]
		cursor[f]++
	}
	return g
}
