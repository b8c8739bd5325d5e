package doorgraph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// buildLine compiles a 4-door chain 0-1-2-3 where each hop crosses unit i
// with weight 1, in both directions.
func buildLine() *Graph {
	b := NewBuilder(4, 3)
	for i := int32(0); i < 3; i++ {
		b.AddEdge(i, i+1, i, 1)
		b.AddEdge(i+1, i, i, 1)
	}
	return b.Build()
}

func runDijkstra(g *Graph, seeds map[int32]float64, bound float64, marked []int32, restricted bool) *graph.Scratch {
	sc := graph.AcquireScratch()
	sc.Reset(g.NumDoors(), g.NumUnits())
	for _, u := range marked {
		sc.Mark(u)
	}
	for n, d := range seeds {
		if d <= bound && sc.Improve(n, d) {
			sc.Push(n, d)
		}
	}
	g.Dijkstra(sc, bound, restricted)
	return sc
}

func TestUnrestrictedChain(t *testing.T) {
	g := buildLine()
	sc := runDijkstra(g, map[int32]float64{0: 0}, math.Inf(1), nil, false)
	defer sc.Release()
	for i, want := range []float64{0, 1, 2, 3} {
		if got := sc.Dist(int32(i)); got != want {
			t.Errorf("dist[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestRestrictionBlocksUnmarkedUnits(t *testing.T) {
	g := buildLine()
	// Only units 0 and 1 are in the set: door 3 (reached through unit 2)
	// must stay at +Inf.
	sc := runDijkstra(g, map[int32]float64{0: 0}, math.Inf(1), []int32{0, 1}, true)
	defer sc.Release()
	if got := sc.Dist(2); got != 2 {
		t.Errorf("dist[2] = %g, want 2", got)
	}
	if got := sc.Dist(3); !math.IsInf(got, 1) {
		t.Errorf("dist[3] = %g, want +Inf (unit 2 unmarked)", got)
	}
}

func TestBoundCutsSearch(t *testing.T) {
	g := buildLine()
	sc := runDijkstra(g, map[int32]float64{0: 0}, 1.5, nil, false)
	defer sc.Release()
	if got := sc.Dist(1); got != 1 {
		t.Errorf("dist[1] = %g, want 1", got)
	}
	if got := sc.Dist(2); !math.IsInf(got, 1) {
		t.Errorf("dist[2] = %g, want +Inf beyond bound", got)
	}
}

func TestBuilderOrderIndependence(t *testing.T) {
	// The same edges added in different orders give identical distances.
	a := NewBuilder(3, 1)
	a.AddEdge(0, 1, 0, 1)
	a.AddEdge(1, 2, 0, 2)
	a.AddEdge(0, 2, 0, 5)
	b := NewBuilder(3, 1)
	b.AddEdge(0, 2, 0, 5)
	b.AddEdge(0, 1, 0, 1)
	b.AddEdge(1, 2, 0, 2)
	for _, g := range []*Graph{a.Build(), b.Build()} {
		sc := runDijkstra(g, map[int32]float64{0: 0}, math.Inf(1), nil, false)
		if got := sc.Dist(2); got != 3 {
			t.Errorf("dist[2] = %g, want 3", got)
		}
		sc.Release()
	}
}

// refEdge is one directed edge of the reference graph.
type refEdge struct {
	from, to int
	w        float64
}

// refDijkstra is the textbook O(n²) array Dijkstra from src: each round
// settles the closest unsettled node, and a relaxation is kept only when it
// improves a distance and stays within bound. Nodes beyond bound or
// unreachable stay at +Inf. Every correct Dijkstra sums the same edges
// along the same shortest paths, so its distances must match the CSR
// search bit for bit.
func refDijkstra(n int, edges []refEdge, src int, bound float64) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	settled := make([]bool, n)
	if bound >= 0 {
		dist[src] = 0
	}
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !settled[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		settled[u] = true
		for _, e := range edges {
			if e.from != u {
				continue
			}
			if nd := dist[u] + e.w; nd < dist[e.to] && nd <= bound {
				dist[e.to] = nd
			}
		}
	}
}

// TestAgainstReferenceGraph cross-checks the CSR Dijkstra against the
// array reference on random graphs, restricted and not.
func TestAgainstReferenceGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nDoors := 2 + rng.Intn(40)
		nUnits := 1 + rng.Intn(8)
		nEdges := rng.Intn(4 * nDoors)
		type edge struct {
			from, to, unit int32
			w              float64
		}
		edges := make([]edge, nEdges)
		bld := NewBuilder(nDoors, nUnits)
		var ref []refEdge
		marked := make([]int32, 0, nUnits)
		inSet := make(map[int32]bool)
		for u := int32(0); u < int32(nUnits); u++ {
			if rng.Intn(2) == 0 {
				marked = append(marked, u)
				inSet[u] = true
			}
		}
		for i := range edges {
			e := edge{
				from: int32(rng.Intn(nDoors)), to: int32(rng.Intn(nDoors)),
				unit: int32(rng.Intn(nUnits)), w: rng.Float64() * 10,
			}
			edges[i] = e
			bld.AddEdge(e.from, e.to, e.unit, e.w)
			if inSet[e.unit] {
				ref = append(ref, refEdge{int(e.from), int(e.to), e.w})
			}
		}
		g := bld.Build()
		if g.NumEdges() != nEdges {
			t.Fatalf("trial %d: %d edges compiled, want %d", trial, g.NumEdges(), nEdges)
		}
		src := int32(rng.Intn(nDoors))
		bound := math.Inf(1)
		if rng.Intn(2) == 0 {
			bound = rng.Float64() * 20
		}
		want := refDijkstra(nDoors, ref, int(src), bound)
		sc := runDijkstra(g, map[int32]float64{src: 0}, bound, marked, true)
		for i := 0; i < nDoors; i++ {
			if got := sc.Dist(int32(i)); got != want[i] {
				t.Fatalf("trial %d: dist[%d] = %g, reference %g", trial, i, got, want[i])
			}
		}
		sc.Release()
	}
}

func TestScratchReuseIsolation(t *testing.T) {
	// A released and re-acquired scratch must not leak distances or marks
	// from the previous search.
	g := buildLine()
	sc := runDijkstra(g, map[int32]float64{0: 0}, math.Inf(1), []int32{0, 1, 2}, true)
	sc.Release()
	sc2 := graph.AcquireScratch()
	sc2.Reset(g.NumDoors(), g.NumUnits())
	defer sc2.Release()
	for i := int32(0); i < 4; i++ {
		if !math.IsInf(sc2.Dist(i), 1) {
			t.Fatalf("fresh scratch dist[%d] = %g, want +Inf", i, sc2.Dist(i))
		}
	}
	for u := int32(0); u < 3; u++ {
		if sc2.Marked(u) {
			t.Fatalf("fresh scratch still has unit %d marked", u)
		}
	}
}
