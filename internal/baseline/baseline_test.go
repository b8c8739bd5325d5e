package baseline

import (
	"math"
	"sort"
	"testing"

	"repro/internal/distance"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
)

func smallMallIndex(t *testing.T) (*index.Index, *indoor.Building) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 80, Radius: 5, Instances: 10, Seed: 3})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, b
}

// The precomputed door-to-door matrix must agree with the on-the-fly
// engine: for sampled doors, matrix distance == Dijkstra distance.
func TestPrecomputeMatchesEngine(t *testing.T) {
	idx, b := smallMallIndex(t)
	pre := Precompute(idx)
	if pre.NDoors == 0 {
		t.Fatal("no doors precomputed")
	}
	if pre.Elapsed <= 0 {
		t.Error("elapsed time must be recorded")
	}
	// Sanity: matrix is non-negative with a zero diagonal and satisfies
	// the triangle inequality on a sample.
	n := pre.NDoors
	for i := 0; i < n; i += 7 {
		if pre.D[i][i] != 0 {
			t.Fatalf("D[%d][%d] = %g", i, i, pre.D[i][i])
		}
		for j := 0; j < n; j += 11 {
			if pre.D[i][j] < 0 {
				t.Fatalf("negative distance D[%d][%d]", i, j)
			}
			for k := 0; k < n; k += 13 {
				if !math.IsInf(pre.D[i][k], 1) && !math.IsInf(pre.D[k][j], 1) &&
					pre.D[i][j] > pre.D[i][k]+pre.D[k][j]+1e-6 {
					t.Fatalf("triangle violation (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	_ = b
}

func TestEstimatePrecomputeTime(t *testing.T) {
	idx, _ := smallMallIndex(t)
	per, total, doors := EstimatePrecomputeTime(idx, 10)
	if doors == 0 || per <= 0 || total <= 0 {
		t.Fatalf("estimate: per=%v total=%v doors=%d", per, total, doors)
	}
	if total < per {
		t.Error("total must be at least one per-source cost")
	}
}

func TestOracleConsistency(t *testing.T) {
	idx, b := smallMallIndex(t)
	or := NewOracle(idx)
	q := gen.QueryPoints(b, 1, 5)[0]
	all, err := or.AllDistances(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != idx.Current().Objects().Len() {
		t.Fatalf("oracle covered %d of %d objects", len(all), idx.Current().Objects().Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i].D < all[i-1].D {
			t.Fatal("oracle distances not sorted")
		}
	}
	// Range/KNN derive from AllDistances.
	r := all[len(all)/2].D
	ids, err := or.Range(q, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, od := range all {
		in := od.D <= r
		found := false
		for _, id := range ids {
			if id == od.ID {
				found = true
				break
			}
		}
		if in != found {
			t.Fatalf("range membership mismatch for %d", od.ID)
		}
	}
	top, err := or.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("kNN returned %d", len(top))
	}
	for i := range top {
		if top[i] != all[i] {
			t.Fatal("kNN must be the prefix of AllDistances")
		}
	}
	// Oracle distances agree with a directly-built full engine.
	eng, err := distance.NewFull(idx.Current(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, od := range all[:10] {
		d, _ := eng.ExactDist(idx.Current().Objects().Get(od.ID))
		if math.Abs(d-od.D) > 1e-9 {
			t.Fatalf("oracle %g != engine %g", od.D, d)
		}
	}
	if _, err := or.KNN(indoor.Pos(-1, -1, 0), 3); err == nil {
		t.Error("oracle outside the building must error")
	}
}

// refDijkstra is the textbook O(n²) array Dijkstra from src over adjacency
// lists; unreachable nodes stay at +Inf.
func refDijkstra(adj [][]refEdge, src int) []float64 {
	dist := make([]float64, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	settled := make([]bool, len(adj))
	for {
		u := -1
		for v := range dist {
			if !settled[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		settled[u] = true
		for _, e := range adj[u] {
			if nd := dist[u] + e.w; nd < dist[e.to] {
				dist[e.to] = nd
			}
		}
	}
}

type refEdge struct {
	to int
	w  float64
}

// TestPrecomputeMatchesReference rebuilds the §II-A doors graph from the
// index's units — an edge a→b through unit u iff a permits entry into u,
// weighted by u's walking distance — on a mall with closed and one-way
// doors, and requires every row of the precomputed matrix to equal a
// reference Dijkstra bit for bit once mapped through the dense door ids.
func TestPrecomputeMatchesReference(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 2, OneWayFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	oneWay, closed := 0, 0
	for _, d := range b.Doors() {
		if d.OneWay {
			oneWay++
		} else if closed < 3 && d.P2 != indoor.NoPartition {
			if err := b.SetDoorClosed(d.ID, true); err != nil {
				t.Fatal(err)
			}
			closed++
		}
	}
	if oneWay == 0 || closed == 0 {
		t.Fatalf("fixture needs one-way and closed doors: %d one-way, %d closed", oneWay, closed)
	}
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := idx.Current()
	var units []*index.Unit
	snap.SearchTree(func(geom.Rect3) bool { return true }, func(u *index.Unit) {
		units = append(units, u)
	})
	sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })
	node := make(map[*index.DoorRef]int)
	var doors []*index.DoorRef
	var adj [][]refEdge
	nodeOf := func(d *index.DoorRef) int {
		n, ok := node[d]
		if !ok {
			n = len(doors)
			node[d] = n
			doors = append(doors, d)
			adj = append(adj, nil)
		}
		return n
	}
	for _, u := range units {
		for _, a := range u.Doors {
			if !a.CanEnter(u) {
				continue
			}
			na := nodeOf(a)
			for _, c := range u.Doors {
				if c != a {
					adj[na] = append(adj[na], refEdge{nodeOf(c), u.WalkDist(a.Position(), c.Position())})
				}
			}
		}
	}

	pre := Precompute(idx)
	dg := snap.DoorGraph()
	if pre.NDoors != dg.NumDoors() || pre.NDoors != len(doors) {
		t.Fatalf("NDoors = %d, door graph %d, reference %d", pre.NDoors, dg.NumDoors(), len(doors))
	}
	for s, ds := range doors {
		want := refDijkstra(adj, s)
		row := pre.D[dg.DoorID(ds)]
		for t2, dt := range doors {
			if got := row[dg.DoorID(dt)]; got != want[t2] {
				t.Fatalf("door %d → door %d: precomputed %g, reference %g", s, t2, got, want[t2])
			}
		}
	}
}
