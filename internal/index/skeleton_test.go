package index

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/indoor"
)

func TestSkeletonEntranceCount(t *testing.T) {
	b := mall(t, 3)
	idx := buildIdx(t, b, nil)
	// 4 staircases per floor gap × 2 entrances × 2 gaps.
	if got := idx.Current().Skeleton().NumEntrances(); got != 16 {
		t.Errorf("entrances = %d, want 16", got)
	}
}

func TestSkeletonMatrixProperties(t *testing.T) {
	b := mall(t, 3)
	idx := buildIdx(t, b, nil)
	sk := idx.Current().Skeleton()
	n := sk.NumEntrances()
	for i := 0; i < n; i++ {
		if sk.Ms2s(i, i) != 0 {
			t.Errorf("Ms2s[%d][%d] = %g, want 0 (property 1)", i, i, sk.Ms2s(i, i))
		}
		for j := 0; j < n; j++ {
			if sk.Ms2s(i, j) < 0 {
				t.Errorf("negative skeleton distance at (%d,%d)", i, j)
			}
			if math.Abs(sk.Ms2s(i, j)-sk.Ms2s(j, i)) > 1e-9 {
				t.Errorf("asymmetric Ms2s at (%d,%d)", i, j)
			}
			// Triangle inequality via any intermediate k.
			for k := 0; k < n; k++ {
				if sk.Ms2s(i, j) > sk.Ms2s(i, k)+sk.Ms2s(k, j)+1e-9 {
					t.Fatalf("Ms2s violates triangle inequality at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	// Same-floor entrances: property (2), straight Euclidean distance.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ei, ej := sk.entrances[i], sk.entrances[j]
			if i != j && ei.floor == ej.floor {
				want := ei.pos.DistTo(ej.pos)
				if math.Abs(sk.Ms2s(i, j)-want) > 1e-9 {
					t.Errorf("same-floor Ms2s = %g, want Euclidean %g", sk.Ms2s(i, j), want)
				}
			}
		}
	}
}

func TestSkeletonDistSameFloor(t *testing.T) {
	b := mall(t, 2)
	idx := buildIdx(t, b, nil)
	q := indoor.Pos(100, 60, 0)
	p := indoor.Pos(500, 60, 0)
	if d := idx.SkeletonDist(q, p); math.Abs(d-400) > geom.Eps {
		t.Errorf("same-floor skeleton dist = %g, want Euclidean 400", d)
	}
}

func TestSkeletonDistCrossFloor(t *testing.T) {
	b := mall(t, 2)
	idx := buildIdx(t, b, nil)
	q := indoor.Pos(300, 60, 0)
	p := indoor.Pos(300, 60, 1)
	d := idx.SkeletonDist(q, p)
	if math.IsInf(d, 1) {
		t.Fatal("cross-floor skeleton distance must be finite with staircases")
	}
	// Must include the horizontal trip to a corner staircase and back: the
	// nearest staircase entrances sit at x=20 or x=580 on corridor 0, so
	// the trip is at least 2 × 280.
	if d < 2*280 {
		t.Errorf("cross-floor dist %g implausibly small", d)
	}
	// And it lower-bounds nothing smaller than straight 3D distance.
	if d < b.FloorHeight {
		t.Errorf("cross-floor dist %g < floor height", d)
	}
}

func TestSkeletonDistUnreachableWithoutStairs(t *testing.T) {
	b := mall(t, 1) // single floor: no staircases
	idx := buildIdx(t, b, nil)
	d := idx.Current().Skeleton().Dist(indoor.Pos(10, 10, 0), indoor.Pos(10, 10, 5))
	if !math.IsInf(d, 1) {
		t.Errorf("skeleton dist without stairs = %g, want +Inf", d)
	}
}

// Lemma 6 and footnote 3: the skeleton distance to a containing box never
// exceeds the distance to a contained box.
func TestMinSkelDistMonotoneInContainment(t *testing.T) {
	b := mall(t, 3)
	idx := buildIdx(t, b, nil)
	q := indoor.Pos(123, 234, 0)
	inner := geom.R(400, 400, 420, 420)
	outer := geom.R(390, 390, 470, 470)
	for _, floors := range [][2]int{{0, 0}, {1, 1}, {1, 2}} {
		di := idx.Current().Skeleton().MinDistRect(q, inner, floors[0], floors[1])
		do := idx.Current().Skeleton().MinDistRect(q, outer, floors[0], floors[1])
		if do > di+1e-9 {
			t.Errorf("floors %v: outer box farther than inner (%g > %g)", floors, do, di)
		}
	}
	// Widening the floor interval to include q's floor can only shrink it.
	dNarrow := idx.Current().Skeleton().MinDistRect(q, inner, 1, 1)
	dWide := idx.Current().Skeleton().MinDistRect(q, inner, 0, 1)
	if dWide > dNarrow+1e-9 {
		t.Errorf("wider floor span increased the bound: %g > %g", dWide, dNarrow)
	}
}

// The Eq-10 box bound must lower-bound the point skeleton distance to any
// position inside the box (sampled).
func TestMinSkelDistBoxLowerBoundsPoints(t *testing.T) {
	b := mall(t, 3)
	idx := buildIdx(t, b, nil)
	qs := gen.QueryPoints(b, 20, 21)
	ps := gen.QueryPoints(b, 50, 22)
	for _, q := range qs {
		for _, p := range ps {
			u := idx.Current().LocateUnit(p)
			if u == nil {
				continue
			}
			bound := idx.MinSkelDistUnit(q, u)
			point := idx.SkeletonDist(q, p)
			if bound > point+1e-6 {
				t.Fatalf("unit bound %g > point skeleton dist %g (q=%v p=%v)",
					bound, point, q, p)
			}
		}
	}
}

func TestFloorsOfBox(t *testing.T) {
	b := mall(t, 5)
	idx := buildIdx(t, b, nil)
	for _, u := range idx.Current().topo.units {
		box := unitBox(b, u)
		lo, hi := idx.Current().FloorsOfBox(box)
		if lo != u.FloorLo || hi != u.FloorHi {
			t.Fatalf("unit %d floors [%d,%d] recovered as [%d,%d]",
				u.ID, u.FloorLo, u.FloorHi, lo, hi)
		}
	}
}

func TestRebuildSkeletonAfterStairRemoval(t *testing.T) {
	b := mall(t, 2)
	idx := buildIdx(t, b, nil)
	before := idx.Current().Skeleton().NumEntrances()
	var stair *indoor.Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Staircase {
			stair = p
			break
		}
	}
	if _, err := idx.Apply(Mutation{Kind: MutRemovePartition, PartID: stair.ID}); err != nil {
		t.Fatal(err)
	}
	after := idx.Current().Skeleton().NumEntrances()
	if after != before-2 {
		t.Errorf("entrances %d -> %d, want -2", before, after)
	}
	// Cross-floor routing still works through the remaining staircases.
	d := idx.SkeletonDist(indoor.Pos(300, 60, 0), indoor.Pos(300, 60, 1))
	if math.IsInf(d, 1) {
		t.Error("skeleton must still route after one staircase removal")
	}
}

// TestSkeletonMatchesReference checks Ms2s against one textbook O(n²)
// Dijkstra per entrance over the skeleton graph of properties (2) and (3):
// property (4) must agree with a per-source shortest-path search.
func TestSkeletonMatchesReference(t *testing.T) {
	b := mall(t, 3)
	sk := buildIdx(t, b, nil).Current().Skeleton()
	n := sk.NumEntrances()
	w := make([][]float64, n) // edge weight, +Inf where there is no edge
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			ei, ej := sk.entrances[i], sk.entrances[j]
			switch {
			case i == j:
				w[i][j] = math.Inf(1)
			case ei.stair == ej.stair:
				w[i][j] = b.Partition(ei.stair).StairLength
			case ei.floor == ej.floor:
				w[i][j] = ei.pos.DistTo(ej.pos)
			default:
				w[i][j] = math.Inf(1)
			}
		}
	}
	multiHop := false
	for src := 0; src < n; src++ {
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[src] = 0
		settled := make([]bool, n)
		for {
			u := -1
			for v := range dist {
				if !settled[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
					u = v
				}
			}
			if u < 0 {
				break
			}
			settled[u] = true
			for v := range dist {
				if nd := dist[u] + w[u][v]; nd < dist[v] {
					dist[v] = nd
				}
			}
		}
		for j, want := range dist {
			got := sk.Ms2s(src, j)
			if math.IsInf(got, 1) != math.IsInf(want, 1) || math.Abs(got-want) > 1e-9 {
				t.Fatalf("Ms2s[%d][%d] = %g, reference %g", src, j, got, want)
			}
			if sk.entrances[j].floor-sk.entrances[src].floor == 2 && !math.IsInf(want, 1) {
				multiHop = true
			}
		}
	}
	if !multiHop {
		t.Fatal("no finite route spans two floors: property (4) went unexercised")
	}
}
