package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randBox produces a building-scale planar box with the 1 cm z sliver on a
// random floor.
func randBox(rng *rand.Rand) geom.Rect3 {
	x := rng.Float64() * 600
	y := rng.Float64() * 600
	w := 1 + rng.Float64()*50
	h := 1 + rng.Float64()*50
	z := float64(rng.Intn(20)) * 4
	return geom.R3(geom.R(x, y, x+w, y+h), z, z+0.01)
}

// bruteRange returns ids of entries intersecting window.
func bruteRange(entries []Entry, window geom.Rect3) map[int]bool {
	out := make(map[int]bool)
	for _, e := range entries {
		if e.Box.Intersects3(window) {
			out[e.ID] = true
		}
	}
	return out
}

func treeRange(t *Tree, window geom.Rect3) map[int]bool {
	out := make(map[int]bool)
	t.Search(
		func(b geom.Rect3) bool { return b.Intersects3(window) },
		func(id int, _ geom.Rect3) { out[id] = true },
	)
	return out
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := Bulk(8, nil)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := treeRange(tr, geom.R3(geom.R(0, 0, 1000, 1000), -10, 100))
	if len(got) != 0 {
		t.Error("empty tree must return nothing")
	}
}

// TestBulkMatchesBruteForce checks that every packed tree meets its fill,
// depth and MBR invariants over a sweep of sizes and fanouts, and that a
// large tree answers windows as a scan does. Cutting each slab and run
// into near-equal parts is what keeps the last node of a run above the
// 40% fill.
func TestBulkMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var entries []Entry
	for i := 0; i < 5000; i++ {
		entries = append(entries, Entry{Box: randBox(rng), ID: i})
	}
	for _, fanout := range []int{4, 8, DefaultFanout} {
		for n := 1; n <= 3000; n += 7 {
			tr := Bulk(fanout, entries[:n])
			if tr.Len() != n {
				t.Fatalf("fanout %d, %d entries: len = %d", fanout, n, tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("fanout %d, %d entries: %v", fanout, n, err)
			}
		}
	}
	tr := Bulk(DefaultFanout, entries)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		window := randBox(rng)
		window.MaxZ += 12
		want := bruteRange(entries, window)
		got := treeRange(tr, window)
		if !sameSet(got, want) {
			t.Fatalf("query %d mismatch: got %d want %d", q, len(got), len(want))
		}
	}
}

func TestBulkEmptyAndTiny(t *testing.T) {
	if tr := Bulk(8, nil); tr.Len() != 0 {
		t.Error("bulk of nothing must be empty")
	}
	one := []Entry{{Box: geom.R3(geom.R(0, 0, 1, 1), 0, 0.01), ID: 42}}
	tr := Bulk(8, one)
	got := treeRange(tr, geom.R3(geom.R(0, 0, 2, 2), 0, 1))
	if !sameSet(got, map[int]bool{42: true}) {
		t.Errorf("tiny bulk query = %v", got)
	}
}

// TestMixedWorkloadInvariants churns a live set the way structural
// commits do, adding and removing entries, and re-packs it after every
// step. Each packed tree must meet its invariants, and the last must
// answer a wide window as a scan does. Victims are drawn by the seeded
// rng, so each seed replays one fixed sequence.
func TestMixedWorkloadInvariants(t *testing.T) {
	for _, seed := range []int64{0, 1, 7} {
		rng := rand.New(rand.NewSource(seed))
		var live []Entry
		var tr *Tree
		nextID := 0
		for step := 0; step < 400; step++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				live = append(live, Entry{Box: randBox(rng), ID: nextID})
				nextID++
			} else {
				i := rng.Intn(len(live))
				live = append(live[:i], live[i+1:]...)
			}
			tr = Bulk(DefaultFanout, live)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if tr.Len() != len(live) {
			t.Fatalf("seed %d: len = %d, want %d", seed, tr.Len(), len(live))
		}
		window := geom.R3(geom.R(100, 100, 400, 400), 0, 80)
		if !sameSet(treeRange(tr, window), bruteRange(live, window)) {
			t.Errorf("seed %d: final query mismatch after mixed workload", seed)
		}
	}
}

func TestLowFanoutClamped(t *testing.T) {
	tr := Bulk(2, nil)
	if tr.Fanout() != 4 {
		t.Errorf("fanout = %d, want clamp to 4", tr.Fanout())
	}
}

func TestSearchPrunes(t *testing.T) {
	// Build a spread-out tree and verify Search doesn't visit everything:
	// count descend calls on a pin-point query.
	rng := rand.New(rand.NewSource(8))
	var entries []Entry
	for i := 0; i < 4000; i++ {
		entries = append(entries, Entry{Box: randBox(rng), ID: i})
	}
	tr := Bulk(DefaultFanout, entries)
	window := geom.R3(geom.R(10, 10, 11, 11), 0, 0.01)
	calls := 0
	tr.Search(
		func(b geom.Rect3) bool { calls++; return b.Intersects3(window) },
		func(int, geom.Rect3) {},
	)
	if calls > 2000 {
		t.Errorf("search visited %d boxes for a pin-point window; tree is not pruning", calls)
	}
}

func TestBoundsTracksEntries(t *testing.T) {
	tr := Bulk(8, []Entry{
		{Box: geom.R3(geom.R(0, 0, 10, 10), 0, 0.01), ID: 1},
		{Box: geom.R3(geom.R(90, 90, 100, 100), 8, 8.01), ID: 2},
	})
	b := tr.Bounds()
	if b.MinX != 0 || b.MaxX != 100 || b.MinZ != 0 || b.MaxZ != 8.01 {
		t.Errorf("bounds = %v", b)
	}
}

// TestCloneIsolation checks that a clone is a deep copy: it shares no
// node with the original, has the same shape, and answers the same.
func TestCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var entries []Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, Entry{Box: randBox(rng), ID: i})
	}
	orig := Bulk(DefaultFanout, entries)
	clone := orig.Clone()
	if clone.Len() != orig.Len() || clone.Height() != orig.Height() {
		t.Fatalf("clone shape: len %d/%d height %d/%d",
			clone.Len(), orig.Len(), clone.Height(), orig.Height())
	}
	if err := clone.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var shared func(a, b *node) bool
	shared = func(a, b *node) bool {
		if a == b || &a.boxes[0] == &b.boxes[0] {
			return true
		}
		for i := range a.children {
			if shared(a.children[i], b.children[i]) {
				return true
			}
		}
		return false
	}
	if shared(orig.root, clone.root) {
		t.Fatal("clone shares a node or a box array with the original")
	}
	wide := geom.R3(geom.R(-10, -10, 700, 700), -1, 100)
	if !sameSet(treeRange(orig, wide), treeRange(clone, wide)) {
		t.Fatal("clone answers differently from the original")
	}
}
