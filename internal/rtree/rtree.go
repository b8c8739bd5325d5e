// Package rtree implements the indR-tree substrate: an in-memory R*-tree
// over three-dimensional boxes [Beckmann et al., SIGMOD 1990] with
// Sort-Tile-Recursive bulk packing (the paper uses a packed R*-tree with
// fanout 20, §V-A). Leaf entries carry opaque integer ids that the
// composite index maps to index units.
//
// The tree follows the 1 cm vertical-extent convention of §III-A.2: callers
// store planar partitions as boxes whose z range spans one centimetre, so
// volume-based R* optimisation remains meaningful while the geometry stays
// effectively planar.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// DefaultFanout is the paper's tree fanout (§V-A, after [9]).
const DefaultFanout = 20

// reinsertFraction is the share of entries evicted on overflow by the R*
// forced-reinsert heuristic (30% per the original R*-tree paper).
const reinsertFraction = 0.3

// Entry is a leaf payload: a box and an opaque identifier.
type Entry struct {
	Box geom.Rect3
	ID  int
}

// slot is a uniform view of one node entry: a leaf item (child == nil) or a
// subtree.
type slot struct {
	box   geom.Rect3
	id    int
	child *node
}

type node struct {
	leaf     bool
	boxes    []geom.Rect3
	children []*node // parallel to boxes when internal
	ids      []int   // parallel to boxes when leaf
}

func (n *node) len() int { return len(n.boxes) }

func (n *node) mbr() geom.Rect3 {
	b := geom.EmptyRect3
	for _, x := range n.boxes {
		b = b.Union3(x)
	}
	return b
}

func (n *node) slots() []slot {
	out := make([]slot, n.len())
	for i, b := range n.boxes {
		out[i] = slot{box: b}
		if n.leaf {
			out[i].id = n.ids[i]
		} else {
			out[i].child = n.children[i]
		}
	}
	return out
}

func (n *node) setSlots(ss []slot) {
	n.boxes = n.boxes[:0]
	if n.leaf {
		n.ids = n.ids[:0]
	} else {
		n.children = n.children[:0]
	}
	for _, s := range ss {
		n.boxes = append(n.boxes, s.box)
		if n.leaf {
			n.ids = append(n.ids, s.id)
		} else {
			n.children = append(n.children, s.child)
		}
	}
}

func (n *node) removeAt(i int) {
	n.boxes = append(n.boxes[:i], n.boxes[i+1:]...)
	if n.leaf {
		n.ids = append(n.ids[:i], n.ids[i+1:]...)
	} else {
		n.children = append(n.children[:i], n.children[i+1:]...)
	}
}

// Tree is an R*-tree. Construct with New or Bulk; the zero value is not
// usable.
type Tree struct {
	root    *node
	fanout  int
	minFill int
	size    int
	height  int // number of levels; leaves sit at level 0
}

// New returns an empty tree with the given fanout (maximum entries per
// node). Fanouts below 4 are raised to 4 so the 40% minimum fill stays
// meaningful.
func New(fanout int) *Tree {
	if fanout < 4 {
		fanout = 4
	}
	return &Tree{
		root:    &node{leaf: true},
		fanout:  fanout,
		minFill: (fanout*2 + 4) / 5, // ceil(0.4 * fanout)
		height:  1,
	}
}

// Clone returns a deep copy of the tree that shares no mutable state with
// the original: mutating either side never affects the other. The MVCC
// index clones the tree tier when a topology mutation starts editing a
// snapshot copy-on-write (object updates never touch the tree, so they
// share it).
func (t *Tree) Clone() *Tree {
	c := *t
	c.root = t.root.clone()
	return &c
}

func (n *node) clone() *node {
	c := &node{leaf: n.leaf, boxes: append([]geom.Rect3(nil), n.boxes...)}
	if n.leaf {
		c.ids = append([]int(nil), n.ids...)
	} else {
		c.children = make([]*node, len(n.children))
		for i, ch := range n.children {
			c.children[i] = ch.clone()
		}
	}
	return c
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a leaf-only tree).
func (t *Tree) Height() int { return t.height }

// Fanout returns the node capacity.
func (t *Tree) Fanout() int { return t.fanout }

// Bounds returns the MBR of all entries.
func (t *Tree) Bounds() geom.Rect3 { return t.root.mbr() }

// Insert adds one entry using the R* choose-subtree, forced-reinsert and
// split heuristics.
func (t *Tree) Insert(box geom.Rect3, id int) {
	t.place(slot{box: box, id: id}, 0, make(map[int]bool))
	t.size++
}

// place inserts a slot (leaf item or subtree root) at the given level.
// reinserted records the levels that already ran forced reinsert during the
// current public operation.
func (t *Tree) place(s slot, level int, reinserted map[int]bool) {
	n, path := t.chooseSubtree(s.box, level)
	n.boxes = append(n.boxes, s.box)
	if n.leaf {
		n.ids = append(n.ids, s.id)
	} else {
		n.children = append(n.children, s.child)
	}
	if n.len() > t.fanout {
		t.overflow(n, path, level, reinserted)
	} else {
		t.refreshPath(path)
	}
}

// chooseSubtree descends to the node at the target level minimising the R*
// criteria for box, returning the node and its ancestor path (root first).
func (t *Tree) chooseSubtree(box geom.Rect3, level int) (*node, []*node) {
	var path []*node
	n := t.root
	depth := t.height - 1
	for depth > level {
		path = append(path, n)
		n = n.children[t.chooseChild(n, box, depth == level+1)]
		depth--
	}
	return n, path
}

// chooseChild picks the child of n to receive box: minimum overlap
// enlargement when the children are leaves, else minimum volume
// enlargement; ties break on volume enlargement then volume.
func (t *Tree) chooseChild(n *node, box geom.Rect3, childrenAreLeaves bool) int {
	best := 0
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestVolume := math.Inf(1)
	for i, nb := range n.boxes {
		enlarged := nb.Union3(box)
		enlarge := enlarged.Volume() - nb.Volume()
		vol := nb.Volume()
		overlap := 0.0
		if childrenAreLeaves {
			for j, other := range n.boxes {
				if j == i {
					continue
				}
				overlap += enlarged.IntersectionVolume(other) - nb.IntersectionVolume(other)
			}
		}
		if definitelyLess(overlap, bestOverlap) ||
			(nearlyEq(overlap, bestOverlap) && definitelyLess(enlarge, bestEnlarge)) ||
			(nearlyEq(overlap, bestOverlap) && nearlyEq(enlarge, bestEnlarge) && vol < bestVolume) {
			best, bestOverlap, bestEnlarge, bestVolume = i, overlap, enlarge, vol
		}
	}
	return best
}

// nearlyEq reports that two heuristic scores (overlap volumes, volume
// enlargements) are equal up to floating-point noise, under a RELATIVE
// tolerance. The tolerance must scale with the operands: city-scale
// boxes produce volumes around 1e5-1e9 m^3, where one ULP is far larger
// than any absolute epsilon — an absolute comparison would declare
// every tie "distinct" and the R*-tie-breaks (volume enlargement, then
// volume) would never engage, silently degrading split quality on large
// coordinates. The max(1, ...) floor keeps the comparison absolute near
// zero, where relative error is meaningless.
func nearlyEq(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-12*scale
}

// definitelyLess reports a < b by more than the tie tolerance.
func definitelyLess(a, b float64) bool { return a < b && !nearlyEq(a, b) }

// refreshPath recomputes the stored MBRs along an ancestor path bottom-up.
func (t *Tree) refreshPath(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		p := path[i]
		for j, c := range p.children {
			p.boxes[j] = c.mbr()
		}
	}
}

// overflow handles a node exceeding fanout: forced reinsert once per level
// per operation (except at the root), otherwise split.
func (t *Tree) overflow(n *node, path []*node, level int, reinserted map[int]bool) {
	if len(path) > 0 && !reinserted[level] {
		reinserted[level] = true
		t.forcedReinsert(n, path, level, reinserted)
		return
	}
	t.split(n, path, level, reinserted)
}

// forcedReinsert evicts the 30% of n's entries whose centres lie farthest
// from n's centre and re-places them at the same level.
func (t *Tree) forcedReinsert(n *node, path []*node, level int, reinserted map[int]bool) {
	center := n.mbr().Center3()
	ss := n.slots()
	sort.SliceStable(ss, func(i, j int) bool {
		return dist3(ss[i].box.Center3(), center) > dist3(ss[j].box.Center3(), center)
	})
	k := int(reinsertFraction * float64(len(ss)))
	if k < 1 {
		k = 1
	}
	evicted := append([]slot(nil), ss[:k]...)
	n.setSlots(ss[k:])
	t.refreshPath(path)
	// Far-reinsert order: farthest first, per the R* paper's recommendation.
	for _, s := range evicted {
		t.place(s, level, reinserted)
	}
}

func dist3(a, b geom.Point3) float64 { return a.DistTo(b) }

// split divides an overflowing node with the R* topological split and
// pushes the new sibling into the parent, propagating overflow upward.
func (t *Tree) split(n *node, path []*node, level int, reinserted map[int]bool) {
	g1, g2 := t.chooseSplit(n.slots())
	sib := &node{leaf: n.leaf}
	n.setSlots(g1)
	sib.setSlots(g2)

	if len(path) == 0 {
		// n was the root: grow the tree.
		newRoot := &node{
			leaf:     false,
			boxes:    []geom.Rect3{n.mbr(), sib.mbr()},
			children: []*node{n, sib},
		}
		t.root = newRoot
		t.height++
		return
	}
	parent := path[len(path)-1]
	// n's stored box predates both the split and the entry that caused it;
	// it must be exact before the parent itself is reinserted or split.
	t.refreshPath(path[len(path)-1:])
	parent.boxes = append(parent.boxes, sib.mbr())
	parent.children = append(parent.children, sib)
	if parent.len() > t.fanout {
		t.overflow(parent, path[:len(path)-1], level+1, reinserted)
	} else {
		t.refreshPath(path)
	}
}

// chooseSplit implements the R* split: pick the axis with the smallest sum
// of distribution margins, then the distribution with the least overlap
// (ties: least total volume).
func (t *Tree) chooseSplit(ss []slot) (g1, g2 []slot) {
	type axisSort struct {
		key func(geom.Rect3) (float64, float64) // (lower, upper)
	}
	axes := []axisSort{
		{func(b geom.Rect3) (float64, float64) { return b.MinX, b.MaxX }},
		{func(b geom.Rect3) (float64, float64) { return b.MinY, b.MaxY }},
		{func(b geom.Rect3) (float64, float64) { return b.MinZ, b.MaxZ }},
	}
	m := t.minFill
	n := len(ss)

	bestMargin := math.Inf(1)
	var bestSorted [][]slot
	for _, ax := range axes {
		byLower := append([]slot(nil), ss...)
		sort.SliceStable(byLower, func(i, j int) bool {
			li, _ := ax.key(byLower[i].box)
			lj, _ := ax.key(byLower[j].box)
			return li < lj
		})
		byUpper := append([]slot(nil), ss...)
		sort.SliceStable(byUpper, func(i, j int) bool {
			_, ui := ax.key(byUpper[i].box)
			_, uj := ax.key(byUpper[j].box)
			return ui < uj
		})
		margin := 0.0
		for _, sorted := range [][]slot{byLower, byUpper} {
			for k := m; k <= n-m; k++ {
				margin += mbrOf(sorted[:k]).Margin3() + mbrOf(sorted[k:]).Margin3()
			}
		}
		if margin < bestMargin {
			bestMargin = margin
			bestSorted = [][]slot{byLower, byUpper}
		}
	}

	bestOverlap := math.Inf(1)
	bestVolume := math.Inf(1)
	for _, sorted := range bestSorted {
		for k := m; k <= n-m; k++ {
			b1, b2 := mbrOf(sorted[:k]), mbrOf(sorted[k:])
			overlap := b1.IntersectionVolume(b2)
			volume := b1.Volume() + b2.Volume()
			if definitelyLess(overlap, bestOverlap) ||
				(nearlyEq(overlap, bestOverlap) && volume < bestVolume) {
				bestOverlap, bestVolume = overlap, volume
				g1 = append([]slot(nil), sorted[:k]...)
				g2 = append([]slot(nil), sorted[k:]...)
			}
		}
	}
	return g1, g2
}

func mbrOf(ss []slot) geom.Rect3 {
	b := geom.EmptyRect3
	for _, s := range ss {
		b = b.Union3(s.box)
	}
	return b
}

// Delete removes the entry with the given id whose stored box intersects
// box, condensing underfull nodes by reinsertion. It reports whether an
// entry was removed.
func (t *Tree) Delete(box geom.Rect3, id int) bool {
	leaf, path, idx := findLeaf(t.root, nil, box, id)
	if leaf == nil {
		return false
	}
	leaf.removeAt(idx)
	t.size--
	t.condense(leaf, path)
	return true
}

// findLeaf locates the leaf holding (id, box) and returns it with its
// ancestor path (root first) and the entry index.
func findLeaf(n *node, path []*node, box geom.Rect3, id int) (*node, []*node, int) {
	if n.leaf {
		for i, eid := range n.ids {
			if eid == id && n.boxes[i].Intersects3(box) {
				return n, path, i
			}
		}
		return nil, nil, -1
	}
	for i, c := range n.children {
		if n.boxes[i].Intersects3(box) {
			if l, p, idx := findLeaf(c, append(path, n), box, id); l != nil {
				return l, p, idx
			}
		}
	}
	return nil, nil, -1
}

// condense removes underfull nodes along the path and reinserts their
// entries, shrinking the root when it degenerates.
func (t *Tree) condense(n *node, path []*node) {
	type orphan struct {
		s     slot
		level int
	}
	var orphans []orphan
	// Tighten the path first: an orphaned subtree carries its stored box
	// into its new parent, so that box must already reflect the removal.
	t.refreshPath(path)
	level := 0
	cur := n
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		if cur.len() < t.minFill {
			for j, c := range parent.children {
				if c == cur {
					parent.removeAt(j)
					break
				}
			}
			for _, s := range cur.slots() {
				orphans = append(orphans, orphan{s: s, level: level})
			}
		}
		cur = parent
		level++
	}
	t.refreshPath(path)
	reinserted := make(map[int]bool)
	for _, o := range orphans {
		t.place(o.s, o.level, reinserted)
	}
	// Collapse a degenerate root.
	for !t.root.leaf && t.root.len() == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	if !t.root.leaf && t.root.len() == 0 {
		t.root = &node{leaf: true}
		t.height = 1
	}
}

// Search walks the tree, descending into every box accepted by descend and
// emitting every leaf entry whose box is accepted. Range queries pass a
// window intersection test; the composite index passes the skeleton
// lower-bound test of Equation 10.
func (t *Tree) Search(descend func(geom.Rect3) bool, emit func(id int, box geom.Rect3)) {
	t.search(t.root, descend, emit)
}

func (t *Tree) search(n *node, descend func(geom.Rect3) bool, emit func(int, geom.Rect3)) {
	for i, b := range n.boxes {
		if !descend(b) {
			continue
		}
		if n.leaf {
			emit(n.ids[i], b)
		} else {
			t.search(n.children[i], descend, emit)
		}
	}
}

// Bulk builds a tree over the entries with Sort-Tile-Recursive packing.
func Bulk(fanout int, entries []Entry) *Tree {
	t := New(fanout)
	if len(entries) == 0 {
		return t
	}
	ss := make([]slot, len(entries))
	for i, e := range entries {
		ss[i] = slot{box: e.Box, id: e.ID}
	}
	nodes := packLevel(ss, t.fanout, true)
	height := 1
	for len(nodes) > 1 {
		up := make([]slot, len(nodes))
		for i, n := range nodes {
			up[i] = slot{box: n.mbr(), child: n}
		}
		nodes = packLevel(up, t.fanout, false)
		height++
	}
	t.root = nodes[0]
	t.height = height
	t.size = len(entries)
	return t
}

// packLevel groups slots into nodes of up to fanout entries using STR on
// (x, y, z) centre coordinates.
func packLevel(ss []slot, fanout int, leaf bool) []*node {
	nLeaves := (len(ss) + fanout - 1) / fanout
	sx := int(math.Ceil(math.Cbrt(float64(nLeaves))))
	if sx < 1 {
		sx = 1
	}
	sort.SliceStable(ss, func(i, j int) bool {
		return ss[i].box.Center3().X < ss[j].box.Center3().X
	})
	var nodes []*node
	xChunk := (len(ss) + sx - 1) / sx
	for i := 0; i < len(ss); i += xChunk {
		xs := ss[i:min(i+xChunk, len(ss))]
		sy := int(math.Ceil(math.Sqrt(float64((len(xs) + fanout - 1) / fanout))))
		if sy < 1 {
			sy = 1
		}
		sort.SliceStable(xs, func(a, b int) bool {
			return xs[a].box.Center3().Y < xs[b].box.Center3().Y
		})
		yChunk := (len(xs) + sy - 1) / sy
		for j := 0; j < len(xs); j += yChunk {
			ys := xs[j:min(j+yChunk, len(xs))]
			sort.SliceStable(ys, func(a, b int) bool {
				return ys[a].box.Center3().Z < ys[b].box.Center3().Z
			})
			for k := 0; k < len(ys); k += fanout {
				chunk := ys[k:min(k+fanout, len(ys))]
				n := &node{leaf: leaf}
				n.setSlots(chunk)
				nodes = append(nodes, n)
			}
		}
	}
	return nodes
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CheckInvariants verifies structural health: uniform leaf depth, fill
// bounds (root exempt), exact parent MBRs, and a consistent size. Intended
// for tests.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *node, depth int) error
	var leafDepth = -1
	walk = func(n *node, depth int) error {
		if n != t.root {
			if n.len() < t.minFill {
				return fmt.Errorf("rtree: node underfull: %d < %d", n.len(), t.minFill)
			}
		}
		if n.len() > t.fanout {
			return fmt.Errorf("rtree: node overfull: %d > %d", n.len(), t.fanout)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			if depth != t.height-1 {
				return fmt.Errorf("rtree: leaf at depth %d, height %d", depth, t.height)
			}
			count += n.len()
			return nil
		}
		for i, c := range n.children {
			got := c.mbr()
			want := n.boxes[i]
			if got != want {
				return fmt.Errorf("rtree: stale parent MBR: have %v, child is %v", want, got)
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d, counted %d", t.size, count)
	}
	return nil
}
