// Package rtree implements the indR-tree substrate: an immutable R-tree
// over three-dimensional boxes, packed with Sort-Tile-Recursive
// [Leutenegger et al., ICDE 1997] (the paper uses a packed R*-tree with
// fanout 20, §V-A). Leaf entries carry opaque integer ids that the
// composite index maps to index units.
//
// A tree never changes once Bulk returns it. The paper maintains its tree
// by dynamic insertion and deletion when a partition is added, removed,
// split or merged (§III-C.1); the composite index instead re-packs the
// whole tier once per such commit. Searches answer the same either way,
// and every other commit shares the tree by pointer.
//
// The tree follows the 1 cm vertical-extent convention of §III-A.2: callers
// store planar partitions as boxes whose z range spans one centimetre, so
// the geometry stays effectively planar while floors stay apart.
package rtree

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"

	"repro/internal/geom"
)

// DefaultFanout is the paper's tree fanout (§V-A, after [9]).
const DefaultFanout = 20

// Entry is a leaf payload: a box and an opaque identifier.
type Entry struct {
	Box geom.Rect3
	ID  int
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

// Tree is a packed R-tree. Construct with Bulk; the zero value is not
// usable.
type Tree struct {
	root    *node
	fanout  int
	minFill int
	size    int
	height  int // number of levels; leaves sit at level 0
}

// Clone returns a deep copy of the tree. No commit needs one, since trees
// are immutable; it stays so the cost of copying a tree can be measured.
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
// Fanouts below 4 are raised to 4 so the 40% minimum fill stays
// meaningful. Equal inputs give equal trees: ties in a sort key keep the
// input order.
func Bulk(fanout int, entries []Entry) *Tree {
	fanout = max(fanout, 4)
	t := &Tree{
		root:    &node{leaf: true},
		fanout:  fanout,
		minFill: (fanout*2 + 4) / 5, // ceil(0.4 * fanout)
		size:    len(entries),
		height:  1,
	}
	if len(entries) == 0 {
		return t
	}
	boxes := make([]geom.Rect3, len(entries))
	for i, e := range entries {
		boxes[i] = e.Box
	}
	ids := make([]int, len(entries))
	nodes := pack(boxes, fanout, func(n *node, run []int32) {
		n.leaf = true
		n.ids = ids[:len(run):len(run)]
		ids = ids[len(run):]
		for i, j := range run {
			n.ids[i] = entries[j].ID
		}
	})
	for len(nodes) > 1 {
		lower := nodes
		boxes = make([]geom.Rect3, len(lower))
		for i, n := range lower {
			boxes[i] = n.mbr()
		}
		children := make([]*node, len(lower))
		nodes = pack(boxes, fanout, func(n *node, run []int32) {
			n.children = children[:len(run):len(run)]
			children = children[len(run):]
			for i, j := range run {
				n.children[i] = lower[j]
			}
		})
		t.height++
	}
	t.root = nodes[0]
	return t
}

// pack tiles one level. It orders the items by the x of their box centres
// and cuts them into slabs, orders each slab by y and cuts it into runs,
// then orders each run by z and cuts it into nodes of at most fanout
// items. Every cut is into near-equal parts, so no node but a lone root
// falls under the minimum fill. fill sets a node's payload from the item
// indexes of its run; pack sets its boxes.
func pack(boxes []geom.Rect3, fanout int, fill func(n *node, run []int32)) []*node {
	centres := make([]geom.Point3, len(boxes))
	perm := make([]int32, len(boxes))
	for i, b := range boxes {
		centres[i] = b.Center3()
		perm[i] = int32(i)
	}
	s := sorter{centres: centres, keys: make([]sortKey, len(boxes))}
	nodeBoxes := make([]geom.Rect3, len(boxes))
	nodes := make([]*node, 0, ceilDiv(len(boxes), fanout))

	s.sort(perm, func(p geom.Point3) float64 { return p.X })
	sx := int(math.Ceil(math.Cbrt(float64(ceilDiv(len(perm), fanout)))))
	for xs := range cuts(perm, sx) {
		s.sort(xs, func(p geom.Point3) float64 { return p.Y })
		sy := int(math.Ceil(math.Sqrt(float64(ceilDiv(len(xs), fanout)))))
		for ys := range cuts(xs, sy) {
			s.sort(ys, func(p geom.Point3) float64 { return p.Z })
			for run := range cuts(ys, ceilDiv(len(ys), fanout)) {
				n := &node{boxes: nodeBoxes[:len(run):len(run)]}
				nodeBoxes = nodeBoxes[len(run):]
				for i, j := range run {
					n.boxes[i] = boxes[j]
				}
				fill(n, run)
				nodes = append(nodes, n)
			}
		}
	}
	return nodes
}

// sortKey is one item of a keyed sort: its coordinate, its position
// before the sort, and its item index.
type sortKey struct {
	key      float64
	pos, idx int32
}

// sorter orders runs of item indexes by one centre coordinate, reusing
// one key buffer across the runs of a level.
type sorter struct {
	centres []geom.Point3
	keys    []sortKey
}

// sort orders run by coord of each item's centre. Ties keep their order
// in run, so the result equals a stable sort on coord alone.
func (s *sorter) sort(run []int32, coord func(geom.Point3) float64) {
	keys := s.keys[:len(run)]
	for i, j := range run {
		keys[i] = sortKey{key: coord(s.centres[j]), pos: int32(i), idx: j}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for i, k := range keys {
		run[i] = k.idx
	}
}

// cuts yields s cut into parts runs whose lengths differ by at most one.
func cuts(s []int32, parts int) iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		q, r := len(s)/parts, len(s)%parts
		for i := range parts {
			n := q
			if i < r {
				n++
			}
			if !yield(s[:n]) {
				return
			}
			s = s[n:]
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

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
