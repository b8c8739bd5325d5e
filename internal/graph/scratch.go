// Package graph holds the pooled working storage of every shortest-path
// search in the tree: a generation-stamped Scratch (tentative distances, a
// binary min-heap and a mark set) that doorgraph.Graph.Dijkstra runs in.
// The search itself lives with the graph it walks, in internal/doorgraph;
// the query filtering phase also borrows the mark set as a visited stamp.
package graph

import (
	"math"
	"sync"
)

// Scratch is reusable Dijkstra working storage: a tentative-distance array,
// a binary min-heap and a membership mark set, all generation-stamped so a
// Reset costs O(1) instead of clearing. Engines acquire one from a shared
// sync.Pool per search and release it when done, which keeps steady-state
// shortest-path queries allocation-free once the pool has warmed up to the
// graph's size.
//
// A Scratch is owned by one goroutine between Acquire and Release; the pool
// handles cross-goroutine reuse. The distance and mark arrays are sized
// independently (the door-graph search marks unit slots while computing
// door distances).
type Scratch struct {
	dist    []float64
	distGen []uint32
	markGen []uint32
	gen     uint32
	heap    []heapItem32
}

type heapItem32 struct {
	node int32
	dist float64
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// AcquireScratch takes a Scratch from the shared pool. Call Reset before
// use and Release when done.
func AcquireScratch() *Scratch {
	return scratchPool.Get().(*Scratch)
}

// Release returns the scratch to the pool. The scratch must not be used
// afterwards; Release on a nil scratch is a no-op.
func (s *Scratch) Release() {
	if s != nil {
		scratchPool.Put(s)
	}
}

// Reset prepares the scratch for a new search: distances over [0, nDist)
// read as +Inf, marks over [0, nMark) read as unset, and the heap is empty.
// Arrays grow as needed and are retained across resets.
func (s *Scratch) Reset(nDist, nMark int) {
	if cap(s.dist) < nDist {
		s.dist = make([]float64, nDist)
		s.distGen = make([]uint32, nDist)
	}
	s.dist = s.dist[:nDist]
	s.distGen = s.distGen[:nDist]
	if cap(s.markGen) < nMark {
		s.markGen = make([]uint32, nMark)
	}
	s.markGen = s.markGen[:nMark]
	s.heap = s.heap[:0]
	s.gen++
	if s.gen == 0 { // wrapped: stale stamps could collide, clear for real
		for i := range s.distGen {
			s.distGen[i] = 0
		}
		for i := range s.markGen {
			s.markGen[i] = 0
		}
		s.gen = 1
	}
}

// Dist returns the tentative distance of node i (+Inf when untouched).
func (s *Scratch) Dist(i int32) float64 {
	if s.distGen[i] != s.gen {
		return math.Inf(1)
	}
	return s.dist[i]
}

// Improve lowers node i's tentative distance to d, reporting whether d beat
// the current value.
func (s *Scratch) Improve(i int32, d float64) bool {
	if s.distGen[i] == s.gen && s.dist[i] <= d {
		return false
	}
	s.distGen[i] = s.gen
	s.dist[i] = d
	return true
}

// Mark adds i to the mark set.
func (s *Scratch) Mark(i int32) { s.markGen[i] = s.gen }

// Marked reports whether i is in the mark set.
func (s *Scratch) Marked(i int32) bool { return s.markGen[i] == s.gen }

// Push inserts a (node, dist) entry into the heap. The heap is addressed
// manually (no container/heap) so entries never escape to the allocator.
func (s *Scratch) Push(node int32, d float64) {
	s.heap = append(s.heap, heapItem32{node: node, dist: d})
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].dist <= s.heap[i].dist {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// Top returns the smallest queued key, +Inf when the heap is empty. Queued
// keys include stale entries, so Top never exceeds the smallest live key.
func (s *Scratch) Top() float64 {
	if len(s.heap) == 0 {
		return math.Inf(1)
	}
	return s.heap[0].dist
}

// Pop removes the smallest entry; ok is false when the heap is empty.
func (s *Scratch) Pop() (node int32, d float64, ok bool) {
	n := len(s.heap)
	if n == 0 {
		return 0, 0, false
	}
	top := s.heap[0]
	n--
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.heap[l].dist < s.heap[small].dist {
			small = l
		}
		if r < n && s.heap[r].dist < s.heap[small].dist {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top.node, top.dist, true
}
