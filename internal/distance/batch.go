package distance

import (
	"math"
	"sync"

	"repro/internal/object"
)

// Batch evaluation. The per-object entry points (ObjectBounds, TLU,
// ExactDistBracket) already share the expensive part of an engine — one
// anchored skeleton, one restricted Dijkstra over pooled scratch — but a
// caller iterating a candidate slice still pays per-call output
// allocations and, across short-lived engines, re-grows the evaluation
// buffers from zero every time. The batch kernels close both gaps: they
// evaluate whole candidate slices against the engine's single pinned
// snapshot/anchor setup, write results into a recycled Arena, and the
// engines themselves draw their evaluation buffers from a package pool so
// the grown storage survives engine churn. The ikNN pruning phase, the
// Lemma 3 kbound and the kNN-subscription refresh route through
// ObjectBoundsBatch and TLUBatch. Refinement resolves one object at a
// time through ExactDistBracket, then the full engine when the bracket
// stays open; ExactDistBracketBatch serves the benchmark's per-layer
// replay of the bracket kernel.

// evalBufs bundles an engine's evaluation scratch: the per-subregion
// Lemma 1/2 evaluations, the per-unit door weights, and the Equation 8
// suffix maxima. Bundles are pooled: New/NewFull acquire one, Close
// returns it, so steady-state query traffic reuses warmed buffers instead
// of growing fresh ones per engine.
type evalBufs struct {
	eval []subEval
	door []doorW
	suf  []float64
}

var evalBufPool = sync.Pool{New: func() any { return new(evalBufs) }}

func acquireEvalBufs() *evalBufs {
	return evalBufPool.Get().(*evalBufs)
}

// release clears the pointer-carrying entries so a pooled bundle never
// pins a retired snapshot's subregions or doors, then returns it.
func (b *evalBufs) release() {
	clear(b.eval[:cap(b.eval)])
	clear(b.door[:cap(b.door)])
	evalBufPool.Put(b)
}

// Arena owns the output storage of the batch kernels. Slices returned by
// ObjectBoundsBatch/TLUBatch/ExactDistBracketBatch alias the arena and
// stay valid until the same kernel runs again on this arena or the arena
// is released, so a caller must consume one result before running the
// same kernel on the arena again. Arenas are pooled: AcquireArena/Release
// recycle the grown buffers across batches, which is where the
// steady-state allocation win comes from.
type Arena struct {
	bounds []Bounds
	tlus   []float64
	low    []float64
	high   []float64
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena returns a recycled arena from the package pool.
func AcquireArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// Release returns the arena to the pool. The arena and every slice it
// handed out must not be used afterwards. Safe on nil.
func (a *Arena) Release() {
	if a != nil {
		arenaPool.Put(a)
	}
}

func growBounds(buf *[]Bounds, n int) []Bounds {
	if cap(*buf) < n {
		*buf = make([]Bounds, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ObjectBoundsBatch evaluates ObjectBounds for every candidate id against
// the engine's pinned snapshot and anchor, with one shared bound setup.
// Unknown ids get +Inf bounds (a vanished object prunes itself). The
// result aliases the arena; out[i] corresponds to ids[i].
func (e *Engine) ObjectBoundsBatch(ids []object.ID, cap float64, a *Arena) []Bounds {
	out := growBounds(&a.bounds, len(ids))
	objs := e.idx.Objects()
	for i, id := range ids {
		if o := objs.Get(id); o != nil {
			out[i] = e.ObjectBounds(o, cap)
		} else {
			out[i] = Bounds{Lower: math.Inf(1), Upper: math.Inf(1)}
		}
	}
	return out
}

// TLUBatch evaluates the Lemma 3 looser upper bound for every candidate
// id; +Inf for unknown ids. The result aliases the arena.
func (e *Engine) TLUBatch(ids []object.ID, a *Arena) []float64 {
	out := growF64(&a.tlus, len(ids))
	objs := e.idx.Objects()
	for i, id := range ids {
		if o := objs.Get(id); o != nil {
			out[i] = e.TLU(o)
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// ExactDistBracketBatch computes the [low, high] expected-distance bracket
// for every candidate id; (+Inf, +Inf) for unknown ids. Both result slices
// alias the arena and are overwritten by the next bracket batch on it.
func (e *Engine) ExactDistBracketBatch(ids []object.ID, cap float64, a *Arena) (low, high []float64) {
	low = growF64(&a.low, len(ids))
	high = growF64(&a.high, len(ids))
	objs := e.idx.Objects()
	for i, id := range ids {
		if o := objs.Get(id); o != nil {
			low[i], high[i] = e.ExactDistBracket(o, cap)
		} else {
			low[i], high[i] = math.Inf(1), math.Inf(1)
		}
	}
	return low, high
}
