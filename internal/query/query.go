// Package query implements the paper's distance-aware query processors
// (§IV): the indoor range query iRQ (Algorithm 1) and the indoor k nearest
// neighbour query ikNNQ (Algorithm 2), built from the four phases of §IV-B
// — filtering (RangeSearch, Algorithm 4, and kSeedsSelection, Algorithm 5),
// subgraph (restricted multi-source Dijkstra), pruning (Table III bounds)
// and refinement (exact expected distances).
//
// Every run reports per-phase wall time and pruning statistics, which the
// benchmark harness aggregates into the paper's Figures 12–15. Options
// switch off the pruning phase and the skeleton tier for the Fig 14 and
// Fig 15(a) ablations.
package query

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/distance"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Options configures a Processor.
type Options struct {
	// DisablePruning skips the bound-based pruning phase, sending every
	// filtered candidate straight to refinement (Fig 14(b)/(d) ablation).
	DisablePruning bool
	// DisableSkeleton replaces the skeleton lower bound of Equation 10
	// with the plain 3D Euclidean lower bound in the filtering phase
	// (Fig 15(a) ablation).
	DisableSkeleton bool
}

// Stats reports one query execution: phase wall times and the filtering /
// pruning effectiveness counters behind Figures 12(b), 13(b) and 14.
type Stats struct {
	Filtering  time.Duration
	Subgraph   time.Duration
	Pruning    time.Duration
	Refinement time.Duration

	TotalObjects   int // |O| in the index
	Candidates     int // |Ro| after filtering
	UnitsRetrieved int // |Rp| (index units)
	AcceptedBounds int // objects accepted by upper bound alone
	RejectedBounds int // objects rejected by lower bound alone
	Refined        int // objects needing exact evaluation
	FullFallbacks  int // refinements escalated to a full engine
}

// Total returns the summed phase time.
func (s *Stats) Total() time.Duration {
	return s.Filtering + s.Subgraph + s.Pruning + s.Refinement
}

// FilteringRatio is the share of objects discarded by the filtering phase.
func (s *Stats) FilteringRatio() float64 {
	if s.TotalObjects == 0 {
		return 0
	}
	return float64(s.TotalObjects-s.Candidates) / float64(s.TotalObjects)
}

// PruningRatio is the share of objects disqualified before refinement
// (filtering rejections plus bound rejections).
func (s *Stats) PruningRatio() float64 {
	if s.TotalObjects == 0 {
		return 0
	}
	return float64(s.TotalObjects-s.Candidates+s.RejectedBounds) / float64(s.TotalObjects)
}

// Result is one query answer: an object and its expected indoor distance.
// Distance is NaN for results accepted by bounds alone in iRQ (their exact
// distance was never needed; the paper's Algorithm 1 does the same).
type Result struct {
	ID       object.ID
	Distance float64
}

// Processor evaluates queries against one composite index. Every query
// pins the index's current snapshot for its whole evaluation (one wait-free
// atomic load — no locking), so concurrent mutators never block a query
// and a query never observes a half-applied mutation. The *On variants
// evaluate against an explicitly pinned snapshot; the serving layer uses
// them to give a whole batch one consistent point-in-time view.
type Processor struct {
	idx  *index.Index
	opts Options
}

// New returns a processor over the index.
func New(idx *index.Index, opts Options) *Processor {
	return &Processor{idx: idx, opts: opts}
}

// Pin returns the index's current snapshot for use with the *On variants.
func (p *Processor) Pin() *index.Snapshot { return p.idx.Current() }

// exec is one query evaluation bound to a pinned snapshot.
type exec struct {
	s    *index.Snapshot
	opts Options
}

// anchor prepares the per-query skeleton anchor the geometric bounds
// evaluate through (nil under the skeleton ablation, which uses Euclidean
// bounds instead).
func (ex *exec) anchor(q indoor.Position) *index.SkelAnchor {
	if ex.opts.DisableSkeleton {
		return nil
	}
	return ex.s.NewSkelAnchor(q)
}

// geomBound returns the geometric lower bound used by the filtering phase:
// Equation 10 (through the query's anchor) by default, plain 3D Euclidean
// under the ablation.
func (ex *exec) geomBound(a *index.SkelAnchor, q indoor.Position, box geom.Rect3) float64 {
	if a == nil {
		qz := geom.Pt3(q.Pt.X, q.Pt.Y, ex.s.Building().Elevation(q.Floor))
		return box.MinDist3(qz)
	}
	return ex.s.AnchorMinDistBox(a, box)
}

// objectBound is the object-level geometric lower bound.
func (ex *exec) objectBound(a *index.SkelAnchor, q indoor.Position, id object.ID) float64 {
	if a == nil {
		return ex.s.ObjectMinEuclid3(q, id)
	}
	return ex.s.AnchorObjectMinSkel(a, id)
}

// rangeSearch is Algorithm 4: it walks the tree tier pruning with the
// geometric lower bound, returning the candidate units Rp and candidate
// objects Ro. The cross-unit seen-set is a pooled visited stamp keyed by
// the object store's slot index, so the walk allocates no per-query map.
func (ex *exec) rangeSearch(q indoor.Position, r float64) (units []index.UnitID, objs []object.ID) {
	store := ex.s.Objects()
	sc := graph.AcquireScratch()
	defer sc.Release()
	sc.Reset(0, store.SlotBound())
	a := ex.anchor(q)
	ex.s.SearchTree(
		func(box geom.Rect3) bool { return ex.geomBound(a, q, box) <= r },
		func(u *index.Unit) {
			units = append(units, u.ID)
			for _, oid := range ex.s.BucketObjectsView(u.ID) {
				slot := store.SlotOf(oid)
				if slot < 0 || sc.Marked(slot) {
					continue
				}
				sc.Mark(slot)
				if ex.objectBound(a, q, oid) <= r {
					objs = append(objs, oid)
				}
			}
		},
	)
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return units, objs
}

// rangeUnits is the unit-only tree walk of Algorithm 4, used to build
// extended refinement engines without paying the object-side work.
func (ex *exec) rangeUnits(q indoor.Position, r float64) []index.UnitID {
	var units []index.UnitID
	a := ex.anchor(q)
	ex.s.SearchTree(
		func(box geom.Rect3) bool { return ex.geomBound(a, q, box) <= r },
		func(u *index.Unit) { units = append(units, u.ID) },
	)
	return units
}

// refiner resolves refinement-phase objects with an escalation ladder:
// the phase engine's bracket first, then an engine over the wider radius
// 2r+100, and only then the full building — keeping the expensive full
// Dijkstra off the common path (it would otherwise dominate query time on
// tall buildings). The wider engines are built on first need and kept for
// the refiner's lifetime.
type refiner struct {
	ex    *exec
	q     indoor.Position
	r     float64 // the cap the phase engine was filtered with
	eng   *distance.Engine
	ext   *distance.Engine
	extR  float64
	full  *distance.Engine
	stats *Stats

	// fullReach accumulates the full rung's Reach over the refiner's
	// lifetime, across the full engines a standing query releases and
	// rebuilds (see phase.carry).
	fullReach float64
}

// Close releases the escalation engines' pooled scratch storage (the phase
// engine is owned by the caller). Idempotent.
func (rf *refiner) Close() {
	rf.ext.Close()
	rf.full.Close()
}

// resolve climbs the ladder for one object until settled accepts a rung's
// [low, high] bracket of its expected distance. The full rung is exact: it
// returns (d, d) and counts a FullFallback. An iRQ decision settles on
// decided(r) and the object qualifies iff high <= r; an exact distance
// settles on closed and is high.
func (rf *refiner) resolve(o *object.Object, settled func(low, high float64) bool) (low, high float64, err error) {
	if low, high = rf.eng.ExactDistBracket(o, rf.r); settled(low, high) {
		return low, high, nil
	}
	if rf.ext == nil {
		rf.extR = 2*rf.r + 100
		if rf.ext, err = distance.New(rf.ex.s, rf.q, rf.ex.rangeUnits(rf.q, rf.extR), math.Inf(1)); err != nil {
			return 0, 0, err
		}
	}
	if low, high = rf.ext.ExactDistBracket(o, rf.extR); settled(low, high) {
		return low, high, nil
	}
	if rf.full == nil {
		if rf.full, err = distance.NewFull(rf.ex.s, rf.q); err != nil {
			return 0, 0, err
		}
	}
	rf.stats.FullFallbacks++
	d, _ := rf.full.ExactDist(o)
	rf.fullReach = max(rf.fullReach, rf.full.Reach())
	return d, d, nil
}

// decided is the iRQ settle rule at radius r: the bracket lies wholly on
// one side of r.
func decided(r float64) func(low, high float64) bool {
	return func(low, high float64) bool { return high <= r || low > r }
}

// closed is the exact-distance settle rule: the bracket has shut.
func closed(low, high float64) bool { return low == high }

// knnScratch pools the ikNN query-layer staging slices (sorted uppers, the
// undetermined set, the exact-result staging) so steady-state queries
// reuse grown storage instead of allocating it per call.
type knnScratch struct {
	uppers []float64
	undet  []object.ID
	exact  []Result
}

var knnScratchPool = sync.Pool{New: func() any { return new(knnScratch) }}

// growFloats sizes a reusable float64 buffer to n, reallocating only on
// capacity growth.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// RangeQuery evaluates iRQq,r(O) per Algorithm 1, returning the objects
// whose expected indoor distance is at most r. The evaluation pins the
// index's current snapshot, so any number of queries proceed in parallel
// — never blocked by writers — while each observes one consistent
// point-in-time index state.
func (p *Processor) RangeQuery(q indoor.Position, r float64) ([]Result, *Stats, error) {
	return p.RangeQueryOn(p.Pin(), q, r)
}

// RangeQueryOn is RangeQuery against an explicitly pinned snapshot.
func (p *Processor) RangeQueryOn(s *index.Snapshot, q indoor.Position, r float64) ([]Result, *Stats, error) {
	ex := &exec{s: s, opts: p.opts}
	st := &Stats{TotalObjects: s.Objects().Len()}

	// Phase 1: filtering.
	start := time.Now()
	units, candidates := ex.rangeSearch(q, r)
	st.Filtering = time.Since(start)
	st.UnitsRetrieved = len(units)
	st.Candidates = len(candidates)

	// Phase 2: subgraph — Dijkstra restricted to the retrieved units. The
	// restriction is sound: any path of length ≤ r only crosses units
	// whose geometric lower bound is ≤ r (Lemma 6).
	start = time.Now()
	eng, err := distance.New(s, q, units, math.Inf(1))
	if err != nil {
		return nil, st, err
	}
	defer eng.Close()
	st.Subgraph = time.Since(start)

	var results []Result
	var undetermined []object.ID

	// Phase 3: pruning with the Table III bounds.
	start = time.Now()
	if p.opts.DisablePruning {
		undetermined = candidates
	} else {
		for _, oid := range candidates {
			o := s.Objects().Get(oid)
			b := eng.ObjectBounds(o, r)
			switch {
			case b.Upper <= r:
				st.AcceptedBounds++
				results = append(results, Result{ID: oid, Distance: math.NaN()})
			case b.Lower <= r:
				undetermined = append(undetermined, oid)
			default:
				st.RejectedBounds++
			}
		}
	}
	st.Pruning = time.Since(start)

	// Phase 4: refinement — bracketed exact distances with the escalation
	// ladder; brackets only stay open for objects mixing near mass with
	// far subregions.
	start = time.Now()
	rf := &refiner{ex: ex, q: q, r: r, eng: eng, stats: st}
	defer rf.Close()
	for _, oid := range undetermined {
		st.Refined++
		_, high, err := rf.resolve(s.Objects().Get(oid), decided(r))
		if err != nil {
			return nil, st, err
		}
		if high <= r {
			results = append(results, Result{ID: oid, Distance: high})
		}
	}
	st.Refinement = time.Since(start)

	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	return results, st, nil
}

// seedFrontier is the kSeedsSelection priority queue: a typed binary
// min-heap of (unit, geometric-bound key) entries popped nearest-first
// with the deterministic (key, uid) tie-break the old linear scan used.
// It deliberately avoids container/heap — the interface indirection boxes
// every pushed and popped entry, which profiling showed was the single
// largest allocation source on the ikNN hot path.
type seedFrontier []seedEntry

type seedEntry struct {
	uid index.UnitID
	key float64
}

func (a seedEntry) less(b seedEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.uid < b.uid
}

func (h *seedFrontier) push(e seedEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *seedFrontier) pop() seedEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].less(s[small]) {
			small = l
		}
		if r < n && s[r].less(s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// seedScratch pools the kSeedsSelection working state — the frontier heap
// and the bookkeeping maps — so the flood reuses warmed buckets instead of
// allocating five maps per query.
type seedScratch struct {
	h         seedFrontier
	queued    map[index.UnitID]bool
	popped    map[index.UnitID]bool
	seen      map[object.ID]bool
	remaining map[object.ID]int            // unvisited units per seen object
	waiting   map[index.UnitID][]object.ID // objects waiting on a unit
}

var seedScratchPool = sync.Pool{New: func() any {
	return &seedScratch{
		queued:    make(map[index.UnitID]bool),
		popped:    make(map[index.UnitID]bool),
		seen:      make(map[object.ID]bool),
		remaining: make(map[object.ID]int),
		waiting:   make(map[index.UnitID][]object.ID),
	}
}}

func (sc *seedScratch) put() {
	sc.h = sc.h[:0]
	clear(sc.queued)
	clear(sc.popped)
	clear(sc.seen)
	clear(sc.remaining)
	clear(sc.waiting)
	seedScratchPool.Put(sc)
}

// kSeedsSelection is Algorithm 5: expand units outward from the query
// point's unit through the topological links (nearest unit first by the
// geometric bound), collecting bucket objects, until at least k objects are
// *closed* — every unit of their uncertainty region visited — so that the
// subsequent TLU evaluation over the visited units is finite for k seeds.
// It returns the visited units Rp1 and the closed seed objects Ro1.
func (ex *exec) kSeedsSelection(q indoor.Position, k int) (units []index.UnitID, objs []object.ID, err error) {
	start := ex.s.LocateUnit(q)
	if start == nil {
		return nil, nil, fmt.Errorf("query: point %v is outside every partition", q)
	}
	// The seed flood always keys on the skeleton bound (the ablation only
	// swaps the filtering bound), so anchor unconditionally.
	anchor := ex.s.NewSkelAnchor(q)
	sscr := seedScratchPool.Get().(*seedScratch)
	defer sscr.put()
	h := sscr.h
	defer func() { sscr.h = h }()
	h.push(seedEntry{uid: start.ID, key: 0})
	queued, popped := sscr.queued, sscr.popped
	seen, remaining, waiting := sscr.seen, sscr.remaining, sscr.waiting
	queued[start.ID] = true
	closed := 0

	for len(h) > 0 && closed < k {
		cur := h.pop()

		u := ex.s.Unit(cur.uid)
		if u == nil {
			continue
		}
		units = append(units, cur.uid)
		popped[cur.uid] = true
		for _, oid := range waiting[cur.uid] {
			remaining[oid]--
			if remaining[oid] == 0 {
				closed++
				objs = append(objs, oid)
			}
		}
		delete(waiting, cur.uid)
		for _, oid := range ex.s.BucketObjectsView(cur.uid) {
			if seen[oid] {
				continue
			}
			seen[oid] = true
			rem := 0
			for _, ou := range ex.s.ObjectUnitsView(oid) {
				if !popped[ou] {
					// The flood stays door-connected: the missing unit
					// will be queued by door expansion, keeping every
					// popped unit reachable inside the seed subgraph (a
					// finite TLU needs exactly that).
					rem++
					waiting[ou] = append(waiting[ou], oid)
				}
			}
			if rem == 0 {
				closed++
				objs = append(objs, oid)
			} else {
				remaining[oid] = rem
			}
		}
		for _, d := range u.Doors {
			next := d.OtherUnit(cur.uid)
			if next == index.NoUnit || queued[next] {
				continue
			}
			nu := ex.s.Unit(next)
			if nu == nil || !d.CanEnter(nu) {
				continue
			}
			queued[next] = true
			h.push(seedEntry{uid: next, key: ex.s.AnchorMinDistUnit(anchor, nu)})
		}
	}
	return units, objs, nil
}

// KNNQuery evaluates ikNNq,k(O) per Algorithm 2, returning k objects with
// the smallest expected indoor distances (fewer when the index holds fewer
// reachable objects). Like RangeQuery it pins one snapshot for the whole
// evaluation.
func (p *Processor) KNNQuery(q indoor.Position, k int) ([]Result, *Stats, error) {
	return p.KNNQueryOn(p.Pin(), q, k)
}

// KNNQueryOn is KNNQuery against an explicitly pinned snapshot.
func (p *Processor) KNNQueryOn(s *index.Snapshot, q indoor.Position, k int) ([]Result, *Stats, error) {
	ex := &exec{s: s, opts: p.opts}
	st := &Stats{TotalObjects: s.Objects().Len()}
	if k <= 0 {
		return nil, st, nil
	}

	ar := distance.AcquireArena()
	defer ar.Release()
	scr := knnScratchPool.Get().(*knnScratch)
	defer knnScratchPool.Put(scr)

	// Phase 1: filtering — seeds, kbound from the TLU (Lemma 3), then the
	// geometric range search with kbound.
	start := time.Now()
	kbound, err := ex.kbound(q, k, ar)
	if err != nil {
		return nil, st, err
	}
	units, candidates := ex.rangeSearch(q, kbound)
	st.Filtering = time.Since(start)
	st.UnitsRetrieved = len(units)
	st.Candidates = len(candidates)

	// Phase 2: subgraph.
	start = time.Now()
	eng, err := distance.New(s, q, units, math.Inf(1))
	if err != nil {
		return nil, st, err
	}
	defer eng.Close()
	st.Subgraph = time.Since(start)

	// Phase 3: pruning around the k-th smallest upper bound, with the
	// bounds of all candidates evaluated in one batch against the shared
	// subgraph engine (bounds[i] corresponds to candidates[i]).
	start = time.Now()
	bounds := eng.ObjectBoundsBatch(candidates, kbound, ar)
	var results []Result
	undetermined := scr.undet[:0]
	if p.opts.DisablePruning || len(candidates) <= k {
		undetermined = append(undetermined, candidates...)
	} else {
		uppers := growFloats(&scr.uppers, len(bounds))
		for i, b := range bounds {
			uppers[i] = b.Upper
		}
		sort.Float64s(uppers)
		kthUpper := uppers[k-1]
		kthLower := math.Inf(1)
		// Ok.l in Algorithm 2: the lower bound of the object holding the
		// k-th upper bound; any object whose upper bound beats every
		// k-th-ranked lower bound is a sure result. We use the safest
		// (smallest) lower bound among objects whose upper bound reaches
		// kthUpper.
		for _, b := range bounds {
			if b.Upper >= kthUpper && b.Lower < kthLower {
				kthLower = b.Lower
			}
		}
		for i, b := range bounds {
			switch {
			case b.Upper < kthLower:
				st.AcceptedBounds++
				results = append(results, Result{ID: candidates[i], Distance: math.NaN()})
			case b.Lower <= kthUpper:
				undetermined = append(undetermined, candidates[i])
			default:
				st.RejectedBounds++
			}
		}
	}
	scr.undet = undetermined
	st.Pruning = time.Since(start)

	// Phase 4: refinement — candidates whose bracket stays open (far
	// subregions beyond kbound) climb the escalation ladder, so the final
	// ordering uses true expected distances.
	start = time.Now()
	rf := &refiner{ex: ex, q: q, r: kbound, eng: eng, stats: st}
	defer rf.Close()
	exact := scr.exact[:0]
	st.Refined += len(undetermined)
	for _, oid := range undetermined {
		var d float64
		if _, d, err = rf.resolve(s.Objects().Get(oid), closed); err != nil {
			break
		}
		exact = append(exact, Result{ID: oid, Distance: d})
	}
	scr.exact = exact
	if err != nil {
		return nil, st, err
	}
	sort.Slice(exact, func(i, j int) bool {
		if exact[i].Distance != exact[j].Distance {
			return exact[i].Distance < exact[j].Distance
		}
		return exact[i].ID < exact[j].ID
	})
	need := k - len(results)
	if need > len(exact) {
		need = len(exact)
	}
	results = append(results, exact[:need]...)
	st.Refinement = time.Since(start)

	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	return results, st, nil
}

// kbound is the Lemma 3 filtering radius of an ikNN at q: the seed flood
// (Algorithm 5), the seeds' TLUs on an engine restricted to the seed
// units, and the k-th smallest of them. The restriction makes every door
// distance the length of some real path — exactly the looser-bound
// requirement of Lemma 3 — so with at least k finite TLUs the k-th
// smallest bounds the k-th nearest neighbour's expected distance. With
// fewer than k closed seeds the bound is +Inf.
func (ex *exec) kbound(q indoor.Position, k int, ar *distance.Arena) (float64, error) {
	seedUnits, seeds, err := ex.kSeedsSelection(q, k)
	if err != nil || len(seeds) < k {
		return math.Inf(1), err
	}
	seedEng, err := distance.New(ex.s, q, seedUnits, math.Inf(1))
	if err != nil {
		return 0, err
	}
	defer seedEng.Close()
	tlus := seedEng.TLUBatch(seeds, ar)
	sort.Float64s(tlus)
	return tlus[k-1], nil
}
