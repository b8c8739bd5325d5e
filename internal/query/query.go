// Package query implements the paper's distance-aware query processors
// (§IV): the indoor range query iRQ (Algorithm 1) and the indoor k nearest
// neighbour query ikNNQ (Algorithm 2), one-shot (Processor) and standing
// (Subscriptions). Both kinds are one evaluation of the four phases of
// §IV-B — filtering (RangeSearch, Algorithm 4, and kSeedsSelection,
// Algorithm 5), subgraph (restricted multi-source Dijkstra), pruning
// (Table III bounds) and refinement (exact expected distances).
// buildPhase runs filtering and the subgraph phase into a phase; pruning
// and refinement then decide candidates against that phase. A one-shot
// query decides its candidates and releases the phase. A standing query
// is the same evaluation with the phase kept: every object an update
// routes to it is decided against that phase until a refresh replaces it.
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

// exec is one query evaluation bound to a pinned snapshot and a query
// point. Its skeleton anchor is the evaluation's only one: the filtering
// bounds, the seed flood and every restricted engine evaluate Equation 10
// through it; only the full rung anchors its own.
type exec struct {
	s    *index.Snapshot
	opts Options
	q    indoor.Position
	a    *index.SkelAnchor
}

func newExec(s *index.Snapshot, q indoor.Position, opts Options) *exec {
	return &exec{s: s, opts: opts, q: q, a: s.NewSkelAnchor(q)}
}

// geomBound returns the geometric lower bound used by the filtering phase:
// Equation 10 (through the query's anchor) by default, plain 3D Euclidean
// under the ablation.
func (ex *exec) geomBound(box geom.Rect3) float64 {
	if ex.opts.DisableSkeleton {
		q := ex.q
		return box.MinDist3(geom.Pt3(q.Pt.X, q.Pt.Y, ex.s.Building().Elevation(q.Floor)))
	}
	return ex.s.AnchorMinDistBox(ex.a, box)
}

// objectBound is the object-level geometric lower bound.
func (ex *exec) objectBound(id object.ID) float64 {
	if ex.opts.DisableSkeleton {
		return ex.s.ObjectMinEuclid3(ex.q, id)
	}
	return ex.s.AnchorObjectMinSkel(ex.a, id)
}

// rangeSearch is Algorithm 4: it walks the tree tier pruning with the
// geometric lower bound, returning the candidate units Rp and candidate
// objects Ro. The cross-unit seen-set is a pooled visited stamp keyed by
// the object store's slot index, so the walk allocates no per-query map.
func (ex *exec) rangeSearch(r float64) (units []index.UnitID, objs []object.ID) {
	store := ex.s.Objects()
	sc := graph.AcquireScratch()
	defer sc.Release()
	sc.Reset(0, store.SlotBound())
	ex.s.SearchTree(
		func(box geom.Rect3) bool { return ex.geomBound(box) <= r },
		func(u *index.Unit) {
			units = append(units, u.ID)
			for _, oid := range ex.s.BucketObjectsView(u.ID) {
				slot := store.SlotOf(oid)
				if slot < 0 || sc.Marked(slot) {
					continue
				}
				sc.Mark(slot)
				if ex.objectBound(oid) <= r {
					objs = append(objs, oid)
				}
			}
		},
	)
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return units, objs
}

// phase is the output of one evaluation's filtering and subgraph phases —
// the radius, the candidate-unit footprint and the door-distance engine —
// plus the full-building engine refinement falls back to. Pruning and
// refinement decide objects against it and record into its Stats. A
// one-shot query releases it after deciding its candidates; a standing
// query keeps it (see standingQuery). Refinement has two rungs: the phase
// engine's bracket, then the full engine, built on first need and kept
// for the phase's lifetime. The full engine is lazy (distance.NewFull):
// it settles only the doors the objects it resolves read, so an object
// near the query point costs the doors around it, not the building.
type phase struct {
	ex    *exec
	r     float64 // the filtering radius: r, or the kNN kbound R
	units []index.UnitID
	st    *Stats

	eng  *distance.Engine
	full *distance.Engine

	// fullReach accumulates the full rung's Reach over the phase's
	// lifetime, across the full engines a standing query releases and
	// rebuilds (see phase.carry).
	fullReach float64
}

// buildPhase runs filtering (Algorithm 4 at radius r) and the subgraph
// phase, recording both into st; the filtering clock runs from start,
// which the kNN prologue sets before its kbound.
func (ex *exec) buildPhase(start time.Time, r float64, st *Stats) (*phase, []object.ID, error) {
	units, candidates := ex.rangeSearch(r)
	st.Filtering = time.Since(start)
	st.UnitsRetrieved = len(units)
	st.Candidates = len(candidates)

	// Subgraph: Dijkstra restricted to the retrieved units. The
	// restriction is sound: any path of length ≤ r only crosses units
	// whose geometric lower bound is ≤ r (Lemma 6).
	start = time.Now()
	eng, err := distance.New(ex.s, ex.q, ex.a, units)
	if err != nil {
		return nil, nil, err
	}
	st.Subgraph = time.Since(start)
	return &phase{ex: ex, r: r, units: units, st: st, eng: eng}, candidates, nil
}

// release returns the phase's engines' pooled scratch storage.
// Idempotent.
func (ph *phase) release() {
	ph.eng.Close()
	ph.full.Close()
	ph.eng, ph.full = nil, nil
}

// verdict is the iRQ pruning decision for one object.
type verdict uint8

const (
	undecided verdict = iota // the bounds straddle r: refine
	accepted                 // upper bound ≤ r
	rejected                 // lower bound > r
)

// prune is the iRQ pruning step for one object: the Table III bounds
// against the phase radius.
func (ph *phase) prune(o *object.Object) verdict {
	switch b := ph.eng.ObjectBounds(o, ph.r); {
	case b.Upper <= ph.r:
		ph.st.AcceptedBounds++
		return accepted
	case b.Lower > ph.r:
		ph.st.RejectedBounds++
		return rejected
	}
	return undecided
}

// refine is the iRQ refinement step for one object: resolve until the
// bracket lies wholly on one side of the phase radius. The object
// qualifies iff the bracket's high end, returned as its distance, is
// within it.
func (ph *phase) refine(o *object.Object) (bool, float64, error) {
	ph.st.Refined++
	_, high, err := ph.resolve(o, decided(ph.r))
	return high <= ph.r, high, err
}

// resolve brackets one object's expected distance with the phase engine
// and returns that [low, high] if settled accepts it. Otherwise the full
// engine resolves the object exactly: it returns (d, d) and counts a
// FullFallback. An iRQ decision settles on decided(r) and the object
// qualifies iff high <= r; an exact distance settles on closed and is
// high.
func (ph *phase) resolve(o *object.Object, settled func(low, high float64) bool) (low, high float64, err error) {
	if low, high = ph.eng.ExactDistBracket(o, ph.r); settled(low, high) {
		return low, high, nil
	}
	if ph.full == nil {
		if ph.full, err = distance.NewFull(ph.ex.s, ph.ex.q); err != nil {
			return 0, 0, err
		}
	}
	ph.st.FullFallbacks++
	d, _ := ph.full.ExactDist(o)
	ph.fullReach = max(ph.fullReach, ph.full.Reach())
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
	st := &Stats{TotalObjects: s.Objects().Len()}
	ph, results, err := newExec(s, q, p.opts).rangeQuery(r, st)
	if err != nil {
		return nil, st, err
	}
	ph.release()
	return results, st, nil
}

// rangeQuery is Algorithm 1: the phase at r, then pruning and refinement
// of every candidate against it. It returns the phase for the caller to
// release, or to keep as a range subscription's; on error the phase is
// already released.
func (ex *exec) rangeQuery(r float64, st *Stats) (*phase, []Result, error) {
	ph, candidates, err := ex.buildPhase(time.Now(), r, st)
	if err != nil {
		return nil, nil, err
	}
	var results []Result
	var undetermined []object.ID

	// Pruning with the Table III bounds.
	start := time.Now()
	if ex.opts.DisablePruning {
		undetermined = candidates
	} else {
		for _, oid := range candidates {
			switch ph.prune(ex.s.Objects().Get(oid)) {
			case accepted:
				results = append(results, Result{ID: oid, Distance: math.NaN()})
			case undecided:
				undetermined = append(undetermined, oid)
			}
		}
	}
	st.Pruning = time.Since(start)

	// Refinement — bracketed exact distances, resolved on the full engine
	// when the bracket straddles r; brackets only stay open for objects
	// mixing near mass with far subregions.
	start = time.Now()
	for _, oid := range undetermined {
		in, d, err := ph.refine(ex.s.Objects().Get(oid))
		if err != nil {
			ph.release()
			return nil, nil, err
		}
		if in {
			results = append(results, Result{ID: oid, Distance: d})
		}
	}
	st.Refinement = time.Since(start)

	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	return ph, results, nil
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
//
// The seed flood always keys on the skeleton bound: the ablation only
// swaps the filtering bound.
func (ex *exec) kSeedsSelection(k int) (units []index.UnitID, objs []object.ID, err error) {
	start := ex.s.LocateUnit(ex.q)
	if start == nil {
		return nil, nil, fmt.Errorf("query: point %v is outside every partition", ex.q)
	}
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
			h.push(seedEntry{uid: next, key: ex.s.AnchorMinDistUnit(ex.a, nu)})
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
	st := &Stats{TotalObjects: s.Objects().Len()}
	if k <= 0 {
		return nil, st, nil
	}

	ar := distance.AcquireArena()
	defer ar.Release()
	scr := knnScratchPool.Get().(*knnScratch)
	defer knnScratchPool.Put(scr)

	ph, candidates, err := newExec(s, q, p.opts).knnPhase(k, st, ar)
	if err != nil {
		return nil, st, err
	}
	defer ph.release()

	// Pruning around the k-th smallest upper bound, with the bounds of all
	// candidates evaluated in one batch against the shared subgraph engine
	// (bounds[i] corresponds to candidates[i]). With pruning off, or no
	// more than k candidates, every candidate is refined and no bound is
	// needed.
	start := time.Now()
	var results []Result
	undetermined := scr.undet[:0]
	if p.opts.DisablePruning || len(candidates) <= k {
		undetermined = append(undetermined, candidates...)
	} else {
		bounds := ph.eng.ObjectBoundsBatch(candidates, ph.r, ar)
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

	// Refinement — candidates whose bracket stays open (far subregions
	// beyond kbound) are resolved on the full engine, so the final
	// ordering uses true expected distances.
	start = time.Now()
	exact := scr.exact[:0]
	st.Refined += len(undetermined)
	for _, oid := range undetermined {
		var d float64
		if _, d, err = ph.resolve(s.Objects().Get(oid), closed); err != nil {
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

// knnPhase is the set-up the one-shot ikNN and the kNN subscription
// share: the Lemma 3 kbound R, then the phase at R, with the kbound's
// seed flood counted as filtering time.
func (ex *exec) knnPhase(k int, st *Stats, ar *distance.Arena) (*phase, []object.ID, error) {
	start := time.Now()
	kbound, err := ex.kbound(k, ar)
	if err != nil {
		return nil, nil, err
	}
	return ex.buildPhase(start, kbound, st)
}

// kbound is the Lemma 3 filtering radius of an ikNN: the seed flood
// (Algorithm 5), the seeds' TLUs on an engine restricted to the seed
// units, and the k-th smallest of them. The restriction makes every door
// distance the length of some real path — exactly the looser-bound
// requirement of Lemma 3 — so with at least k finite TLUs the k-th
// smallest bounds the k-th nearest neighbour's expected distance. With
// fewer than k closed seeds the bound is +Inf.
func (ex *exec) kbound(k int, ar *distance.Arena) (float64, error) {
	seedUnits, seeds, err := ex.kSeedsSelection(k)
	if err != nil || len(seeds) < k {
		return math.Inf(1), err
	}
	seedEng, err := distance.New(ex.s, ex.q, ex.a, seedUnits)
	if err != nil {
		return 0, err
	}
	defer seedEng.Close()
	tlus := seedEng.TLUBatch(seeds, ar)
	sort.Float64s(tlus)
	return tlus[k-1], nil
}
