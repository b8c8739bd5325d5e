package distance

import (
	"math"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/object"
)

// Restricted-subgraph soundness. An engine built over the filtering phase's
// unit set computes door distances that are exact up to the search radius:
// any indoor path of length ≤ cap only crosses units whose geometric lower
// bound is ≤ cap (Lemma 6), so a door whose restricted distance exceeds cap
// — or is +Inf because its unit fell outside the set — provably has true
// distance > cap. Distance evaluation exploits this to produce sound
// brackets: restricted values serve as upper views, and min(value, cap)
// serves as a lower view per door. Queries pass their RangeSearch radius as
// cap; full engines pass +Inf, collapsing the brackets to exact values.
//
// Partial-mass conditioning. The object layer drops instances that lie
// outside every index unit (an uncertainty region straddling a wall), so
// an object's indexed subregions may carry total probability mass P < 1.
// All expected distances here are CONDITIONAL expectations over the
// indexed mass — Σ pᵢ·dᵢ / P — which coincides with the paper's Equation 2
// for fully indoor objects (P = 1) and, crucially, keeps every bound
// sound: under the conditional distribution the subregion probabilities
// renormalise to 1, so Lemma 1's "expectation ≥ minimum instance
// distance" argument (and with it the geometric, topological and
// Equation 8 lower bounds, all derived from per-instance minima over the
// indexed subregions) holds again. An unnormalised expectation would sink
// below every instance distance as mass is lost, silently breaking the
// pruning phases.

// Bounds brackets an object's expected indoor distance E(|q, O|I) per
// Table III: topological upper/lower bounds (Equation 7) for objects in a
// single partition, tightened by probabilistic bounds (Equation 8) for
// multi-partition objects, with the geometric (skeleton) lower bound of
// Lemma 6 folded in.
type Bounds struct {
	Lower, Upper float64
	// MultiPartition reports whether the object's subregions span several
	// indoor partitions (the Equation 8 case).
	MultiPartition bool
}

// subEval carries the per-subregion topological bounds of Lemmas 1 and 2:
// tmin lower-bounds and tmax upper-bounds the indoor distance to every
// instance of the subregion.
type subEval struct {
	sub        *index.Subregion
	prob       float64
	tmin, tmax float64
}

// doorW pairs an enterable door with its restricted distance (base, an
// upper view) and the capped sound lower view.
type doorW struct {
	d    *index.DoorRef
	base float64
	low  float64
}

// evalScratch returns the engine's reusable subEval buffer sized to n; the
// contents are overwritten by the caller. The buffer lives in the pooled
// evalBufs bundle (batch.go), so per-object bound evaluation is
// allocation-free in the steady state and the grown storage is recycled
// across engines instead of thrown away at Close.
func (e *Engine) evalScratch(n int) []subEval {
	if cap(e.bufs.eval) < n {
		e.bufs.eval = make([]subEval, n)
	}
	e.bufs.eval = e.bufs.eval[:n]
	return e.bufs.eval
}

// doorScratch is evalScratch's counterpart for per-unit door evaluations.
func (e *Engine) doorScratch() []doorW {
	return e.bufs.door[:0]
}

// sufScratch returns the reusable suffix-maximum buffer sized to n.
func (e *Engine) sufScratch(n int) []float64 {
	if cap(e.bufs.suf) < n {
		e.bufs.suf = make([]float64, n)
	}
	e.bufs.suf = e.bufs.suf[:n]
	return e.bufs.suf
}

// sortEvalsByTmin is an allocation-free insertion sort (ascending tmin).
func sortEvalsByTmin(evals []subEval) {
	for i := 1; i < len(evals); i++ {
		for j := i; j > 0 && evals[j].tmin < evals[j-1].tmin; j-- {
			evals[j], evals[j-1] = evals[j-1], evals[j]
		}
	}
}

// evalSub computes the per-subregion bounds against the cap discipline: for
// every enterable door d of the subregion's unit, min(base, cap) plus the
// Euclidean minimum leg feeds tmin, and the uncapped base plus the maximum
// leg feeds tmax (Equation 7's inner terms). A direct in-unit leg is added
// when the subregion shares the query point's unit.
func (e *Engine) evalSub(s *index.Subregion, cap float64) subEval {
	u := e.idx.Unit(s.Unit)
	ev := subEval{sub: s, prob: s.Prob, tmin: math.Inf(1), tmax: math.Inf(1)}
	if u == nil {
		return ev
	}
	for _, d := range u.Doors {
		if !d.CanEnter(u) {
			continue
		}
		base := e.DoorDist(d)
		low := base
		if low > cap {
			low = cap // true distance exceeds cap; cap is a sound floor
		}
		if v := low + s.MBR.MinDist(d.Pos); v < ev.tmin {
			ev.tmin = v
		}
		if math.IsInf(base, 1) {
			continue
		}
		if v := base + s.MBR.MaxDist(d.Pos); v < ev.tmax {
			ev.tmax = v
		}
	}
	if u.ID == e.qUnit.ID {
		if v := s.MBR.MinDist(e.q.Pt); v < ev.tmin {
			ev.tmin = v
		}
		if v := s.MBR.MaxDist(e.q.Pt); v < ev.tmax {
			ev.tmax = v
		}
	}
	return ev
}

// ObjectBounds derives [O.l, O.u] for the pruning phase. The lower bound is
// the maximum of the topological lower bound (Lemma 1) and the skeleton
// lower bound (Lemma 6); the upper bound is the topological upper bound
// (Lemma 2). For multi-partition objects the probabilistic bounds tighten
// both sides. cap is the radius the engine's unit set was filtered with
// (see the package note on restricted-subgraph soundness).
//
// The probabilistic bounds implemented here are the sound strengthening of
// Lemma 5: with subregions sorted by tmin and p̂i the prefix probability,
// every cut i gives
//
//	E ≥ p̂i·tmin(1) + (1−p̂i)·tmin(i+1)
//	E ≤ p̂i·max(tmax(1..i)) + (1−p̂i)·max(tmax(i+1..m))
//
// which needs no disjoint-range precondition (the paper's formulation with
// |q,S[i]|maxI holds only when the subregions' distance ranges are
// disjoint; the prefix/suffix form is valid unconditionally and coincides
// with it in the disjoint case).
func (e *Engine) ObjectBounds(o *object.Object, cap float64) Bounds {
	subs := e.idx.ObjectSubregions(o.ID)
	if len(subs) == 0 {
		return Bounds{Lower: math.Inf(1), Upper: math.Inf(1)}
	}
	evals := e.evalScratch(len(subs))
	lo, hi := math.Inf(1), 0.0
	skel := math.Inf(1)
	mass := 0.0
	for i := range subs {
		evals[i] = e.evalSub(&subs[i], cap)
		mass += evals[i].prob
		if evals[i].tmin < lo {
			lo = evals[i].tmin
		}
		if evals[i].tmax > hi {
			hi = evals[i].tmax
		}
		u := e.idx.Unit(subs[i].Unit)
		if u != nil {
			if v := e.anchor.MinDistRect(subs[i].MBR, u.FloorLo, u.FloorHi); v < skel {
				skel = v
			}
		}
	}
	b := Bounds{Lower: math.Max(lo, skel), Upper: hi, MultiPartition: e.idx.MultiPartition(o.ID)}
	if len(evals) < 2 || mass <= 0 {
		return b
	}

	// Probabilistic tightening (Equation 8, strengthened form). The prefix
	// probabilities renormalise by the indexed mass (see the package note
	// on partial-mass conditioning); for fully indoor objects mass is 1.
	// Subregion counts are tiny, so an in-place insertion sort avoids the
	// reflection and closure allocations package sort would add per
	// candidate object.
	sortEvalsByTmin(evals)
	m := len(evals)
	sufMax := e.sufScratch(m + 1)
	sufMax[m] = 0
	for i := m - 1; i >= 0; i-- {
		sufMax[i] = math.Max(sufMax[i+1], evals[i].tmax)
	}
	pHat, preMax := 0.0, 0.0
	first := evals[0].tmin
	for i := 0; i+1 < m; i++ {
		pHat += evals[i].prob / mass
		preMax = math.Max(preMax, evals[i].tmax)
		lb := pHat*first + (1-pHat)*evals[i+1].tmin
		ub := pHat*preMax + (1-pHat)*sufMax[i+1]
		if lb > b.Lower {
			b.Lower = lb
		}
		if ub < b.Upper {
			b.Upper = ub
		}
	}
	if b.Lower > b.Upper { // numerical guard; bounds are theoretically nested
		b.Lower = b.Upper
	}
	return b
}

// TLU is the topological looser upper bound of Lemma 3: on an engine whose
// Dijkstra ran over a restricted unit set, door distances are lengths of
// *some* path (shortest within the subgraph, hence a valid path in the full
// space), so the derived upper bound is exactly the looser bound the ikNNQ
// filtering phase needs for its kbound.
func (e *Engine) TLU(o *object.Object) float64 {
	subs := e.idx.ObjectSubregions(o.ID)
	if len(subs) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range subs {
		ev := e.evalSub(&subs[i], math.Inf(1))
		if ev.tmax > worst {
			worst = ev.tmax
		}
	}
	return worst
}

// ExactDist computes the expected indoor distance E(|q, O|I) of Equation 2.
// The boolean reports exactness: true on a full engine; on a restricted
// engine the value is only the upper view (a subgraph can only lengthen
// paths) and callers needing guarantees should use ExactDistBracket with
// the radius their unit set was filtered with.
func (e *Engine) ExactDist(o *object.Object) (float64, bool) {
	_, high := e.ExactDistBracket(o, math.Inf(1))
	if e.full && math.IsInf(high, 1) {
		e.reach = math.Inf(1)
	}
	return high, e.full
}

// ExactDistBracket returns [low, high] enclosing the true expected indoor
// distance (Equations 2–6, conditioned on the indexed mass per the package
// note). high is the expected distance computed from the restricted door
// distances (an upper view because a subgraph can only lengthen paths);
// low substitutes min(base, cap) per door (sound per the package note).
// When every involved door distance is at most cap the bracket collapses
// and the value is exact.
func (e *Engine) ExactDistBracket(o *object.Object, cap float64) (low, high float64) {
	subs := e.idx.ObjectSubregions(o.ID)
	if len(subs) == 0 {
		return math.Inf(1), math.Inf(1)
	}
	mass := 0.0
	for i := range subs {
		mass += subs[i].Prob
		l, h := e.exactSub(o, &subs[i], cap)
		low += l
		high += h
	}
	if mass > 0 && mass != 1 {
		low /= mass
		high /= mass
	}
	return low, high
}

// exactSub returns bracket contributions Σ p_i·|q, s_i|I over one
// subregion's instances, dispatching between the single-path form
// (Equation 3, detected through additive-weighted bisector dominance per
// Table II) and the per-instance multi-path form (Equation 4).
func (e *Engine) exactSub(o *object.Object, s *index.Subregion, cap float64) (low, high float64) {
	u := e.idx.Unit(s.Unit)
	if u == nil {
		return math.Inf(1), math.Inf(1)
	}
	doors := e.doorScratch()
	capped := false
	for _, d := range u.Doors {
		if !d.CanEnter(u) {
			continue
		}
		base := e.DoorDist(d)
		lowW := base
		if lowW > cap {
			lowW = cap
			capped = true
		}
		doors = append(doors, doorW{d: d, base: base, low: lowW})
	}
	e.bufs.door = doors
	direct := u.ID == e.qUnit.ID

	if len(doors) == 0 && !direct {
		// No enterable door at all (closures/one-way): truly unreachable,
		// independent of the engine's restriction.
		e.Stats.Unreachable++
		return math.Inf(1), math.Inf(1)
	}

	// Single-path shortcut (Equation 3): valid only when no capping is in
	// play (weights are then exact) and the query is not in this unit.
	if !direct && !capped && len(doors) > 0 {
		bestIdx := 0
		bestKey := math.Inf(1)
		for i, dw := range doors {
			if k := dw.base + s.MBR.MinDist(dw.d.Pos); k < bestKey {
				bestKey, bestIdx = k, i
			}
		}
		if !math.IsInf(bestKey, 1) {
			dominant := true
			for i, dw := range doors {
				if i == bestIdx {
					continue
				}
				bi := geom.Bisector{
					Di: doors[bestIdx].d.Pos, Dj: dw.d.Pos,
					Wi: doors[bestIdx].base, Wj: dw.base,
				}
				if bi.RectSide(s.MBR) != -1 {
					dominant = false
					break
				}
			}
			if dominant {
				e.Stats.SinglePath++
				sum := 0.0
				dd := doors[bestIdx]
				for _, ii := range s.Idx {
					in := o.Instances[ii]
					sum += in.P * (dd.base + dd.d.Pos.DistTo(in.Pos.Pt))
				}
				return sum, sum
			}
		}
	}

	// Multi-path (Equation 4): evaluate each instance against every door's
	// weighted distance (the additive-weighted Voronoi cells).
	e.Stats.MultiPath++
	for _, ii := range s.Idx {
		in := o.Instances[ii]
		bestHi, bestLo := math.Inf(1), math.Inf(1)
		if direct {
			d := u.WalkDist(e.q, in.Pos)
			bestHi, bestLo = d, d
		}
		for _, dw := range doors {
			leg := dw.d.Pos.DistTo(in.Pos.Pt)
			if v := dw.base + leg; v < bestHi {
				bestHi = v
			}
			if v := dw.low + leg; v < bestLo {
				bestLo = v
			}
		}
		low += in.P * bestLo
		high += in.P * bestHi
	}
	return low, high
}
