package query

import (
	"math"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
)

// Estimator predicts iRQ result cardinalities without evaluating the query
// — the paper's second future-work direction (selectivity estimation for
// indoor distance-aware queries, for use in query optimisation).
//
// The model walks the tree tier exactly like the filtering phase, but
// instead of retrieving objects it integrates, over each candidate unit, a
// coarse grid of skeleton distances scaled by a detour factor α ≥ 1 (the
// mean ratio of indoor to skeleton distance, calibrated once per building
// by sampling true queries). A unit with bucket size n contributes n times
// the fraction of its grid cells within r/… — more precisely, cells whose
// scaled skeleton distance is at most r. A global multiplicity correction
// divides out objects counted in several buckets.
type Estimator struct {
	idx *index.Index
	// Alpha is the indoor/skeleton detour factor. 1 underestimates (it
	// assumes straight-line walks); Calibrate fits it.
	Alpha float64
	// grid is the per-axis sample count over a unit rectangle.
	grid int
}

// NewEstimator returns an estimator with a neutral detour factor of 1.25
// (hallway-grid buildings detour ~20–30% over the crow-flies line).
func NewEstimator(idx *index.Index) *Estimator {
	return &Estimator{idx: idx, Alpha: 1.25, grid: 3}
}

// multiplicity returns the mean number of buckets an object occupies in
// snapshot s, the double-count correction.
func multiplicity(s *index.Snapshot) float64 {
	objs := s.Objects().Len()
	if objs == 0 {
		return 1
	}
	entries := 0
	for _, id := range s.Objects().IDs() {
		entries += len(s.ObjectUnitsView(id))
	}
	m := float64(entries) / float64(objs)
	if m < 1 {
		return 1
	}
	return m
}

// EstimateRange predicts |iRQ(q, r)|. It pins one snapshot for the walk and
// the multiplicity correction, so estimates run concurrently with queries
// and updates, never block either, and never mix two states.
func (e *Estimator) EstimateRange(q indoor.Position, r float64) float64 {
	if r < 0 {
		return 0
	}
	s := e.idx.Current()
	sk := s.Skeleton()
	var sum float64
	s.SearchTree(
		func(box geom.Rect3) bool { return s.MinSkelDistBox(q, box)*e.Alpha <= r },
		func(u *index.Unit) {
			n := len(s.BucketObjectsView(u.ID))
			if n == 0 {
				return
			}
			inside, total := 0, 0
			for i := 0; i < e.grid; i++ {
				for j := 0; j < e.grid; j++ {
					p := geom.Pt(
						u.Rect.MinX+(float64(i)+0.5)*u.Rect.Width()/float64(e.grid),
						u.Rect.MinY+(float64(j)+0.5)*u.Rect.Height()/float64(e.grid),
					)
					d := sk.Dist(q, indoor.Position{Pt: p, Floor: u.FloorLo})
					total++
					if d*e.Alpha <= r {
						inside++
					}
				}
			}
			sum += float64(n) * float64(inside) / float64(total)
		},
	)
	return sum / multiplicity(s)
}

// Calibrate fits Alpha by evaluating true queries at the given points and
// choosing the factor that minimises the summed absolute cardinality error
// over a small grid of candidate factors. It returns the fitted factor.
// Calibrate takes no lock itself (each inner query and estimate does); it
// mutates Alpha, so do not calibrate while other goroutines estimate.
func (e *Estimator) Calibrate(points []indoor.Position, r float64) (float64, error) {
	if len(points) == 0 {
		return e.Alpha, nil
	}
	p := New(e.idx, Options{})
	truth := make([]float64, len(points))
	for i, q := range points {
		res, _, err := p.RangeQuery(q, r)
		if err != nil {
			return e.Alpha, err
		}
		truth[i] = float64(len(res))
	}
	bestAlpha, bestErr := e.Alpha, math.Inf(1)
	for alpha := 1.0; alpha <= 2.0+1e-9; alpha += 0.05 {
		e.Alpha = alpha
		var errSum float64
		for i, q := range points {
			errSum += math.Abs(e.EstimateRange(q, r) - truth[i])
		}
		if errSum < bestErr {
			bestErr, bestAlpha = errSum, alpha
		}
	}
	e.Alpha = bestAlpha
	return bestAlpha, nil
}
