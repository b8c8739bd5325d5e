// Package baseline implements the comparison points of the paper's
// evaluation: (1) the distance pre-computation alternative assumed by the
// prior works [16], [24] — all-pairs door-to-door indoor distances, whose
// construction and update cost Figure 15(d) contrasts with the composite
// index's incremental maintenance; and (2) a brute-force query oracle used
// by the test suite to validate iRQ and ikNNQ results.
package baseline

import (
	"math"
	"sort"
	"time"

	"repro/internal/distance"
	"repro/internal/doorgraph"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Precomputed is the all-pairs door-to-door distance matrix over a
// building's topological layer. A topological change invalidates it
// wholesale (the paper's §V-B.4 point): Update is simply a full recompute.
type Precomputed struct {
	// NDoors is the number of door nodes in the doors graph.
	NDoors int
	// D[i][j] is the indoor distance from door i to door j, indexed by the
	// dense door ids of the snapshot's DoorGraph.
	D [][]float64
	// Elapsed is the wall time of the last (re)computation.
	Elapsed time.Duration
}

// fromDoor runs one unrestricted single-source Dijkstra over the compiled
// doors graph, leaving the distances from door src in sc.
func fromDoor(g *doorgraph.Graph, sc *graph.Scratch, src int32) {
	sc.Reset(g.NumDoors(), g.NumUnits())
	sc.Improve(src, 0)
	sc.Push(src, 0)
	g.Dijkstra(sc, math.Inf(1), false)
}

// Precompute runs the full all-pairs computation: one Dijkstra per door
// over the index's own doors graph. This is deliberately the expensive
// operation the composite index avoids.
func Precompute(idx *index.Index) *Precomputed {
	start := time.Now()
	g := idx.Current().DoorGraph().Graph()
	sc := graph.AcquireScratch()
	defer sc.Release()
	n := g.NumDoors()
	d := make([][]float64, n)
	for s := range d {
		fromDoor(g, sc, int32(s))
		d[s] = make([]float64, n)
		for t := range d[s] {
			d[s][t] = sc.Dist(int32(t))
		}
	}
	return &Precomputed{NDoors: n, D: d, Elapsed: time.Since(start)}
}

// EstimatePrecomputeTime measures single-source Dijkstra cost over a sample
// of doors and extrapolates the full all-pairs wall time. Figure 15(d)
// reports pre-computation times above half an hour at 2K partitions;
// cmd/benchfig uses this estimator to chart the same series without
// stalling, and marks each total it prints as extrapolated.
func EstimatePrecomputeTime(idx *index.Index, sample int) (perSource time.Duration, total time.Duration, doors int) {
	g := idx.Current().DoorGraph().Graph()
	n := g.NumDoors()
	if n == 0 {
		return 0, 0, 0
	}
	if sample <= 0 || sample > n {
		sample = n
	}
	sc := graph.AcquireScratch()
	defer sc.Release()
	start := time.Now()
	step := n / sample
	if step == 0 {
		step = 1
	}
	ran := 0
	for s := 0; s < n && ran < sample; s += step {
		fromDoor(g, sc, int32(s))
		ran++
	}
	elapsed := time.Since(start)
	perSource = elapsed / time.Duration(ran)
	return perSource, perSource * time.Duration(n), n
}

// Oracle answers queries by exhaustive exact evaluation on a full distance
// engine: the ground truth for the test suite.
type Oracle struct {
	idx *index.Index
}

// NewOracle wraps an index.
func NewOracle(idx *index.Index) *Oracle { return &Oracle{idx: idx} }

// ObjectDist is an (object, expected distance) pair.
type ObjectDist struct {
	ID object.ID
	D  float64
}

// AllDistances computes the exact expected indoor distance from q to every
// object, ascending by distance (ties by ID). It pins one snapshot, so it
// is consistent even while the index is being mutated.
func (o *Oracle) AllDistances(q indoor.Position) ([]ObjectDist, error) {
	s := o.idx.Current()
	eng, err := distance.NewFull(s, q)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ids := s.Objects().IDs()
	out := make([]ObjectDist, 0, len(ids))
	for _, id := range ids {
		d, _ := eng.ExactDist(s.Objects().Get(id))
		out = append(out, ObjectDist{ID: id, D: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].D != out[j].D {
			return out[i].D < out[j].D
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Range returns the ids with expected distance ≤ r, ascending by id.
func (o *Oracle) Range(q indoor.Position, r float64) ([]object.ID, error) {
	all, err := o.AllDistances(q)
	if err != nil {
		return nil, err
	}
	var out []object.ID
	for _, od := range all {
		if od.D <= r {
			out = append(out, od.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// KNN returns the k nearest objects with their distances (ascending).
func (o *Oracle) KNN(q indoor.Position, k int) ([]ObjectDist, error) {
	all, err := o.AllDistances(q)
	if err != nil {
		return nil, err
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k], nil
}
