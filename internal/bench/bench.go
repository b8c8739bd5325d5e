// Package bench is the experiment harness behind the paper's evaluation
// (§V): it builds and caches workload fixtures at the paper's parameter
// points (floors ∈ {10,20,30} ↔ partitions ∈ {1K,2K,3K}; objects ∈
// {10K,20K,30K}; uncertainty radius ∈ {5,10,15} m; r ∈ {50,100,150} m;
// k ∈ {50,100,150}) and runs the query series of Figures 12–15, averaging
// over a pool of random query points. cmd/benchfig is its only front end;
// the root package's kernel benchmarks borrow the default fixture.
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
)

// Paper parameter points; defaults bolded in §V-A.
var (
	// FloorPoints give ≈1K/2K/3K partitions.
	FloorPoints = []int{10, 20, 30}
	// ObjectPoints are the |O| sweep.
	ObjectPoints = []int{10000, 20000, 30000}
	// RadiusPoints are uncertainty radii (diameters 10/20/30 on figure
	// axes).
	RadiusPoints = []float64{5, 10, 15}
	// RangePoints are iRQ radii.
	RangePoints = []float64{50, 100, 150}
	// KPoints are ikNNQ k values.
	KPoints = []int{50, 100, 150}
)

// Defaults per §V-A (bolded).
const (
	DefaultFloors  = 20
	DefaultObjects = 20000
	DefaultRadius  = 10.0
	DefaultRange   = 100.0
	DefaultK       = 100
	// DefaultQueries is the number of queries averaged per data point
	// (the paper uses 50).
	DefaultQueries = 50
	// DefaultInstances per object (§V-A).
	DefaultInstances = 100
)

// Config identifies a workload fixture.
type Config struct {
	Floors    int
	Objects   int
	Radius    float64
	Instances int
}

// Default returns the paper's default configuration.
func Default() Config {
	return Config{
		Floors: DefaultFloors, Objects: DefaultObjects,
		Radius: DefaultRadius, Instances: DefaultInstances,
	}
}

// String implements fmt.Stringer for sub-benchmark names.
func (c Config) String() string {
	return fmt.Sprintf("floors=%d_objs=%d_r=%g", c.Floors, c.Objects, c.Radius)
}

// F is a built fixture: building, objects, composite index and a query
// pool.
type F struct {
	B       *indoor.Building
	Objs    []*object.Object
	Idx     *index.Index
	Queries []indoor.Position
}

var (
	fixtureMu sync.Mutex
	fixtures  = map[Config]*F{}
)

// Fixture builds (or returns the cached) workload for a configuration.
// Generation and indexing are deterministic: seeds derive from the
// configuration.
func Fixture(cfg Config) (*F, error) {
	if cfg.Instances == 0 {
		cfg.Instances = DefaultInstances
	}
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[cfg]; ok {
		return f, nil
	}
	b, err := gen.Mall(gen.MallSpec{Floors: cfg.Floors})
	if err != nil {
		return nil, err
	}
	objs := gen.Objects(b, gen.ObjectSpec{
		N: cfg.Objects, Radius: cfg.Radius, Instances: cfg.Instances,
		Seed: int64(cfg.Objects)*31 + int64(cfg.Floors),
	})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		return nil, err
	}
	f := &F{
		B: b, Objs: objs, Idx: idx,
		Queries: gen.QueryPoints(b, DefaultQueries, 4242),
	}
	fixtures[cfg] = f
	return f, nil
}

// DropFixtures clears the cache (memory control between figure groups).
func DropFixtures() {
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	fixtures = map[Config]*F{}
}

// Processor returns a query processor over the fixture's index.
func (f *F) Processor(opts query.Options) *query.Processor {
	return query.New(f.Idx, opts)
}

// Point is one aggregated measurement: mean per-query wall time, mean phase
// times and mean pruning statistics over the query pool.
type Point struct {
	MeanTotal  time.Duration
	Filtering  time.Duration
	Subgraph   time.Duration
	Pruning    time.Duration
	Refinement time.Duration

	FilterRatio float64 // share of objects discarded by filtering
	PruneRatio  float64 // share discarded before refinement
	Units       float64 // mean units retrieved
	Results     float64 // mean result count
}

// RunIRQ executes the iRQ workload over nq queries of the fixture's pool.
func RunIRQ(f *F, r float64, nq int, opts query.Options) (Point, error) {
	return run(f, nq, opts, func(p *query.Processor, q indoor.Position) (int, *query.Stats, error) {
		res, st, err := p.RangeQuery(q, r)
		return len(res), st, err
	})
}

// RunKNN executes the ikNNQ workload.
func RunKNN(f *F, k int, nq int, opts query.Options) (Point, error) {
	return run(f, nq, opts, func(p *query.Processor, q indoor.Position) (int, *query.Stats, error) {
		res, st, err := p.KNNQuery(q, k)
		return len(res), st, err
	})
}

func run(f *F, nq int, opts query.Options, exec func(*query.Processor, indoor.Position) (int, *query.Stats, error)) (Point, error) {
	if nq <= 0 || nq > len(f.Queries) {
		nq = len(f.Queries)
	}
	p := f.Processor(opts)
	var pt Point
	for i := 0; i < nq; i++ {
		n, st, err := exec(p, f.Queries[i])
		if err != nil {
			return pt, err
		}
		pt.MeanTotal += st.Total()
		pt.Filtering += st.Filtering
		pt.Subgraph += st.Subgraph
		pt.Pruning += st.Pruning
		pt.Refinement += st.Refinement
		pt.FilterRatio += st.FilteringRatio()
		pt.PruneRatio += st.PruningRatio()
		pt.Units += float64(st.UnitsRetrieved)
		pt.Results += float64(n)
	}
	d := time.Duration(nq)
	fl := float64(nq)
	pt.MeanTotal /= d
	pt.Filtering /= d
	pt.Subgraph /= d
	pt.Pruning /= d
	pt.Refinement /= d
	pt.FilterRatio /= fl
	pt.PruneRatio /= fl
	pt.Units /= fl
	pt.Results /= fl
	return pt, nil
}
