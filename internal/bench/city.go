package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
)

// City-scale workload: the standard scale substrate for everything beyond
// the paper's single-mall parameter points. A city is dozens of connected
// multi-floor buildings (gen.City) holding 10⁵–10⁶ uncertain objects, with
// churn confined to building-local neighbourhoods the way real indoor
// movement is. The mixed panel (RunCityMixed) runs reads, writes and
// standing subscriptions against one engine concurrently-shaped the way a
// serving deployment interleaves them, and publishes the p99 latency
// budget benchfig's "city" panel and the README table report.

// CityConfig identifies a city-scale workload fixture.
type CityConfig struct {
	Rows, Cols int
	// FloorsMin/Max bound the per-building floor count (drawn
	// deterministically from the seed).
	FloorsMin, FloorsMax int
	Objects              int
	Radius               float64
	Instances            int
}

// CityDefault is the published city scale: a 4×6 grid (24 buildings,
// 3–8 floors each) with 100K objects.
func CityDefault() CityConfig {
	return CityConfig{Rows: 4, Cols: 6, FloorsMin: 3, FloorsMax: 8,
		Objects: 100_000, Radius: 8, Instances: 20}
}

// CitySmoke is the CI-sized city: a 2×3 grid with 20K objects, small
// enough for `-benchtime 1x` smoke runs while keeping the multi-building
// routing structure.
func CitySmoke() CityConfig {
	return CityConfig{Rows: 2, Cols: 3, FloorsMin: 3, FloorsMax: 6,
		Objects: 20_000, Radius: 8, Instances: 20}
}

// String implements fmt.Stringer for sub-benchmark names.
func (c CityConfig) String() string {
	return fmt.Sprintf("city=%dx%d_objs=%d", c.Rows, c.Cols, c.Objects)
}

// CityF is a built city fixture: layout, objects, composite index and a
// query pool. Fixtures are cached and shared — read-only use only; churn
// workloads build private copies (NewCityChurn).
type CityF struct {
	Cfg        CityConfig
	Layout     *gen.CityLayout
	Objs       []*object.Object
	Idx        *index.Index
	BuildStats index.BuildStats
	Queries    []indoor.Position
}

var (
	cityMu     sync.Mutex
	cityCache  = map[CityConfig]*CityF{}
	churnCache = map[cityChurnKey]*CityChurn{}
)

type cityChurnKey struct {
	cfg  CityConfig
	subs int
}

func buildCity(cfg CityConfig) (*CityF, error) {
	layout, err := gen.City(gen.CitySpec{
		Rows: cfg.Rows, Cols: cfg.Cols,
		FloorsMin: cfg.FloorsMin, FloorsMax: cfg.FloorsMax,
		Seed: int64(cfg.Objects)*17 + int64(cfg.Rows*100+cfg.Cols),
	})
	if err != nil {
		return nil, err
	}
	objs := gen.Objects(layout.B, gen.ObjectSpec{
		N: cfg.Objects, Radius: cfg.Radius, Instances: cfg.Instances,
		Seed: int64(cfg.Objects)*31 + int64(cfg.Rows),
	})
	idx, stats, err := index.Build(layout.B, objs, index.Options{})
	if err != nil {
		return nil, err
	}
	return &CityF{
		Cfg: cfg, Layout: layout, Objs: objs, Idx: idx, BuildStats: stats,
		Queries: gen.QueryPoints(layout.B, DefaultQueries, 4243),
	}, nil
}

// CityFixture builds (or returns the cached) read-only city workload.
func CityFixture(cfg CityConfig) (*CityF, error) {
	cityMu.Lock()
	defer cityMu.Unlock()
	if f, ok := cityCache[cfg]; ok {
		return f, nil
	}
	f, err := buildCity(cfg)
	if err != nil {
		return nil, err
	}
	cityCache[cfg] = f
	return f, nil
}

// DropCityFixtures clears both city caches.
func DropCityFixtures() {
	cityMu.Lock()
	defer cityMu.Unlock()
	cityCache = map[CityConfig]*CityF{}
	churnCache = map[cityChurnKey]*CityChurn{}
}

// CityChurn is a city-scale subscription-reconciliation workload: a
// private index (churn mutates it, so never the shared fixture), nsubs
// standing queries spread across buildings, and a precomputed stream of
// coalesced building-local move batches. Moves are stationary jitter —
// each batch re-reports objects near their original position — so the
// workload is statistically identical from any starting batch and the
// engine can be reused across sub-benchmarks (a shard-width sweep measures
// ratios on the same steady state).
type CityChurn struct {
	Engine  *query.Subscriptions
	Idx     *index.Index
	Layout  *gen.CityLayout
	Batches [][]index.ObjectUpdate
}

// CityChurnBatchSize is the number of moves per coalesced batch.
const CityChurnBatchSize = 32

// NewCityChurn builds (or returns the cached) churn workload with nsubs
// subscriptions (7 of 8 range, 1 of 8 kNN, mirroring a monitoring-heavy
// mix). The shard width is whatever the caller last pinned with
// Engine.SetShards.
func NewCityChurn(cfg CityConfig, nsubs int) (*CityChurn, error) {
	cityMu.Lock()
	defer cityMu.Unlock()
	key := cityChurnKey{cfg: cfg, subs: nsubs}
	if w, ok := churnCache[key]; ok {
		return w, nil
	}
	f, err := buildCity(cfg)
	if err != nil {
		return nil, err
	}
	e := query.NewSubscriptions(f.Idx)
	for i, q := range gen.QueryPoints(f.Layout.B, nsubs, 7102) {
		if i%8 == 7 {
			if _, _, err := e.SubscribeKNN(q, 10); err != nil {
				return nil, err
			}
		} else {
			if _, _, err := e.SubscribeRange(q, 30); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(7104))
	snap := f.Idx.Current()
	const batches = 64
	ups := make([][]index.ObjectUpdate, batches)
	perBatch := CityChurnBatchSize
	if perBatch > len(f.Objs) {
		perBatch = len(f.Objs)
	}
	for i := range ups {
		batch := make([]index.ObjectUpdate, 0, perBatch)
		seen := make(map[object.ID]bool, perBatch)
		for len(batch) < perBatch {
			o := f.Objs[rng.Intn(len(f.Objs))]
			if seen[o.ID] {
				continue
			}
			seen[o.ID] = true
			c := o.Center
			next := indoor.Pos(c.Pt.X+rng.Float64()*30-15, c.Pt.Y+rng.Float64()*30-15, c.Floor)
			if snap.LocatePartition(next) < 0 {
				next = c
			}
			batch = append(batch, index.ObjectUpdate{
				Op: index.UpdateMove, Object: object.SampleGaussian(rng, o.ID, next, cfg.Radius, 10),
			})
		}
		ups[i] = batch
	}
	w := &CityChurn{Engine: e, Idx: f.Idx, Layout: f.Layout, Batches: ups}
	churnCache[key] = w
	return w, nil
}

// CityMixedReport is one mixed-panel measurement: the p99 latency budget
// of a city serving reads, writes and subscriptions at once.
type CityMixedReport struct {
	Cfg        CityConfig
	Partitions int
	Subs       int
	Rounds     int

	// Query latencies over the panel's interleaved reads.
	RangeP50, RangeP99 time.Duration
	KNNP50, KNNP99     time.Duration
	// Reconciliation latency window from the engine (per update batch).
	ReconcileMean, ReconcileP50, ReconcileP99 time.Duration
	// MovesPerSec is write throughput: objects re-reported per second of
	// update-path wall time (includes reconciliation).
	MovesPerSec float64
}

// RunCityMixed drives the mixed read/write/subscription panel: rounds
// iterations of one coalesced move batch (write + reconcile) followed by
// one range and one kNN read, all against the churn workload's engine and
// index. Returns the latency budget.
func RunCityMixed(cfg CityConfig, nsubs, rounds int, opts query.Options) (CityMixedReport, error) {
	w, err := NewCityChurn(cfg, nsubs)
	if err != nil {
		return CityMixedReport{}, err
	}
	p := query.New(w.Idx, opts)
	qs := gen.QueryPoints(w.Idx.Building(), 64, 7106)
	rep := CityMixedReport{Cfg: cfg, Subs: nsubs, Rounds: rounds,
		Partitions: len(w.Idx.Building().Partitions())}

	rangeLat := make([]time.Duration, 0, rounds)
	knnLat := make([]time.Duration, 0, rounds)
	var writeTime time.Duration
	var moves int
	for i := 0; i < rounds; i++ {
		batch := w.Batches[i%len(w.Batches)]
		t0 := time.Now()
		if _, err := w.Engine.ApplyObjectUpdates(batch); err != nil {
			return rep, err
		}
		writeTime += time.Since(t0)
		moves += len(batch)

		q := qs[i%len(qs)]
		t0 = time.Now()
		if _, _, err := p.RangeQuery(q, 50); err != nil {
			return rep, err
		}
		rangeLat = append(rangeLat, time.Since(t0))
		t0 = time.Now()
		if _, _, err := p.KNNQuery(qs[(i+7)%len(qs)], 10); err != nil {
			return rep, err
		}
		knnLat = append(knnLat, time.Since(t0))
	}
	st := w.Engine.Stats()
	rep.ReconcileMean = st.ReconcileBatchMean
	rep.ReconcileP50 = st.ReconcileBatchP50
	rep.ReconcileP99 = st.ReconcileBatchP99
	rep.RangeP50, rep.RangeP99 = quantiles(rangeLat)
	rep.KNNP50, rep.KNNP99 = quantiles(knnLat)
	if writeTime > 0 {
		rep.MovesPerSec = float64(moves) / writeTime.Seconds()
	}
	return rep, nil
}

// quantiles returns the nearest-rank p50 and p99 of a latency sample.
func quantiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[(len(lat)-1)*50/100], lat[(len(lat)-1)*99/100]
}
