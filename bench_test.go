package indoorq

// One benchmark per panel of the paper's evaluation figures (§V, Figures
// 12–15). Every benchmark resolves its workload through the shared fixture
// cache in internal/bench, so `go test -bench=.` regenerates the paper's
// series; cmd/benchfig prints the same data as labelled tables.
//
// Absolute times differ from the paper's 2013 C++/Windows testbed; the
// shapes (growth with |O|, r, k and uncertainty; decrease with partition
// count; pruning and skeleton effects; update-vs-precomputation gap) are
// the reproduction target. EXPERIMENTS.md records measured-vs-paper.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/store"
)

func mustFixture(b *testing.B, cfg bench.Config) *bench.F {
	b.Helper()
	f, err := bench.Fixture(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// runIRQ rotates through the fixture's query pool, one query per iteration.
func runIRQ(b *testing.B, f *bench.F, r float64, opts query.Options) {
	p := f.Processor(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.Queries[i%len(f.Queries)]
		if _, _, err := p.RangeQuery(q, r); err != nil {
			b.Fatal(err)
		}
	}
}

func runKNN(b *testing.B, f *bench.F, k int, opts query.Options) {
	p := f.Processor(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.Queries[i%len(f.Queries)]
		if _, _, err := p.KNNQuery(q, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQuery is the single-query hot-path benchmark on the
// default mall workload (§V-A defaults): one iRQ at the default radius per
// iteration, rotating the query pool. Allocation counts are part of the
// regression budget — the precompiled door-graph tier keeps the steady
// state near allocation-free.
func BenchmarkRangeQuery(b *testing.B) {
	runIRQ(b, mustFixture(b, bench.Default()), bench.DefaultRange, query.Options{})
}

// BenchmarkKNNQuery is the ikNNQ counterpart of BenchmarkRangeQuery.
func BenchmarkKNNQuery(b *testing.B) {
	runKNN(b, mustFixture(b, bench.Default()), bench.DefaultK, query.Options{})
}

// BenchmarkIRQVsObjects is Fig 12(a): iRQ time vs |O| ∈ {10K, 20K, 30K} for
// r ∈ {50, 100, 150}.
func BenchmarkIRQVsObjects(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		for _, r := range bench.RangePoints {
			b.Run(fmt.Sprintf("objs=%d/r=%g", n, r), func(b *testing.B) {
				runIRQ(b, mustFixture(b, cfg), r, query.Options{})
			})
		}
	}
}

// BenchmarkIRQBreakdown is Fig 12(b): per-phase time of iRQ at defaults,
// reported as custom metrics (ns per phase per query).
func BenchmarkIRQBreakdown(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		b.Run(fmt.Sprintf("objs=%d", n), func(b *testing.B) {
			f := mustFixture(b, cfg)
			b.ResetTimer()
			var pt bench.Point
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = bench.RunIRQ(f, bench.DefaultRange, 0, query.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.Filtering.Nanoseconds()), "filter-ns/query")
			b.ReportMetric(float64(pt.Subgraph.Nanoseconds()), "subgraph-ns/query")
			b.ReportMetric(float64(pt.Pruning.Nanoseconds()), "prune-ns/query")
			b.ReportMetric(float64(pt.Refinement.Nanoseconds()), "refine-ns/query")
		})
	}
}

// BenchmarkIRQVsUncertainty is Fig 12(c): iRQ time vs uncertainty region
// (radius 5/10/15, figure axis shows diameters 10/20/30).
func BenchmarkIRQVsUncertainty(b *testing.B) {
	for _, rad := range bench.RadiusPoints {
		cfg := bench.Default()
		cfg.Radius = rad
		for _, r := range bench.RangePoints {
			b.Run(fmt.Sprintf("diam=%g/r=%g", 2*rad, r), func(b *testing.B) {
				runIRQ(b, mustFixture(b, cfg), r, query.Options{})
			})
		}
	}
}

// BenchmarkIRQVsPartitions is Fig 12(d): iRQ time vs partition count
// (floors 10/20/30 ≈ 1K/2K/3K partitions) at 20K objects.
func BenchmarkIRQVsPartitions(b *testing.B) {
	for _, fl := range bench.FloorPoints {
		cfg := bench.Default()
		cfg.Floors = fl
		for _, r := range bench.RangePoints {
			b.Run(fmt.Sprintf("floors=%d/r=%g", fl, r), func(b *testing.B) {
				runIRQ(b, mustFixture(b, cfg), r, query.Options{})
			})
		}
	}
}

// BenchmarkIKNNVsObjects is Fig 13(a): ikNNQ time vs |O| for k ∈ {50, 100,
// 150}.
func BenchmarkIKNNVsObjects(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		for _, k := range bench.KPoints {
			b.Run(fmt.Sprintf("objs=%d/k=%d", n, k), func(b *testing.B) {
				runKNN(b, mustFixture(b, cfg), k, query.Options{})
			})
		}
	}
}

// BenchmarkIKNNBreakdown is Fig 13(b): per-phase ikNNQ time.
func BenchmarkIKNNBreakdown(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		b.Run(fmt.Sprintf("objs=%d", n), func(b *testing.B) {
			f := mustFixture(b, cfg)
			b.ResetTimer()
			var pt bench.Point
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = bench.RunKNN(f, bench.DefaultK, 0, query.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.Filtering.Nanoseconds()), "filter-ns/query")
			b.ReportMetric(float64(pt.Subgraph.Nanoseconds()), "subgraph-ns/query")
			b.ReportMetric(float64(pt.Pruning.Nanoseconds()), "prune-ns/query")
			b.ReportMetric(float64(pt.Refinement.Nanoseconds()), "refine-ns/query")
		})
	}
}

// BenchmarkIKNNVsUncertainty is Fig 13(c).
func BenchmarkIKNNVsUncertainty(b *testing.B) {
	for _, rad := range bench.RadiusPoints {
		cfg := bench.Default()
		cfg.Radius = rad
		for _, k := range bench.KPoints {
			b.Run(fmt.Sprintf("diam=%g/k=%d", 2*rad, k), func(b *testing.B) {
				runKNN(b, mustFixture(b, cfg), k, query.Options{})
			})
		}
	}
}

// BenchmarkIKNNVsPartitions is Fig 13(d).
func BenchmarkIKNNVsPartitions(b *testing.B) {
	for _, fl := range bench.FloorPoints {
		cfg := bench.Default()
		cfg.Floors = fl
		for _, k := range bench.KPoints {
			b.Run(fmt.Sprintf("floors=%d/k=%d", fl, k), func(b *testing.B) {
				runKNN(b, mustFixture(b, cfg), k, query.Options{})
			})
		}
	}
}

// BenchmarkIRQPruningRatio is Fig 14(a): filtering and pruning ratios of
// iRQ, reported as metrics (percent).
func BenchmarkIRQPruningRatio(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		b.Run(fmt.Sprintf("objs=%d", n), func(b *testing.B) {
			f := mustFixture(b, cfg)
			b.ResetTimer()
			var pt bench.Point
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = bench.RunIRQ(f, bench.DefaultRange, 0, query.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*pt.FilterRatio, "filter-%")
			b.ReportMetric(100*pt.PruneRatio, "prune-%")
		})
	}
}

// BenchmarkIRQNoPruning is Fig 14(b): iRQ with vs without the pruning
// phase.
func BenchmarkIRQNoPruning(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		b.Run(fmt.Sprintf("objs=%d/withPruning", n), func(b *testing.B) {
			runIRQ(b, mustFixture(b, cfg), bench.DefaultRange, query.Options{})
		})
		b.Run(fmt.Sprintf("objs=%d/withoutPruning", n), func(b *testing.B) {
			runIRQ(b, mustFixture(b, cfg), bench.DefaultRange, query.Options{DisablePruning: true})
		})
	}
}

// BenchmarkIKNNPruningRatio is Fig 14(c).
func BenchmarkIKNNPruningRatio(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		b.Run(fmt.Sprintf("objs=%d", n), func(b *testing.B) {
			f := mustFixture(b, cfg)
			b.ResetTimer()
			var pt bench.Point
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = bench.RunKNN(f, bench.DefaultK, 0, query.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*pt.FilterRatio, "filter-%")
			b.ReportMetric(100*pt.PruneRatio, "prune-%")
		})
	}
}

// BenchmarkIKNNNoPruning is Fig 14(d): the paper reports ≥4× slowdown
// without the pruning phase.
func BenchmarkIKNNNoPruning(b *testing.B) {
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		b.Run(fmt.Sprintf("objs=%d/withPruning", n), func(b *testing.B) {
			runKNN(b, mustFixture(b, cfg), bench.DefaultK, query.Options{})
		})
		b.Run(fmt.Sprintf("objs=%d/withoutPruning", n), func(b *testing.B) {
			runKNN(b, mustFixture(b, cfg), bench.DefaultK, query.Options{DisablePruning: true})
		})
	}
}

// BenchmarkSkeletonEffect is Fig 15(a): index units retrieved by the
// filtering phase with and without the skeleton tier, vs query range.
func BenchmarkSkeletonEffect(b *testing.B) {
	cfg := bench.Default()
	for _, r := range bench.RangePoints {
		for name, opts := range map[string]query.Options{
			"withSkeleton":    {},
			"withoutSkeleton": {DisableSkeleton: true},
		} {
			b.Run(fmt.Sprintf("r=%g/%s", r, name), func(b *testing.B) {
				f := mustFixture(b, cfg)
				b.ResetTimer()
				var pt bench.Point
				for i := 0; i < b.N; i++ {
					var err error
					pt, err = bench.RunIRQ(f, r, 0, opts)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pt.Units, "units/query")
			})
		}
	}
}

// BenchmarkIndexConstruction is Fig 15(b): composite index construction
// time per layer vs partition count.
func BenchmarkIndexConstruction(b *testing.B) {
	for _, fl := range bench.FloorPoints {
		b.Run(fmt.Sprintf("floors=%d", fl), func(b *testing.B) {
			building, err := gen.Mall(gen.MallSpec{Floors: fl})
			if err != nil {
				b.Fatal(err)
			}
			objs := gen.Objects(building, gen.ObjectSpec{
				N: bench.DefaultObjects, Radius: bench.DefaultRadius,
				Instances: bench.DefaultInstances, Seed: 1,
			})
			b.ResetTimer()
			var stats index.BuildStats
			for i := 0; i < b.N; i++ {
				_, stats, err = index.Build(building, objs, index.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.TreeTier.Nanoseconds()), "tree-ns")
			b.ReportMetric(float64(stats.TopoLayer.Nanoseconds()), "topo-ns")
			b.ReportMetric(float64(stats.ObjectLayer.Nanoseconds()), "object-ns")
			b.ReportMetric(float64(stats.SkeletonTier.Nanoseconds()), "skeleton-ns")
		})
	}
}

// BenchmarkIndexUpdates is Fig 15(c): dynamic operation cost on the
// composite index — object insert/delete and partition insert/delete.
func BenchmarkIndexUpdates(b *testing.B) {
	cfg := bench.Default()
	b.Run("insertObj", func(b *testing.B) {
		f := mustFixture(b, cfg)
		qs := gen.QueryPoints(f.B, 256, 99)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o := object.PointObject(object.ID(1_000_000+i), qs[i%len(qs)])
			if err := f.Idx.InsertObject(o); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			_ = f.Idx.DeleteObject(object.ID(1_000_000 + i))
		}
	})
	b.Run("deleteObj", func(b *testing.B) {
		f := mustFixture(b, cfg)
		qs := gen.QueryPoints(f.B, 256, 99)
		for i := 0; i < b.N; i++ {
			o := object.PointObject(object.ID(2_000_000+i), qs[i%len(qs)])
			if err := f.Idx.InsertObject(o); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Idx.DeleteObject(object.ID(2_000_000 + i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	// roomCycle removes one room and returns the mutations that re-add a
	// room in its place and remove it again.
	roomCycle := func(b *testing.B) (add, remove func()) {
		f := mustFixture(b, cfg)
		var room *Partition
		for _, p := range f.B.Partitions() {
			if p.Kind == 0 {
				room = p
				break
			}
		}
		apply := func(m Mutation) Mutation {
			got, err := f.Idx.Apply(m)
			if err != nil {
				b.Fatal(err)
			}
			return got
		}
		rm := Mutation{Kind: MutRemovePartition, PartID: room.ID}
		readd := Mutation{Kind: MutAddPartition, PartID: -1, Part: &Partition{Shape: room.Shape}}
		apply(rm)
		return func() { rm.PartID = apply(readd).PartID }, func() { apply(rm) }
	}
	b.Run("insertPartition", func(b *testing.B) {
		add, remove := roomCycle(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add()
			b.StopTimer()
			remove()
			b.StartTimer()
		}
	})
	b.Run("deletePartition", func(b *testing.B) {
		add, remove := roomCycle(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			add()
			b.StartTimer()
			remove()
		}
	})
}

// BenchmarkBatchThroughput is the concurrent-serving experiment (not in
// the paper): aggregate batch throughput of the worker pool vs worker
// count, on the Floors=2, N=1000 mall workload. On multi-core hardware the
// queries/sec metric scales with workers (≥2× at 8 workers vs 1); on one
// CPU the series is flat — the interesting number is the metric, not the
// ns/op. A batch of 200 queries cycles the fixture's query pool.
func BenchmarkBatchThroughput(b *testing.B) {
	cfg := bench.ServeWorkload()
	const batch = 200
	for _, workers := range bench.ConcurrencyWorkers {
		b.Run(fmt.Sprintf("iRQ/workers=%d", workers), func(b *testing.B) {
			f := mustFixture(b, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			var m serve.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = bench.RunBatchIRQ(f, bench.DefaultRange, batch, workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Throughput, "queries/sec")
			b.ReportMetric(float64(m.P50.Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(m.P99.Nanoseconds()), "p99-ns")
		})
		b.Run(fmt.Sprintf("ikNN/workers=%d", workers), func(b *testing.B) {
			f := mustFixture(b, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			var m serve.Metrics
			for i := 0; i < b.N; i++ {
				var err error
				m, err = bench.RunBatchKNN(f, 10, batch, workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Throughput, "queries/sec")
			b.ReportMetric(float64(m.P50.Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(m.P99.Nanoseconds()), "p99-ns")
		})
	}
}

// BenchmarkBatchUnderWrites measures reader throughput degradation while a
// writer goroutine continuously applies MoveObject updates — the
// read/write contention profile of the serving layer.
func BenchmarkBatchUnderWrites(b *testing.B) {
	cfg := bench.ServeWorkload()
	f := mustFixture(b, cfg)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			o := f.Objs[i%len(f.Objs)]
			_ = f.Idx.MoveObject(o)
			i++
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	var m serve.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		m, err = bench.RunBatchIRQ(f, bench.DefaultRange, 100, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Throughput, "queries/sec")
	b.ReportMetric(float64(m.P99.Nanoseconds()), "p99-ns")
}

// BenchmarkQueriesUnderChurn measures single-query latency percentiles
// while a writer re-reports object positions at a FIXED offered churn
// rate — the read/write-interference profile of a dynamic indoor
// deployment (the paper's continuously moving objects, e.g. a positioning
// system delivering a bounded stream of location reports). Pacing the
// writer is what makes the comparison across locking disciplines honest:
// an unthrottled writer loop measures how fast the writer can spin (a
// global RWMutex throttles it implicitly; snapshot isolation does not),
// not what readers experience at a given update load. The writer applies
// each tick's moves through ApplyObjectUpdates, so one tick is one
// snapshot swap; the pre-refactor RWMutex baseline ran the identical
// benchmark with the tick applied as sequential MoveObject calls (the only
// form that code offered). The interesting numbers are the p50-ns/p99-ns
// metrics; README "Performance" records both sides.
//
// The wal=on variants attach the durable store (group-commit WAL, default
// policy) to the same fixture: every tick is encoded and logged inside
// the writer mutex before its snapshot publishes. README "Durability"
// records the overhead; the acceptance bar (sustained ≥85% of wal=off at
// the paced rate) is enforced by TestWALChurnOverheadSmoke.
func BenchmarkQueriesUnderChurn(b *testing.B) {
	const tickEvery = 10 * time.Millisecond
	for _, perTick := range []int{20, 100} { // 2K and 10K moves/sec offered
		for _, wal := range []bool{false, true} {
			rate := perTick * int(time.Second/tickEvery)
			b.Run(fmt.Sprintf("moves_per_sec=%d/wal=%v", rate, wal), func(b *testing.B) {
				f := mustFixture(b, bench.Default())
				if wal {
					// The fixture index is cached across benchmarks:
					// detach the store's hook before returning it.
					st, err := store.Create(b.TempDir(), f.Idx, nil, store.Options{})
					if err != nil {
						b.Fatal(err)
					}
					defer func() {
						f.Idx.SetCommitHook(nil)
						st.Close()
					}()
				}
				p := f.Processor(query.Options{})
				stop := make(chan struct{})
				var wg sync.WaitGroup
				var applied atomic.Int64
				wg.Add(1)
				go func() {
					defer wg.Done()
					next := time.Now()
					i := 0
					ups := make([]index.ObjectUpdate, perTick)
					for {
						select {
						case <-stop:
							return
						default:
						}
						next = next.Add(tickEvery)
						if d := time.Until(next); d > 0 {
							time.Sleep(d)
						}
						for j := range ups {
							ups[j] = index.ObjectUpdate{Op: index.UpdateMove, Object: f.Objs[(i+j)%len(f.Objs)]}
						}
						i += perTick
						if err := f.Idx.ApplyObjectUpdates(ups); err != nil {
							b.Error(err)
							return
						}
						applied.Add(int64(perTick))
					}
				}()
				lats := make([]time.Duration, 0, b.N)
				start := time.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := f.Queries[i%len(f.Queries)]
					t0 := time.Now()
					if _, _, err := p.RangeQuery(q, bench.DefaultRange); err != nil {
						b.Fatal(err)
					}
					lats = append(lats, time.Since(t0))
				}
				b.StopTimer()
				elapsed := time.Since(start)
				close(stop)
				wg.Wait()
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				if len(lats) > 0 {
					b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns")
					b.ReportMetric(float64(lats[(len(lats)*99)/100].Nanoseconds()), "p99-ns")
				}
				if s := elapsed.Seconds(); s > 0 {
					b.ReportMetric(float64(applied.Load())/s, "moves/sec")
				}
			})
		}
	}
}

// BenchmarkPrecomputation is Fig 15(d): the door-to-door pre-computation
// cost of the baseline alternative, vs partition count. The per-op time is
// the measured per-source Dijkstra; the extrapolated all-pairs total is
// reported as a metric in seconds (the paper measures >0.5 h at 2K
// partitions on its testbed).
func BenchmarkPrecomputation(b *testing.B) {
	for _, fl := range bench.FloorPoints {
		cfg := bench.Default()
		cfg.Floors = fl
		b.Run(fmt.Sprintf("floors=%d", fl), func(b *testing.B) {
			f := mustFixture(b, cfg)
			b.ResetTimer()
			var total float64
			for i := 0; i < b.N; i++ {
				_, t, _ := baseline.EstimatePrecomputeTime(f.Idx, 16)
				total = t.Seconds()
			}
			b.ReportMetric(total, "allpairs-sec")
		})
	}
}

// BenchmarkReconcileSharded sweeps reconciliation shard width against
// subscription count on the city-scale churn workload: one iteration is
// one coalesced 32-move batch (snapshot swap + sharded reconciliation).
// The workload is stationary jitter, so the engine is shared across the
// sweep and each width measures the same steady state; the merged event
// stream is byte-identical at every width (the equivalence tests prove
// it), making the widths directly comparable. On a single-core host the
// width-1 and width-n paths should be near-identical — the sweep is the
// scaling instrument for multi-core hosts.
func BenchmarkReconcileSharded(b *testing.B) {
	for _, subs := range []int{1000, 10000} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("subs=%d/shards=%d", subs, shards), func(b *testing.B) {
				w, err := bench.NewCityChurn(bench.CitySmoke(), subs)
				if err != nil {
					b.Fatal(err)
				}
				w.Engine.SetShards(shards)
				before := w.Engine.Stats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Engine.ApplyObjectUpdates(w.Batches[i%len(w.Batches)]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := w.Engine.Stats()
				n := float64(b.N)
				b.ReportMetric(float64(st.RoutedPairs-before.RoutedPairs)/n, "routed/op")
				b.ReportMetric(float64(st.AffectedSubs-before.AffectedSubs)/n, "affected-subs/op")
			})
		}
	}
}

// BenchmarkCityMixed is the city-scale mixed panel: one iteration is one
// round of the read/write/subscription mix (one move batch through the
// engine, one iRQ, one ikNN). The benchfig "city" panel publishes the
// corresponding p99 latency budget at the full CityDefault scale.
func BenchmarkCityMixed(b *testing.B) {
	w, err := bench.NewCityChurn(bench.CitySmoke(), 1000)
	if err != nil {
		b.Fatal(err)
	}
	p := query.New(w.Idx, query.Options{})
	queries := gen.QueryPoints(w.Idx.Building(), 64, 7106)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Engine.ApplyObjectUpdates(w.Batches[i%len(w.Batches)]); err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.RangeQuery(queries[i%len(queries)], 50); err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.KNNQuery(queries[(i+7)%len(queries)], 10); err != nil {
			b.Fatal(err)
		}
	}
}
