package indoorq

// Kernel benchmarks: single-query hot paths, batch serving, queries under
// paced churn, time-travel reconstruction, reconciliation, scoped
// topology commits and structural (split and merge) commits. The
// paper's Figure 12–15 series live in cmd/benchfig (`benchfig -fig all`),
// and end-to-end numbers through the daemons live in benchmark/; README
// "Performance" discusses both.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
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

// BenchmarkRangeQuery is the single-query hot-path benchmark on the
// default mall workload (§V-A defaults): one iRQ at the default radius per
// iteration, rotating the query pool. Allocation counts are part of the
// regression budget — the precompiled door-graph tier keeps the steady
// state near allocation-free. Compare allocs/op of this benchmark and
// BenchmarkKNNQuery only at -benchtime 200x -count 3: at 10x the same
// tree read 188, 184, 197 and 193 ikNN allocs/op over four runs on a
// 2-vCPU host (iRQ 45, 43, 43, 43), while 200x read a steady 182 and 45.
func BenchmarkRangeQuery(b *testing.B) {
	f := mustFixture(b, bench.Default())
	p := f.Processor(query.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.RangeQuery(f.Queries[i%len(f.Queries)], bench.DefaultRange); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNQuery is the ikNNQ counterpart of BenchmarkRangeQuery.
func BenchmarkKNNQuery(b *testing.B) {
	f := mustFixture(b, bench.Default())
	p := f.Processor(query.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.KNNQuery(f.Queries[i%len(f.Queries)], bench.DefaultK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchThroughput is the concurrent-serving experiment (not in
// the paper): aggregate batch throughput of the facade's batch queries vs
// fan-out width, on the Floors=2, N=1000 mall, where index contention
// rather than raw query cost dominates. A batch fans out GOMAXPROCS wide,
// so `-cpu 1,2,4,8` is the width sweep. On multi-core hardware the
// queries/sec metric scales with the width (≥2× at 8 vs 1); on one CPU
// the series is flat — the interesting number is the metric, not the
// ns/op. A batch of 200 queries cycles the fixture's query pool; p50-ns
// and p99-ns are percentiles of the last batch's per-query latencies.
func BenchmarkBatchThroughput(b *testing.B) {
	f := mustFixture(b, bench.Config{Floors: 2, Objects: 1000, Radius: 8, Instances: 20})
	db := newDB(f.Idx)
	const batch = 200
	ranges := make([]RangeRequest, batch)
	knns := make([]KNNRequest, batch)
	for i := range ranges {
		q := f.Queries[i%len(f.Queries)]
		ranges[i] = RangeRequest{Q: q, R: bench.DefaultRange}
		knns[i] = KNNRequest{Q: q, K: 10}
	}
	for _, kind := range []struct {
		name string
		run  func() ([]BatchResponse, BatchMetrics)
	}{
		{"iRQ", func() ([]BatchResponse, BatchMetrics) { return db.BatchRangeQuery(ranges, ServeConfig{}) }},
		{"ikNN", func() ([]BatchResponse, BatchMetrics) { return db.BatchKNNQuery(knns, ServeConfig{}) }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			b.ReportAllocs()
			var resps []BatchResponse
			var m BatchMetrics
			for i := 0; i < b.N; i++ {
				resps, m = kind.run()
				if m.Errors > 0 {
					b.Fatalf("%d of %d queries failed", m.Errors, m.Queries)
				}
			}
			lats := make([]time.Duration, len(resps))
			for i, r := range resps {
				lats[i] = r.Latency
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			b.ReportMetric(m.Throughput, "queries/sec")
			b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(lats[len(lats)*99/100].Nanoseconds()), "p99-ns")
		})
	}
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

// BenchmarkAsOf measures time-travel reconstruction (history.Provider)
// against replay distance d, the records folded forward from the
// checkpoint, on a fresh provider per iteration:
//
//   - cold: AsOf(d) with nothing cached, a from-checkpoint rebuild;
//   - advance: AsOf(d+1) after AsOf(d), a one-record nearest-ancestor
//     replay on the warm state (none at the horizon d = 4096);
//   - revisit: AsOf(d) again after AsOf(d) and, below the horizon,
//     AsOf(d+1), which must be an exact-LSN view-cache hit. The benchmark
//     fails if the provider rebuilds instead, so a replay tool stepping
//     back keeps its cheap path.
//
// The gap between cold and the other two is what the provider's caches buy
// a tool walking through history.
func BenchmarkAsOf(b *testing.B) {
	const moves = 4096
	st := historyStore(b, moves)
	asOf := func(b *testing.B, p *history.Provider, lsn uint64) {
		if _, err := p.AsOf(lsn); err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range []uint64{1, 16, 256, 1024, moves} {
		b.Run(fmt.Sprintf("d=%d/cold", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := history.NewProvider(history.StoreSource{St: st})
				b.StartTimer()
				asOf(b, p, d)
			}
		})
		if d < moves {
			b.Run(fmt.Sprintf("d=%d/advance", d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p := history.NewProvider(history.StoreSource{St: st})
					asOf(b, p, d)
					b.StartTimer()
					asOf(b, p, d+1)
				}
			})
		}
		b.Run(fmt.Sprintf("d=%d/revisit", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := history.NewProvider(history.StoreSource{St: st})
				asOf(b, p, d)
				if d < moves {
					asOf(b, p, d+1)
				}
				before := p.Stats()
				b.StartTimer()
				asOf(b, p, d)
				b.StopTimer()
				after := p.Stats()
				if after.ViewHits != before.ViewHits+1 || after.Materializations != before.Materializations {
					b.Fatalf("revisit of lsn %d: view hits %d→%d, materializations %d→%d; want one hit, no rebuild",
						d, before.ViewHits, after.ViewHits, before.Materializations, after.Materializations)
				}
				b.StartTimer()
			}
		})
	}
}

// historyStore returns the store of a durable 2,000-object mall DB that
// has logged the given number of single-object moves after its checkpoint;
// compaction is off, so every record stays replayable from that checkpoint.
func historyStore(b *testing.B, moves int) *store.Store {
	bld, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		b.Fatal(err)
	}
	const n = 2000
	db, _, err := Open(bld, gen.Objects(bld, gen.ObjectSpec{N: n, Radius: 5, Instances: 4, Seed: 7}), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Persist(b.TempDir(), DurabilityOptions{CompactBytes: -1}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for i := 0; i < moves; i++ {
		o := db.Object(ObjectID(i % n))
		p := o.Center
		if i%2 == 0 {
			p.Pt.X += 0.2
		} else {
			p.Pt.X -= 0.2
		}
		if err := db.MoveObject(object.PointObject(o.ID, p)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		b.Fatal(err)
	}
	return db.Store()
}

// BenchmarkReconcile measures reconciliation against subscription count on
// the city-scale churn workload: one iteration is one coalesced 32-move
// batch (snapshot swap + reconciliation fanned out GOMAXPROCS wide). The
// workload is stationary jitter, so each engine measures a steady state.
// The event stream is byte-identical at every width (the equivalence tests
// prove it), so `-cpu 1,2,4,8` is the width sweep; on a single-core host
// the widths should be near-identical.
func BenchmarkReconcile(b *testing.B) {
	for _, subs := range []int{1000, 10000} {
		e, _, batches := cityChurn(b, subs)
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			before := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ApplyObjectUpdates(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := e.Stats()
			n := float64(b.N)
			b.ReportMetric(float64(st.RoutedPairs-before.RoutedPairs)/n, "routed/op")
			b.ReportMetric(float64(st.AffectedSubs-before.AffectedSubs)/n, "affected-subs/op")
		})
	}
}

// BenchmarkTopologyCommit is the topology write path on the city churn
// workload: one iteration closes a door and reopens it, both through the
// subscription engine under 1,000 standing queries — index commit,
// topology diff, admission, and the pass that refreshes the
// admitted subscriptions and routes the changed units' objects to the
// carried ones. admitted/op and carried/op count subscriptions per
// iteration (two commits); partial/op counts the admitted ones that
// re-resolved only their full rung's objects, and refreshes/op the
// wholesale refreshes.
func BenchmarkTopologyCommit(b *testing.B) {
	e, idx, _ := cityChurn(b, 1000)
	doors := idx.Building().Doors()
	rng := rand.New(rand.NewSource(7106))
	before := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := doors[rng.Intn(len(doors))].ID
		for _, closed := range []bool{true, false} {
			if _, _, err := e.Topology(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: d, Closed: closed}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	st := e.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(st.TopoAdmitted-before.TopoAdmitted)/n, "admitted/op")
	b.ReportMetric(float64(st.TopoCarried-before.TopoCarried)/n, "carried/op")
	b.ReportMetric(float64(st.TopoPartial-before.TopoPartial)/n, "partial/op")
	b.ReportMetric(float64(st.Refreshes-before.Refreshes)/n, "refreshes/op")
}

// BenchmarkStructuralCommit is the structural counterpart of
// BenchmarkTopologyCommit on the same workload: one iteration splits a
// convex room in two and merges the halves back, both through the
// subscription engine under 1,000 standing queries. On top of a toggle's
// work, each commit re-packs the tree tier and re-locates the objects the
// room held. admitted/op, partial/op and refreshes/op count subscriptions
// per iteration (two commits), as in BenchmarkTopologyCommit.
func BenchmarkStructuralCommit(b *testing.B) {
	e, idx, _ := cityChurn(b, 1000)
	var rooms []indoor.PartitionID
	for _, p := range idx.Building().Partitions() {
		if p.Kind == indoor.Room && p.Shape.IsConvex() {
			rooms = append(rooms, p.ID)
		}
	}
	rng := rand.New(rand.NewSource(7108))
	before := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(len(rooms))
		r := idx.Building().Partition(rooms[k]).Bounds()
		alongX, at := r.Width() >= r.Height(), (r.MinY+r.MaxY)/2
		if alongX {
			at = (r.MinX + r.MaxX) / 2
		}
		split, _, err := e.Topology(index.Mutation{Kind: index.MutSplit, PartID: rooms[k], AlongX: alongX, At: at})
		if err != nil {
			b.Fatal(err)
		}
		merged, _, err := e.Topology(index.Mutation{Kind: index.MutMerge, PartID: split.ResultA, PartID2: split.ResultB})
		if err != nil {
			b.Fatal(err)
		}
		rooms[k] = merged.ResultA
	}
	b.StopTimer()
	st := e.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(st.TopoAdmitted-before.TopoAdmitted)/n, "admitted/op")
	b.ReportMetric(float64(st.TopoPartial-before.TopoPartial)/n, "partial/op")
	b.ReportMetric(float64(st.Refreshes-before.Refreshes)/n, "refreshes/op")
}

// cityChurn builds the reconciliation workload: a 2×3 city of 3–6-floor
// buildings holding 20K objects, a private index under nsubs standing
// queries (7 of 8 range r=30, 1 of 8 kNN k=10), and 64 coalesced batches
// of 32 distinct moves. Each move re-reports an object within 15 m of its
// original position, so any batch can be replayed at any time.
func cityChurn(b *testing.B, nsubs int) (*query.Subscriptions, *index.Index, [][]index.ObjectUpdate) {
	const rows, cols, nobj, radius = 2, 3, 20_000, 8
	layout, err := gen.City(gen.CitySpec{Rows: rows, Cols: cols, FloorsMin: 3, FloorsMax: 6,
		Seed: nobj*17 + rows*100 + cols})
	if err != nil {
		b.Fatal(err)
	}
	objs := gen.Objects(layout.B, gen.ObjectSpec{N: nobj, Radius: radius, Instances: 20, Seed: nobj*31 + rows})
	idx, _, err := index.Build(layout.B, objs, index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := query.NewSubscriptions(idx)
	for i, q := range gen.QueryPoints(layout.B, nsubs, 7102) {
		if i%8 == 7 {
			_, _, err = e.SubscribeKNN(q, 10)
		} else {
			_, _, err = e.SubscribeRange(q, 30)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7104))
	snap := idx.Current()
	batches := make([][]index.ObjectUpdate, 64)
	for i := range batches {
		seen := map[object.ID]bool{}
		for len(batches[i]) < 32 {
			o := objs[rng.Intn(len(objs))]
			if seen[o.ID] {
				continue
			}
			seen[o.ID] = true
			c := o.Center
			next := indoor.Pos(c.Pt.X+rng.Float64()*30-15, c.Pt.Y+rng.Float64()*30-15, c.Floor)
			if snap.LocatePartition(next) < 0 {
				next = c
			}
			batches[i] = append(batches[i], index.ObjectUpdate{
				Op: index.UpdateMove, Object: object.SampleGaussian(rng, o.ID, next, radius, 10)})
		}
	}
	return e, idx, batches
}
