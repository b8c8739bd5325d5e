// Command benchfig regenerates the series behind every figure of the
// paper's evaluation section (Figures 12–15) and prints them as labelled
// text tables, one per panel.
//
// Usage:
//
//	benchfig [-fig 12a,13b,...,conc,hotpath|all] [-queries N] [-full-precompute]
//
// With -fig all (the default) every panel runs; expect several minutes at
// the paper's default workload sizes. -queries controls how many query
// points each data point averages over (the paper uses 50). EXPERIMENTS.md
// records one full run next to the paper's reported shapes.
//
// The "conc" panel is not from the paper: it sweeps the concurrent serving
// layer's worker pool over 1/2/4/8 workers on the Floors=2, N=1000
// workload, reporting aggregate queries/sec, speedup over one worker, and
// p50/p99 latency. Run it on multi-core hardware to see the scaling; on
// one CPU the series is flat by construction. The "hotpath" panel reports
// the precompiled door-graph tier's size, compile time, single-query
// serial throughput, and the snapshot-republication cost of a topology
// change. The "mvcc" panel sweeps writer churn rate against batch query
// p50/p99 under MVCC snapshot isolation: the writer re-reports object
// positions at a fixed offered rate through coalesced ApplyObjectUpdates
// ticks while query batches run, reporting reader latency, the sustained
// update rate, and snapshot swaps per second.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	indoorq "repro"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/serve"
)

var (
	figFlag   = flag.String("fig", "all", "comma-separated figure panels (12a..15d) or 'all'")
	queries   = flag.Int("queries", bench.DefaultQueries, "queries averaged per data point")
	fullPre   = flag.Bool("full-precompute", false, "run the true all-pairs pre-computation for Fig 15(d) instead of extrapolating")
	updateOps = flag.Int("update-ops", 100, "dynamic operations per class for Fig 15(c)")
	citySmoke = flag.Bool("city-smoke", false, "run the city panel at the CI smoke scale instead of CityDefault")
)

func main() {
	flag.Parse()
	want := map[string]bool{}
	for _, f := range strings.Split(*figFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(f))] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	type panel struct {
		name string
		run  func() error
	}
	panels := []panel{
		{"12a", fig12a}, {"12b", fig12b}, {"12c", fig12c}, {"12d", fig12d},
		{"13a", fig13a}, {"13b", fig13b}, {"13c", fig13c}, {"13d", fig13d},
		{"14a", fig14a}, {"14b", fig14b}, {"14c", fig14c}, {"14d", fig14d},
		{"15a", fig15a}, {"15b", fig15b}, {"15c", fig15c}, {"15d", fig15d},
		{"conc", figConc}, {"hotpath", figHotPath}, {"mvcc", figMVCC},
		{"city", figCity}, {"history", figHistory},
	}
	ran := 0
	for _, p := range panels {
		if !sel(p.name) {
			continue
		}
		ran++
		// Fresh caches per panel: with several multi-hundred-megabyte
		// fixtures resident, later panels measure heap pressure instead of
		// query cost. Rebuilds are deterministic, so results are
		// unaffected.
		bench.DropFixtures()
		bench.DropCityFixtures()
		runtime.GC()
		if err := p.run(); err != nil {
			fmt.Fprintf(os.Stderr, "fig %s: %v\n", p.name, err)
			os.Exit(1)
		}
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no figure selected; use -fig all or e.g. -fig 12a,15d")
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func ms(d time.Duration) string { return fmt.Sprintf("%8.3f", float64(d.Microseconds())/1000) }

// --- Figure 12: iRQ ---

func fig12a() error {
	header("Fig 12(a) — iRQ query time Tq (ms) vs |O|, per query range r")
	fmt.Printf("%-8s %10s %10s %10s\n", "|O|", "r=50", "r=100", "r=150")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-8d", n)
		for _, r := range bench.RangePoints {
			pt, err := bench.RunIRQ(f, r, *queries, query.Options{})
			if err != nil {
				return err
			}
			row += " " + ms(pt.MeanTotal)
		}
		fmt.Println(row)
	}
	return nil
}

func fig12b() error {
	header("Fig 12(b) — iRQ phase breakdown (ms) at r=100")
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "|O|", "filter", "subgraph", "prune", "refine")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		pt, err := bench.RunIRQ(f, bench.DefaultRange, *queries, query.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %s %s %s %s\n", n,
			ms(pt.Filtering), ms(pt.Subgraph), ms(pt.Pruning), ms(pt.Refinement))
	}
	return nil
}

func fig12c() error {
	header("Fig 12(c) — iRQ query time Tq (ms) vs uncertainty region diameter")
	fmt.Printf("%-8s %10s %10s %10s\n", "diam", "r=50", "r=100", "r=150")
	for _, rad := range bench.RadiusPoints {
		cfg := bench.Default()
		cfg.Radius = rad
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-8g", 2*rad)
		for _, r := range bench.RangePoints {
			pt, err := bench.RunIRQ(f, r, *queries, query.Options{})
			if err != nil {
				return err
			}
			row += " " + ms(pt.MeanTotal)
		}
		fmt.Println(row)
	}
	return nil
}

func fig12d() error {
	header("Fig 12(d) — iRQ query time Tq (ms) vs # partitions (floors)")
	fmt.Printf("%-16s %10s %10s %10s\n", "partitions", "r=50", "r=100", "r=150")
	for _, fl := range bench.FloorPoints {
		cfg := bench.Default()
		cfg.Floors = fl
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-16s", fmt.Sprintf("%d (%d fl)", f.B.NumPartitions(), fl))
		for _, r := range bench.RangePoints {
			pt, err := bench.RunIRQ(f, r, *queries, query.Options{})
			if err != nil {
				return err
			}
			row += " " + ms(pt.MeanTotal)
		}
		fmt.Println(row)
	}
	return nil
}

// --- Figure 13: ikNNQ ---

func fig13a() error {
	header("Fig 13(a) — ikNNQ query time Tq (ms) vs |O|, per k")
	fmt.Printf("%-8s %10s %10s %10s\n", "|O|", "k=50", "k=100", "k=150")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-8d", n)
		for _, k := range bench.KPoints {
			pt, err := bench.RunKNN(f, k, *queries, query.Options{})
			if err != nil {
				return err
			}
			row += " " + ms(pt.MeanTotal)
		}
		fmt.Println(row)
	}
	return nil
}

func fig13b() error {
	header("Fig 13(b) — ikNNQ phase breakdown (ms) at k=100")
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "|O|", "filter", "subgraph", "prune", "refine")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		pt, err := bench.RunKNN(f, bench.DefaultK, *queries, query.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %s %s %s %s\n", n,
			ms(pt.Filtering), ms(pt.Subgraph), ms(pt.Pruning), ms(pt.Refinement))
	}
	return nil
}

func fig13c() error {
	header("Fig 13(c) — ikNNQ query time Tq (ms) vs uncertainty region diameter")
	fmt.Printf("%-8s %10s %10s %10s\n", "diam", "k=50", "k=100", "k=150")
	for _, rad := range bench.RadiusPoints {
		cfg := bench.Default()
		cfg.Radius = rad
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-8g", 2*rad)
		for _, k := range bench.KPoints {
			pt, err := bench.RunKNN(f, k, *queries, query.Options{})
			if err != nil {
				return err
			}
			row += " " + ms(pt.MeanTotal)
		}
		fmt.Println(row)
	}
	return nil
}

func fig13d() error {
	header("Fig 13(d) — ikNNQ query time Tq (ms) vs # partitions (floors)")
	fmt.Printf("%-16s %10s %10s %10s\n", "partitions", "k=50", "k=100", "k=150")
	for _, fl := range bench.FloorPoints {
		cfg := bench.Default()
		cfg.Floors = fl
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%-16s", fmt.Sprintf("%d (%d fl)", f.B.NumPartitions(), fl))
		for _, k := range bench.KPoints {
			pt, err := bench.RunKNN(f, k, *queries, query.Options{})
			if err != nil {
				return err
			}
			row += " " + ms(pt.MeanTotal)
		}
		fmt.Println(row)
	}
	return nil
}

// --- Figure 14: bound effectiveness ---

func fig14a() error {
	header("Fig 14(a) — iRQ filtering & pruning ratios (%) at r=100")
	fmt.Printf("%-8s %10s %10s\n", "|O|", "filter", "prune")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		pt, err := bench.RunIRQ(f, bench.DefaultRange, *queries, query.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %10.2f %10.2f\n", n, 100*pt.FilterRatio, 100*pt.PruneRatio)
	}
	return nil
}

func fig14b() error {
	header("Fig 14(b) — iRQ time (ms) with vs without pruning phase, r=100")
	fmt.Printf("%-8s %12s %15s\n", "|O|", "withPruning", "withoutPruning")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		with, err := bench.RunIRQ(f, bench.DefaultRange, *queries, query.Options{})
		if err != nil {
			return err
		}
		without, err := bench.RunIRQ(f, bench.DefaultRange, *queries, query.Options{DisablePruning: true})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12s %15s\n", n, ms(with.MeanTotal), ms(without.MeanTotal))
	}
	return nil
}

func fig14c() error {
	header("Fig 14(c) — ikNNQ filtering & pruning ratios (%) at k=100")
	fmt.Printf("%-8s %10s %10s\n", "|O|", "filter", "prune")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		pt, err := bench.RunKNN(f, bench.DefaultK, *queries, query.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %10.2f %10.2f\n", n, 100*pt.FilterRatio, 100*pt.PruneRatio)
	}
	return nil
}

func fig14d() error {
	header("Fig 14(d) — ikNNQ time (ms) with vs without pruning phase, k=100")
	fmt.Printf("%-8s %12s %15s\n", "|O|", "withPruning", "withoutPruning")
	for _, n := range bench.ObjectPoints {
		cfg := bench.Default()
		cfg.Objects = n
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		with, err := bench.RunKNN(f, bench.DefaultK, *queries, query.Options{})
		if err != nil {
			return err
		}
		without, err := bench.RunKNN(f, bench.DefaultK, *queries, query.Options{DisablePruning: true})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12s %15s\n", n, ms(with.MeanTotal), ms(without.MeanTotal))
	}
	return nil
}

// --- Figure 15: composite index ---

func fig15a() error {
	header("Fig 15(a) — index units retrieved with vs without skeleton tier")
	fmt.Printf("%-8s %14s %17s\n", "range", "withSkeleton", "withoutSkeleton")
	cfg := bench.Default()
	f, err := bench.Fixture(cfg)
	if err != nil {
		return err
	}
	for _, r := range bench.RangePoints {
		with, err := bench.RunIRQ(f, r, *queries, query.Options{})
		if err != nil {
			return err
		}
		without, err := bench.RunIRQ(f, r, *queries, query.Options{DisableSkeleton: true})
		if err != nil {
			return err
		}
		fmt.Printf("%-8g %14.0f %17.0f\n", r, with.Units, without.Units)
	}
	return nil
}

func fig15b() error {
	header("Fig 15(b) — index construction time per layer (ms) vs partitions")
	fmt.Printf("%-16s %10s %10s %10s %10s\n", "partitions", "tree", "topo", "object", "skeleton")
	for _, fl := range bench.FloorPoints {
		b, err := gen.Mall(gen.MallSpec{Floors: fl})
		if err != nil {
			return err
		}
		objs := gen.Objects(b, gen.ObjectSpec{
			N: bench.DefaultObjects, Radius: bench.DefaultRadius,
			Instances: bench.DefaultInstances, Seed: 1,
		})
		_, stats, err := index.Build(b, objs, index.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-16s %s %s %s %s\n",
			fmt.Sprintf("%d (%d fl)", b.NumPartitions(), fl),
			ms(stats.TreeTier), ms(stats.TopoLayer), ms(stats.ObjectLayer), ms(stats.SkeletonTier))
	}
	return nil
}

func fig15c() error {
	header(fmt.Sprintf("Fig 15(c) — dynamic operation cost (ms per op, %d ops)", *updateOps))
	cfg := bench.Default()
	f, err := bench.Fixture(cfg)
	if err != nil {
		return err
	}
	n := *updateOps

	qs := gen.QueryPoints(f.B, n, 99)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f.Idx.InsertObject(object.PointObject(object.ID(3_000_000+i), qs[i])); err != nil {
			return err
		}
	}
	insObj := time.Since(start)
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := f.Idx.DeleteObject(object.ID(3_000_000 + i)); err != nil {
			return err
		}
	}
	delObj := time.Since(start)

	var room indoor.PartitionID
	for _, p := range f.B.Partitions() {
		if p.Kind == indoor.Room {
			room = p.ID
			break
		}
	}
	orig := f.B.Partition(room)
	remove := index.Mutation{Kind: index.MutRemovePartition, PartID: room}
	add := index.Mutation{Kind: index.MutAddPartition, PartID: indoor.NoPartition,
		Part: &indoor.Partition{Kind: indoor.Room, Floor: orig.Floor, Shape: orig.Shape}}
	if _, err := f.Idx.Apply(remove); err != nil {
		return err
	}
	var insPart, delPart time.Duration
	for i := 0; i < n; i++ {
		start = time.Now()
		added, err := f.Idx.Apply(add)
		if err != nil {
			return err
		}
		insPart += time.Since(start)
		start = time.Now()
		remove.PartID = added.PartID
		if _, err := f.Idx.Apply(remove); err != nil {
			return err
		}
		delPart += time.Since(start)
	}
	// Restore the room for later panels.
	if _, err := f.Idx.Apply(add); err != nil {
		return err
	}

	fmt.Printf("%-18s %10s\n", "operation", "ms/op")
	fmt.Printf("%-18s %s\n", "insertObject", ms(insObj/time.Duration(n)))
	fmt.Printf("%-18s %s\n", "deleteObject", ms(delObj/time.Duration(n)))
	fmt.Printf("%-18s %s\n", "insertPartition", ms(insPart/time.Duration(n)))
	fmt.Printf("%-18s %s\n", "deletePartition", ms(delPart/time.Duration(n)))
	return nil
}

func fig15d() error {
	header("Fig 15(d) — door-to-door pre-computation time vs partitions")
	fmt.Printf("%-16s %8s %14s %16s\n", "partitions", "doors", "per-source", "all-pairs")
	for _, fl := range bench.FloorPoints {
		cfg := bench.Default()
		cfg.Floors = fl
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		if *fullPre {
			pre := baseline.Precompute(f.Idx)
			fmt.Printf("%-16s %8d %14s %16s\n",
				fmt.Sprintf("%d (%d fl)", f.B.NumPartitions(), fl),
				pre.NDoors, "-", pre.Elapsed.Round(time.Millisecond))
			continue
		}
		per, total, doors := baseline.EstimatePrecomputeTime(f.Idx, 32)
		fmt.Printf("%-16s %8d %14s %16s (extrapolated)\n",
			fmt.Sprintf("%d (%d fl)", f.B.NumPartitions(), fl),
			doors, per.Round(time.Microsecond), total.Round(time.Millisecond))
	}
	return nil
}

// --- Concurrent serving (not in the paper) ---

func figConc() error {
	header(fmt.Sprintf("Concurrent serving — batch throughput vs workers (GOMAXPROCS=%d)",
		runtime.GOMAXPROCS(0)))
	f, err := bench.Fixture(bench.ServeWorkload())
	if err != nil {
		return err
	}
	const batch = 400
	for _, kind := range []string{"iRQ", "ikNN"} {
		fmt.Printf("%-6s %8s %12s %9s %10s %10s\n",
			kind, "workers", "queries/sec", "speedup", "p50 (ms)", "p99 (ms)")
		base := 0.0
		for _, w := range bench.ConcurrencyWorkers {
			var m serve.Metrics
			if kind == "iRQ" {
				m, err = bench.RunBatchIRQ(f, bench.DefaultRange, batch, w)
			} else {
				m, err = bench.RunBatchKNN(f, 10, batch, w)
			}
			if err != nil {
				return err
			}
			if base == 0 {
				base = m.Throughput
			}
			fmt.Printf("%-6s %8d %12.0f %8.2fx %s %s\n",
				"", w, m.Throughput, m.Throughput/base, ms(m.P50), ms(m.P99))
		}
	}
	return nil
}

// figHotPath is the door-graph-tier panel (not from the paper): it reports
// the compiled graph's size and compile time on the default workload, the
// single-query serial throughput the precompiled tier sustains, and the
// cost a topology change adds to the next query (the lazy recompile).
func figHotPath() error {
	header("Door-graph tier — compile cost and single-query hot path (default workload)")
	f, err := bench.Fixture(bench.Default())
	if err != nil {
		return err
	}
	idx := f.Idx
	dg := idx.Current().DoorGraph()
	fmt.Printf("doors %d, unit slots %d, directed edges %d, compile %s ms\n",
		dg.NumDoors(), dg.NumUnits(), dg.Graph().NumEdges(), ms(f.BuildStats.DoorGraph))

	// Serial single-query throughput over the pool.
	p := f.Processor(query.Options{})
	for _, kind := range []string{"iRQ", "ikNN"} {
		start := time.Now()
		n := 0
		for i := 0; i < *queries; i++ {
			q := f.Queries[i%len(f.Queries)]
			var err error
			if kind == "iRQ" {
				_, _, err = p.RangeQuery(q, bench.DefaultRange)
			} else {
				_, _, err = p.KNNQuery(q, bench.DefaultK)
			}
			if err != nil {
				return err
			}
			n++
		}
		el := time.Since(start)
		fmt.Printf("%-5s %4d queries in %s ms (%8.0f queries/sec serial)\n",
			kind, n, ms(el), float64(n)/el.Seconds())
	}

	// Topology-republication latency: under MVCC a door toggle clones the
	// topological layer, rebakes enterability and recompiles the doors
	// graph into a new snapshot before returning — queries never pay for
	// it, the mutator does. Measure the whole mutation.
	var door indoor.DoorID = -1
	for _, d := range f.B.Doors() {
		door = d.ID
		break
	}
	if door >= 0 {
		start := time.Now()
		if _, err := idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: door}); err != nil {
			return err
		}
		fmt.Printf("topology mutation incl. graph recompile + snapshot publish: %s ms\n", ms(time.Since(start)))
	}
	return nil
}

// --- MVCC read/write interference (not in the paper) ---

// figMVCC sweeps offered writer churn against batch query latency: the
// read/write-interference profile of the snapshot-isolated serving layer.
// Offered churn arrives as coalesced movement ticks (ApplyObjectUpdates,
// one snapshot swap per tick); batches of range queries run throughout.
// Reported per churn rate: batch p50/p99, batch throughput, the SUSTAINED
// update rate (how much of the offered churn the writer absorbed — a
// global lock sheds load here, snapshot isolation should not), and
// snapshot swaps per second.
func figMVCC() error {
	header(fmt.Sprintf("MVCC — batch query latency vs writer churn (GOMAXPROCS=%d)",
		runtime.GOMAXPROCS(0)))
	f, err := bench.Fixture(bench.ServeWorkload())
	if err != nil {
		return err
	}
	const (
		tickEvery = 10 * time.Millisecond
		batch     = 200
		rounds    = 8
	)
	fmt.Printf("%12s %12s %12s %12s %10s %10s\n",
		"offered/s", "sustained/s", "swaps/sec", "queries/sec", "p50 (ms)", "p99 (ms)")
	for _, perTick := range []int{0, 10, 50, 200} {
		offered := perTick * int(time.Second/tickEvery)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var applied atomic.Int64
		swapsBefore := f.Idx.SnapshotSwaps()
		if perTick > 0 {
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
						return
					}
					applied.Add(int64(perTick))
				}
			}()
		}
		var agg serve.Metrics
		start := time.Now()
		for r := 0; r < rounds; r++ {
			m, err := bench.RunBatchIRQ(f, bench.DefaultRange, batch, 4)
			if err != nil {
				close(stop)
				wg.Wait()
				return err
			}
			if r == 0 || m.P99 > agg.P99 {
				agg.P99 = m.P99
			}
			agg.P50 += m.P50
			agg.Throughput += m.Throughput
		}
		elapsed := time.Since(start)
		close(stop)
		wg.Wait()
		agg.P50 /= time.Duration(rounds)
		agg.Throughput /= rounds
		sustained := float64(applied.Load()) / elapsed.Seconds()
		swapsPerSec := float64(f.Idx.SnapshotSwaps()-swapsBefore) / elapsed.Seconds()
		fmt.Printf("%12d %12.0f %12.1f %12.0f %s %s\n",
			offered, sustained, swapsPerSec, agg.Throughput, ms(agg.P50), ms(agg.P99))
	}
	return nil
}

// --- Time travel (not in the paper) ---

// figHistory measures AsOf reconstruction cost as a function of replay
// distance — the records folded forward from the nearest checkpoint —
// in three regimes: cold (a fresh provider rebuilding from the
// checkpoint), a nearest-ancestor advance of one record on the now-warm
// materialized state, and an exact-LSN view-cache hit. The gap between
// the cold column and the other two is what the provider's LRU buys a
// replay tool walking forward through history.
func figHistory() error {
	header("Time travel — AsOf latency vs replay distance (cold vs cached)")
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		return err
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 2000, Radius: 5, Instances: 4, Seed: 7})
	db, _, err := indoorq.Open(b, objs, indoorq.Options{})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchfig-history-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := db.Persist(dir, indoorq.DurabilityOptions{CompactBytes: -1}); err != nil {
		return err
	}
	defer db.Close()

	const total = 4096
	for i := 0; i < total; i++ {
		o := db.Object(indoorq.ObjectID(i % 2000))
		p := o.Center
		if i%2 == 0 {
			p.Pt.X += 0.2
		} else {
			p.Pt.X -= 0.2
		}
		if err := db.MoveObject(object.PointObject(o.ID, p)); err != nil {
			return err
		}
	}
	if err := db.Sync(); err != nil {
		return err
	}

	fmt.Printf("%10s %12s %14s %14s %14s\n",
		"distance", "cold (ms)", "records/sec", "advance+1 (ms)", "view hit (ms)")
	for _, d := range []int{1, 16, 256, 1024, 4096} {
		// Cold: a fresh provider over the same store — nothing cached.
		p := history.NewProvider(history.StoreSource{St: db.Store()})
		start := time.Now()
		if _, err := p.AsOf(uint64(d)); err != nil {
			return err
		}
		cold := time.Since(start)
		adv := "             -"
		if d+1 <= total {
			start = time.Now()
			if _, err := p.AsOf(uint64(d + 1)); err != nil {
				return err
			}
			adv = ms(time.Since(start))
		}
		start = time.Now()
		if _, err := p.AsOf(uint64(d)); err != nil {
			return err
		}
		hit := time.Since(start)
		fmt.Printf("%10d %s %14.0f %s %s\n",
			d, ms(cold), float64(d)/cold.Seconds(), adv, ms(hit))
	}
	return nil
}

// --- City scale: mixed panel + reconciliation shard sweep ---

// figCity is the city-scale workload panel: scale statistics, the mixed
// read/write/subscription p99 latency budget, and a reconciliation
// shard-width sweep on the same steady-state churn. The README's
// performance section publishes this table at CityDefault scale;
// -city-smoke selects the CI-sized city instead.
func figCity() error {
	cfg := bench.CityDefault()
	subs := 10000
	if *citySmoke {
		cfg = bench.CitySmoke()
		subs = 1000
	}
	header(fmt.Sprintf("City scale — %s, %d subscriptions", cfg, subs))
	w, err := bench.NewCityChurn(cfg, subs)
	if err != nil {
		return err
	}
	bld := w.Idx.Building()
	fmt.Printf("buildings %d  partitions %d  doors %d  objects %d  subs %d\n",
		len(w.Layout.Buildings), len(bld.Partitions()), len(bld.Doors()), cfg.Objects, subs)

	// Mixed panel first: its batches fill the engine's latency window
	// cleanly before the sweep reuses the engine.
	rep, err := bench.RunCityMixed(cfg, subs, 256, query.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("\n%-28s %10s %10s\n", "latency budget (ms)", "p50", "p99")
	fmt.Printf("%-28s %s %s\n", "iRQ (r=50)", ms(rep.RangeP50), ms(rep.RangeP99))
	fmt.Printf("%-28s %s %s\n", "ikNN (k=10)", ms(rep.KNNP50), ms(rep.KNNP99))
	fmt.Printf("%-28s %s %s   (mean %s)\n", "reconcile (32-move batch)",
		ms(rep.ReconcileP50), ms(rep.ReconcileP99), ms(rep.ReconcileMean))
	fmt.Printf("%-28s %10.0f moves/s\n", "write throughput", rep.MovesPerSec)

	fmt.Printf("\n%8s %14s %14s\n", "shards", "ms/batch", "batches/s")
	for _, shards := range []int{1, 2, 4, 8} {
		w.Engine.SetShards(shards)
		start := time.Now()
		for _, ups := range w.Batches {
			if _, err := w.Engine.ApplyObjectUpdates(ups); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		per := elapsed / time.Duration(len(w.Batches))
		fmt.Printf("%8d %s %14.1f\n", shards, ms(per), float64(len(w.Batches))/elapsed.Seconds())
	}
	w.Engine.SetShards(0)
	return nil
}
