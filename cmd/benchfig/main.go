// Command benchfig regenerates the series behind every figure of the
// paper's evaluation section (Figures 12–15) and prints them as labelled
// text tables, one per panel.
//
// Usage:
//
//	benchfig [-fig 12a,13b,...|all] [-queries N] [-full-precompute] [-update-ops N]
//
// With -fig all (the default) every panel runs; expect several minutes at
// the paper's default workload sizes. -queries controls how many query
// points each data point averages over (the paper uses 50). An unknown
// panel name exits 2. README "Performance" discusses the measured shapes
// next to the paper's.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
)

var (
	figFlag   = flag.String("fig", "all", "comma-separated figure panels (12a..15d) or 'all'")
	queries   = flag.Int("queries", bench.DefaultQueries, "queries averaged per data point")
	fullPre   = flag.Bool("full-precompute", false, "run the true all-pairs pre-computation for Fig 15(d) instead of extrapolating")
	updateOps = flag.Int("update-ops", 100, "dynamic operations per class for Fig 15(c)")
)

type panel struct {
	name string
	run  func() error
}

// panels is every panel of §V in print order.
var panels = []panel{
	{"12a", func() error { return timeVsObjects("12(a)", irq) }},
	{"12b", func() error { return breakdown("12(b)", irq) }},
	{"12c", func() error { return timeVsUncertainty("12(c)", irq) }},
	{"12d", func() error { return timeVsPartitions("12(d)", irq) }},
	{"13a", func() error { return timeVsObjects("13(a)", knn) }},
	{"13b", func() error { return breakdown("13(b)", knn) }},
	{"13c", func() error { return timeVsUncertainty("13(c)", knn) }},
	{"13d", func() error { return timeVsPartitions("13(d)", knn) }},
	{"14a", func() error { return ratios("14(a)", irq) }},
	{"14b", func() error { return withoutPruning("14(b)", irq) }},
	{"14c", func() error { return ratios("14(c)", knn) }},
	{"14d", func() error { return withoutPruning("14(d)", knn) }},
	{"15a", fig15a}, {"15b", fig15b}, {"15c", fig15c}, {"15d", fig15d},
}

func main() {
	flag.Parse()
	sel, err := selectPanels(*figFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, p := range sel {
		// Fresh caches per panel: with several multi-hundred-megabyte
		// fixtures resident, later panels measure heap pressure instead of
		// query cost. Rebuilds are deterministic, so results are
		// unaffected.
		bench.DropFixtures()
		runtime.GC()
		if err := p.run(); err != nil {
			fmt.Fprintf(os.Stderr, "fig %s: %v\n", p.name, err)
			os.Exit(1)
		}
	}
}

// selectPanels parses a -fig value, a comma-separated list of panel names
// or "all" (case and surrounding space ignored), into the selected panels
// in print order. Any name outside the panel table is an error.
func selectPanels(spec string) ([]panel, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		want[strings.ToLower(strings.TrimSpace(name))] = true
	}
	all := want["all"]
	delete(want, "all")
	var sel []panel
	for _, p := range panels {
		if all || want[p.name] {
			sel = append(sel, p)
		}
		delete(want, p.name)
	}
	if len(want) > 0 || len(sel) == 0 {
		valid := []string{"all"}
		for _, p := range panels {
			valid = append(valid, p.name)
		}
		return nil, fmt.Errorf("invalid -fig %q; valid panels: %s", spec, strings.Join(valid, ", "))
	}
	return sel, nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func ms(d time.Duration) string { return fmt.Sprintf("%8.3f", float64(d.Microseconds())/1000) }

// --- Figures 12–14: iRQ and ikNNQ ---

// kind is one query type of Figures 12–14: iRQ swept over the query range
// r, ikNNQ over k. Each panel function draws the iRQ panel or its ikNNQ
// twin depending on the kind it is given.
type kind struct {
	name   string    // "iRQ" or "ikNNQ"
	param  string    // column label prefix: "r" or "k"
	per    string    // what the per-parameter series of panel (a) sweeps
	points []float64 // the parameter's sweep
	def    float64   // the parameter's default
	run    func(f *bench.F, p float64, opts query.Options) (bench.Point, error)
}

var (
	irq = kind{
		name: "iRQ", param: "r", per: "query range r",
		points: bench.RangePoints, def: bench.DefaultRange,
		run: func(f *bench.F, r float64, opts query.Options) (bench.Point, error) {
			return bench.RunIRQ(f, r, *queries, opts)
		},
	}
	knn = kind{
		name: "ikNNQ", param: "k", per: "k",
		points: floats(bench.KPoints), def: bench.DefaultK,
		run: func(f *bench.F, k float64, opts query.Options) (bench.Point, error) {
			return bench.RunKNN(f, int(k), *queries, opts)
		},
	}
)

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// label names one parameter value as a column: "r=50", "k=100".
func (k kind) label(p float64) string { return fmt.Sprintf("%s=%g", k.param, p) }

// columns prints the header of a query-time panel: the row-label column
// then one column per parameter value.
func (k kind) columns(rowFmt, rowName string) {
	line := fmt.Sprintf(rowFmt, rowName)
	for _, p := range k.points {
		line += fmt.Sprintf(" %10s", k.label(p))
	}
	fmt.Println(line)
}

// series returns the mean query time at every parameter value, one
// formatted column each.
func (k kind) series(f *bench.F) (string, error) {
	row := ""
	for _, p := range k.points {
		pt, err := k.run(f, p, query.Options{})
		if err != nil {
			return "", err
		}
		row += " " + ms(pt.MeanTotal)
	}
	return row, nil
}

// objectsFixture is the default workload with |O| = n.
func objectsFixture(n int) (*bench.F, error) {
	cfg := bench.Default()
	cfg.Objects = n
	return bench.Fixture(cfg)
}

// timeVsObjects is Fig 12(a) / 13(a): query time vs |O|, per parameter.
func timeVsObjects(fig string, k kind) error {
	header(fmt.Sprintf("Fig %s — %s query time Tq (ms) vs |O|, per %s", fig, k.name, k.per))
	k.columns("%-8s", "|O|")
	for _, n := range bench.ObjectPoints {
		f, err := objectsFixture(n)
		if err != nil {
			return err
		}
		row, err := k.series(f)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d%s\n", n, row)
	}
	return nil
}

// breakdown is Fig 12(b) / 13(b): per-phase time at the default parameter.
func breakdown(fig string, k kind) error {
	header(fmt.Sprintf("Fig %s — %s phase breakdown (ms) at %s", fig, k.name, k.label(k.def)))
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "|O|", "filter", "subgraph", "prune", "refine")
	for _, n := range bench.ObjectPoints {
		f, err := objectsFixture(n)
		if err != nil {
			return err
		}
		pt, err := k.run(f, k.def, query.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %s %s %s %s\n", n,
			ms(pt.Filtering), ms(pt.Subgraph), ms(pt.Pruning), ms(pt.Refinement))
	}
	return nil
}

// timeVsUncertainty is Fig 12(c) / 13(c): query time vs uncertainty region
// diameter, per parameter.
func timeVsUncertainty(fig string, k kind) error {
	header(fmt.Sprintf("Fig %s — %s query time Tq (ms) vs uncertainty region diameter", fig, k.name))
	k.columns("%-8s", "diam")
	for _, rad := range bench.RadiusPoints {
		cfg := bench.Default()
		cfg.Radius = rad
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row, err := k.series(f)
		if err != nil {
			return err
		}
		fmt.Printf("%-8g%s\n", 2*rad, row)
	}
	return nil
}

// timeVsPartitions is Fig 12(d) / 13(d): query time vs partition count,
// per parameter.
func timeVsPartitions(fig string, k kind) error {
	header(fmt.Sprintf("Fig %s — %s query time Tq (ms) vs # partitions (floors)", fig, k.name))
	k.columns("%-16s", "partitions")
	for _, fl := range bench.FloorPoints {
		cfg := bench.Default()
		cfg.Floors = fl
		f, err := bench.Fixture(cfg)
		if err != nil {
			return err
		}
		row, err := k.series(f)
		if err != nil {
			return err
		}
		fmt.Printf("%-16s%s\n", fmt.Sprintf("%d (%d fl)", f.B.NumPartitions(), fl), row)
	}
	return nil
}

// ratios is Fig 14(a) / 14(c): filtering and pruning ratios at the default
// parameter.
func ratios(fig string, k kind) error {
	header(fmt.Sprintf("Fig %s — %s filtering & pruning ratios (%%) at %s", fig, k.name, k.label(k.def)))
	fmt.Printf("%-8s %10s %10s\n", "|O|", "filter", "prune")
	for _, n := range bench.ObjectPoints {
		f, err := objectsFixture(n)
		if err != nil {
			return err
		}
		pt, err := k.run(f, k.def, query.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %10.2f %10.2f\n", n, 100*pt.FilterRatio, 100*pt.PruneRatio)
	}
	return nil
}

// withoutPruning is Fig 14(b) / 14(d): query time with vs without the
// pruning phase at the default parameter.
func withoutPruning(fig string, k kind) error {
	header(fmt.Sprintf("Fig %s — %s time (ms) with vs without pruning phase, %s", fig, k.name, k.label(k.def)))
	fmt.Printf("%-8s %12s %15s\n", "|O|", "withPruning", "withoutPruning")
	for _, n := range bench.ObjectPoints {
		f, err := objectsFixture(n)
		if err != nil {
			return err
		}
		with, err := k.run(f, k.def, query.Options{})
		if err != nil {
			return err
		}
		without, err := k.run(f, k.def, query.Options{DisablePruning: true})
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
