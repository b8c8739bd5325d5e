// Command benchmark is the repository's end-to-end benchmark: it builds a
// seeded city, persists it once, and for each workload launches a real
// indoorqd leader and a real indoorqd replica as subprocesses on loopback,
// drives them over HTTP with internal/wire.Client from this one process,
// measures a fixed window after a warm-up, verifies the answers, and
// prints every metric by name with its unit. A traced pass (-trace 1)
// additionally attributes the time to layers, purely from outside.
//
// It is run through benchmark/run.sh (the command BENCHMARK.json names),
// which builds this program and the daemon into .bench_build/. See
// README.md in this directory for the metric and workload glossary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is the measured window; it equals run_seconds in
// BENCHMARK.json, which is what the driver passes.
const defaultSeconds = 12

// outDir receives the span files and the A/A result.
var outDir = filepath.Join("benchmark", "out")

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       bool
	short    bool
	indoorqd string
	scratch  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured window per workload, after the warm-up")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass: per-layer metrics and benchmark/out/trace-<workload>.json")
	flag.BoolVar(&o.aa, "aa", false, "A/A: per workload three alternating untraced runs a side plus a traced run; compare, write benchmark/out/aa.json")
	flag.BoolVar(&o.short, "short", false, "smoke run: 3 s windows, one set-up per workload")
	flag.StringVar(&o.indoorqd, "indoorqd", "", "path of the built indoorqd (run.sh sets it)")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for stores and logs, inside the checkout")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that completed but failed verification or an
// operation: the result line is printed and the exit code is non-zero.
var errIncorrect = errors.New("operations failed or answers were wrong")

// run executes the requested mode. Every temporary directory and child
// process it creates is gone when it returns, whatever the path out:
// signals cancel ctx, and everything else unwinds through defers.
func run(ctx context.Context, o options) error {
	if o.indoorqd == "" {
		return errors.New("no -indoorqd binary; run this benchmark through benchmark/run.sh")
	}
	if o.short {
		o.seconds = 3
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	var wls []workload
	if o.workload == "all" {
		wls = workloads
	} else if wl, ok := workloadByName(o.workload); ok {
		wls = []workload{wl}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fx, err := buildFixture(o.seed, dir)
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	e := &env{
		indoorqd: o.indoorqd, scratch: dir, callers: runtime.NumCPU(), seconds: o.seconds, setups: 3,
		traced: o.trace != 0, fx: fx,
	}
	if o.short {
		e.setups = 1
	}
	host := hostRecord()
	fmt.Printf("host: %s\n", mustJSON(host))
	fmt.Printf("city: %dx%d buildings, %d floors each, %d partitions, %d objects (radius %g m, %d instances); seed %d; fixture build %.3f s\n",
		cityRows, cityCols, cityFloors, fx.parts, cityObjects, cityRadius, cityInstances, o.seed, fx.buildS)
	fmt.Printf("flush policy: SyncGrouped, 5 ms group window, 64 MiB CompactBytes (the daemon defaults, unchanged)\n")
	fmt.Printf("load: %d closed-loop callers (nproc), one connection per stream, %d s warm-up + %d s window, %d set-ups per workload\n",
		e.callers, int(e.warmup().Seconds()), e.seconds, e.setups)

	if o.aa {
		return runAA(ctx, e, host, o.seed)
	}
	incorrect := false
	for _, wl := range wls {
		rep, err := runWorkload(ctx, e, wl)
		if err != nil {
			return err
		}
		printReport(rep)
		fmt.Println(resultLine(rep))
		incorrect = incorrect || rep.Failed > 0
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// resultLine is the driver's contract: one JSON object with the run's
// verdict and, by pass, every end-to-end or every per-layer metric.
func resultLine(rep *report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, rep.EndToEnd
	if rep.Traced {
		defs, vals = perLayer, rep.Layers
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no sample; the run has already been marked failed
		}
		metrics[d.name] = value{v, d.unit}
	}
	return mustJSON(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
}

// printReport prints every metric by name with its unit, then the ungated
// companions and any notes.
func printReport(rep *report) {
	pass := "untraced"
	if rep.Traced {
		pass = "traced"
	}
	fmt.Printf("\n== %s (%s pass, %d s window) workload_digest=%s ops_attempted=%d ops_failed=%d\n",
		rep.Workload, pass, rep.Seconds, rep.Digest, rep.Attempted, rep.Failed)
	for _, d := range endToEnd {
		fmt.Printf("  %-28s %14.4f %-6s (%s is better)\n", d.name, rep.EndToEnd[d.name], d.unit, d.better)
	}
	extra := make([]string, 0, len(rep.Extra))
	for k := range rep.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-28s %14.4f\n", k, rep.Extra[k])
	}
	if rep.Traced {
		fmt.Println("  -- per layer")
		for _, d := range perLayer {
			fmt.Printf("  %-28s %14.4f %s\n", d.name, rep.Layers[d.name], d.unit)
		}
	}
	for _, n := range rep.Notes {
		fmt.Println("  note:", n)
	}
}

// host is recorded with every result: numbers from different hosts do not
// compare.
type host struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func hostRecord() host {
	h := host{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown", CPU: "unknown",
	}
	h.Hostname, _ = os.Hostname() // empty is an acceptable record
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" stays then.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			h.Commit += "+uncommitted"
		}
	}
	return h
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	return string(raw)
}
