package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json this program reads back: the
// regression bounds it holds its own A/A comparison to, and (in the tests)
// the names it must agree with.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(raw, &spec)
}

// aaRepeats is how many runs make one side of the A/A comparison. On a
// shared host a single run of a CPU-bound metric can sit a quarter away
// from the next one for reasons outside the program (README, "Why most
// bounds are wider"); the median of three alternating runs does not.
const aaRepeats = 3

// aaResult is what -aa writes: per workload, two untraced sets of the same
// binaries on the same inputs, run alternately, one traced run, and the
// comparison.
type aaResult struct {
	Host    host      `json:"host"`
	Seed    int64     `json:"seed"`
	A       []*report `json:"a"`
	B       []*report `json:"b"`
	Traced  []*report `json:"traced"`
	Compare []aaRow   `json:"compare"`
}

// aaRow compares one metric on one workload; A and B are each the median
// of aaRepeats runs. Worse is how much the worse side falls behind the
// better, as a share of the better; TraceOverhead is the traced run against
// the mean of A and B, signed so that positive means tracing made the
// metric worse.
type aaRow struct {
	Workload      string  `json:"workload"`
	Metric        string  `json:"metric"`
	A             float64 `json:"a"`
	B             float64 `json:"b"`
	Worse         float64 `json:"worse"`
	Bound         float64 `json:"bound"`
	Within        bool    `json:"within"`
	Traced        float64 `json:"traced"`
	TraceOverhead float64 `json:"trace_overhead"`
}

// runAA runs every workload as A B A B A B untraced and once traced, and
// fails if any end-to-end metric's medians differ between the two sides by
// more than the bound BENCHMARK.json records for it, or any operation
// failed.
func runAA(ctx context.Context, e *env, h host, seed int64) error {
	spec, err := readBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	res := aaResult{Host: h, Seed: seed}
	failed := false
	run := func(wl workload, traced bool) (*report, error) {
		e.traced = traced
		rep, err := runWorkload(ctx, e, wl)
		if err != nil {
			return nil, err
		}
		printReport(rep)
		failed = failed || rep.Failed > 0
		return rep, nil
	}
	medianOf := func(reps []*report, metric string) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.EndToEnd[metric]
		}
		return median(vals)
	}
	for _, wl := range workloads {
		var sideA, sideB []*report
		for r := 0; r < aaRepeats; r++ {
			for _, side := range []*[]*report{&sideA, &sideB} {
				rep, err := run(wl, false)
				if err != nil {
					return err
				}
				*side = append(*side, rep)
			}
		}
		traced, err := run(wl, true)
		if err != nil {
			return err
		}
		res.A, res.B, res.Traced = append(res.A, sideA...), append(res.B, sideB...), append(res.Traced, traced)
		for _, m := range spec.EndToEnd {
			a, b, t := medianOf(sideA, m.Name), medianOf(sideB, m.Name), traced.EndToEnd[m.Name]
			row := aaRow{Workload: wl.name, Metric: m.Name, A: a, B: b, Bound: m.Bound, Traced: t}
			row.Worse = (max(a, b) - min(a, b)) / min(a, b)
			row.TraceOverhead = (t - (a+b)/2) / ((a + b) / 2)
			if m.Better == "higher" {
				row.Worse = (max(a, b) - min(a, b)) / max(a, b)
				row.TraceOverhead = -row.TraceOverhead
			}
			row.Within = row.Worse <= m.Bound
			failed = failed || !row.Within
			res.Compare = append(res.Compare, row)
		}
	}

	fmt.Printf("\n== A/A: medians of %d alternating untraced runs a side, and the traced run against their mean\n", aaRepeats)
	fmt.Printf("  %-12s %-20s %12s %12s %8s %6s  %12s %9s\n", "workload", "metric", "A", "B", "worse", "bound", "traced", "overhead")
	for _, row := range res.Compare {
		fmt.Printf("  %-12s %-20s %12.4f %12.4f %7.1f%% %5.0f%%  %12.4f %+8.1f%%\n",
			row.Workload, row.Metric, row.A, row.B, 100*row.Worse, 100*row.Bound, row.Traced, 100*row.TraceOverhead)
	}
	out := filepath.Join(outDir, "aa.json")
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if failed {
		return errIncorrect
	}
	return nil
}
