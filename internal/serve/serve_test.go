package serve

import (
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/query"
)

func fixture(t *testing.T) (*indoor.Building, *index.Index, []indoor.Position) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 200, Radius: 8, Instances: 10, Seed: 7})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b, idx, gen.QueryPoints(b, 12, 8)
}

// TestRangeBatchOrderAndEquivalence: responses come back in request order
// and match the serial processor exactly, for several worker counts
// including more workers than requests.
func TestRangeBatchOrderAndEquivalence(t *testing.T) {
	_, idx, queries := fixture(t)
	proc := query.New(idx, query.Options{})
	reqs := make([]RangeRequest, len(queries))
	for i, q := range queries {
		reqs[i] = RangeRequest{Q: q, R: 50 + float64(i)*10}
	}
	want := make([][]query.Result, len(reqs))
	for i, r := range reqs {
		res, _, err := proc.RangeQuery(r.Q, r.R)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 3, 64} {
		pool := NewPool(idx, Config{Workers: workers})
		resps, m := pool.RangeBatch(reqs)
		if len(resps) != len(reqs) {
			t.Fatalf("workers=%d: %d responses for %d requests", workers, len(resps), len(reqs))
		}
		if m.Workers > len(reqs) {
			t.Fatalf("workers=%d: metrics report %d workers for %d requests", workers, m.Workers, len(reqs))
		}
		for i := range reqs {
			if resps[i].Err != nil {
				t.Fatalf("workers=%d: request %d: %v", workers, i, resps[i].Err)
			}
			if len(resps[i].Results) != len(want[i]) {
				t.Fatalf("workers=%d: request %d: %d results, want %d",
					workers, i, len(resps[i].Results), len(want[i]))
			}
			for j := range want[i] {
				if resps[i].Results[j].ID != want[i][j].ID {
					t.Fatalf("workers=%d: request %d result %d: id %d, want %d",
						workers, i, j, resps[i].Results[j].ID, want[i][j].ID)
				}
			}
			if resps[i].Stats == nil {
				t.Fatalf("workers=%d: request %d: nil stats", workers, i)
			}
		}
	}
}

// TestKNNBatchErrorPropagation: a query point outside every partition
// errors for that request only; the metrics count it.
func TestKNNBatchErrorPropagation(t *testing.T) {
	_, idx, queries := fixture(t)
	outside := indoor.Pos(-5000, -5000, 0)
	reqs := []KNNRequest{
		{Q: queries[0], K: 5},
		{Q: outside, K: 5},
		{Q: queries[1], K: 5},
	}
	pool := NewPool(idx, Config{Workers: 2})
	resps, m := pool.KNNBatch(reqs)
	if resps[0].Err != nil || resps[2].Err != nil {
		t.Fatalf("in-building requests errored: %v, %v", resps[0].Err, resps[2].Err)
	}
	if resps[1].Err == nil {
		t.Fatal("outside-building request did not error")
	}
	if m.Errors != 1 {
		t.Fatalf("metrics count %d errors, want 1", m.Errors)
	}
}

// TestMetrics: aggregates over a batch are internally consistent.
func TestMetrics(t *testing.T) {
	_, idx, queries := fixture(t)
	pool := NewPool(idx, Config{Workers: 4})
	reqs := make([]RangeRequest, 20)
	for i := range reqs {
		reqs[i] = RangeRequest{Q: queries[i%len(queries)], R: 70}
	}
	resps, m := pool.RangeBatch(reqs)
	if m.Queries != len(reqs) {
		t.Fatalf("Queries = %d, want %d", m.Queries, len(reqs))
	}
	if m.Throughput <= 0 {
		t.Fatalf("Throughput = %g, want > 0", m.Throughput)
	}
	if m.P50 > m.P99 || m.P99 > m.Max {
		t.Fatalf("latency quantiles out of order: p50=%v p99=%v max=%v", m.P50, m.P99, m.Max)
	}
	var maxLat, sum time.Duration
	for _, r := range resps {
		if r.Latency <= 0 {
			t.Fatal("response with non-positive latency")
		}
		if r.Latency > maxLat {
			maxLat = r.Latency
		}
		sum += r.Latency
	}
	if m.Max != maxLat {
		t.Fatalf("Max = %v, responses max %v", m.Max, maxLat)
	}
	if want := sum / time.Duration(len(resps)); m.Mean != want {
		t.Fatalf("Mean = %v, responses mean %v", m.Mean, want)
	}
	if m.Mean < m.P50/2 || m.Mean > m.Max {
		t.Fatalf("Mean %v implausible against p50 %v / max %v", m.Mean, m.P50, m.Max)
	}
	if m.Wall < m.Max {
		t.Fatalf("Wall %v below max latency %v", m.Wall, m.Max)
	}
}

// TestEmptyBatch: no requests, no panic, zeroed metrics.
func TestEmptyBatch(t *testing.T) {
	_, idx, _ := fixture(t)
	pool := NewPool(idx, Config{})
	resps, m := pool.RangeBatch(nil)
	if len(resps) != 0 || m.Queries != 0 || m.Throughput != 0 {
		t.Fatalf("empty batch: %d responses, metrics %+v", len(resps), m)
	}
}

// TestQuantile pins the nearest-rank behaviour, including the rank
// rounding at both boundaries: rank(q, n) = round(q·n) − 1 clamped to
// [0, n−1], so tiny q never underflows the first element, q = 1 always
// lands on the last, and the p99 of a small batch is its maximum (the
// property monitoring dashboards rely on).
func TestQuantile(t *testing.T) {
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{10, 0.50, 5},  // trunc(5+0.5)-1 = 4 → 1-based 5
		{10, 0.99, 10}, // small batch: p99 is the max
		{10, 1.00, 10}, // upper clamp
		{10, 0.0, 1},   // lower clamp: rank -1 clamps to the first element
		{10, 0.001, 1}, // tiny q must not underflow
		{1, 0.50, 1},   // single element: every quantile is it
		{1, 0.99, 1},
		{2, 0.50, 1},    // trunc(1.5)-1 = 0 → first element
		{2, 0.75, 2},    // the n=2 rounding threshold: trunc(2.0)-1 = 1
		{100, 0.99, 99}, // trunc(99.5)-1 = 98 → 1-based 99 (not the max)
		{100, 0.995, 100},
		{101, 0.99, 100}, // trunc(100.49+0.5)... odd sizes round down
	}
	for _, c := range cases {
		if got := quantile(seq(c.n), c.q); got != c.want {
			t.Fatalf("quantile(1..%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("quantile of empty = %v, want 0", q)
	}
}
