package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {1, 10}, {25, 30},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 10..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("p50 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("p50 of no samples should be NaN")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even sample = %v, want the lower middle 2", got)
	}
}

// The tail printed is the highest percentile with ten samples beyond it.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {50000, 99, true}, {0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tail of %d samples = p%v (%v), want p%v (%v)", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	req := tr.request()
	root := tr.add("client.query.irq", 0, req, tr.t0, 10e6)
	tr.add("server.exec", root, req, tr.t0, 6e6)
	req2 := tr.request()
	root2 := tr.add("serve.batch", 0, req2, tr.t0, 5e6)
	tr.add("query.filtering", root2, req2, tr.t0, 1e6)
	tr.add("query.refinement", root2, req2, tr.t0, 3e6)
	tr.add("wire.encode.request", 0, req2, tr.t0, 2e6)
	tr.add("wire.encode.response", 0, req2, tr.t0, 4e6)

	check := func(prefix string, want ...float64) {
		t.Helper()
		got := tr.selfMs(prefix)
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", prefix, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %v, want %v", prefix, got, want)
			}
		}
	}
	check("client.query", 4) // round trip minus the reported evaluation
	check("serve.batch", 1)  // batch minus the query phases
	check("query.filtering", 1)
	check("wire.encode", 6) // request and response of one request add up
	check("nothing")
	var nilTracer *tracer
	if nilTracer.add("x", 0, nilTracer.request(), tr.t0, 1) != 0 || nilTracer.count() != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}
