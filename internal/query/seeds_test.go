package query

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/distance"
	"repro/internal/gen"
	"repro/internal/index"
)

// kSeedsSelection must return closed seeds: every unit of every seed object
// is in the returned unit set, and the set is door-connected so a seed
// engine produces finite TLUs.
func TestKSeedsClosedAndFinite(t *testing.T) {
	f := newFixture(t, 2, 400, 10)
	p := New(f.idx, Options{})
	for _, q := range gen.QueryPoints(f.b, 5, 501) {
		units, seeds, err := p.KSeedsForTest(q, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(seeds) < 50 {
			t.Fatalf("only %d seeds for k=50", len(seeds))
		}
		inSet := make(map[index.UnitID]bool)
		for _, u := range units {
			inSet[u] = true
		}
		eng, err := distance.New(f.idx.Current(), q, f.idx.Current().NewSkelAnchor(q), units)
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range seeds {
			for _, ou := range f.idx.Current().ObjectUnits(oid) {
				if !inSet[ou] {
					t.Fatalf("seed %d has unit %d outside the seed set", oid, ou)
				}
			}
			if tlu := eng.TLU(f.idx.Current().Objects().Get(oid)); math.IsInf(tlu, 1) {
				t.Fatalf("seed %d has infinite TLU", oid)
			}
		}
	}
}

// The kbound derived from seed TLUs must upper-bound the k-th nearest
// neighbour's true expected distance — the correctness requirement of the
// ikNNQ filtering phase (Lemma 3's purpose).
func TestKboundCoversKthNeighbor(t *testing.T) {
	f := newFixture(t, 2, 400, 10)
	p := New(f.idx, Options{})
	or := baseline.NewOracle(f.idx)
	for _, q := range gen.QueryPoints(f.b, 4, 502)[:4] {
		for _, k := range []int{10, 50} {
			units, seeds, err := p.KSeedsForTest(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(seeds) < k {
				continue
			}
			eng, err := distance.New(f.idx.Current(), q, f.idx.Current().NewSkelAnchor(q), units)
			if err != nil {
				t.Fatal(err)
			}
			tlus := make([]float64, 0, len(seeds))
			for _, oid := range seeds {
				tlus = append(tlus, eng.TLU(f.idx.Current().Objects().Get(oid)))
			}
			// kbound as KNNQuery computes it: the k-th smallest TLU.
			for i := 1; i < len(tlus); i++ {
				for j := i; j > 0 && tlus[j] < tlus[j-1]; j-- {
					tlus[j], tlus[j-1] = tlus[j-1], tlus[j]
				}
			}
			kbound := tlus[k-1]
			top, err := or.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			kth := top[len(top)-1].D
			if kth > kbound+1e-6 {
				t.Fatalf("k=%d: true k-th distance %g exceeds kbound %g", k, kth, kbound)
			}
		}
	}
}

// A tiny population: kSeedsSelection must terminate and return everything.
func TestKSeedsExhaustsSmallPopulation(t *testing.T) {
	f := newFixture(t, 1, 5, 5)
	p := New(f.idx, Options{})
	q := gen.QueryPoints(f.b, 1, 503)[0]
	_, seeds, err := p.KSeedsForTest(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 5 {
		t.Fatalf("seeds = %d, want all 5", len(seeds))
	}
}
