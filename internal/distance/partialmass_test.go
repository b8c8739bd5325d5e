package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/object"
)

// Partial-mass conditioning: an object whose uncertainty region straddles
// a wall loses the unlocatable instances at indexing time, so its indexed
// subregions carry mass < 1. The expected distance is the conditional
// expectation over the indexed mass, and every bound must still bracket it
// — the unnormalised form sinks below the minimum instance distance and
// silently breaks pruning (this was a live bug: a fresh insert with 7/8
// indoor instances was rejected by an unsound lower bound in ikNNQ).
func TestPartialMassBoundsSound(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := index.Build(b, nil, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	// Gaussian-sampled objects around random points: many straddle walls
	// and lose instances. Keep the ones that actually lost mass.
	partial := 0
	for i, q := range gen.QueryPoints(b, 60, 92) {
		o := object.SampleGaussian(rng, object.ID(i), q, 10, 8)
		if err := idx.InsertObject(o); err != nil {
			t.Fatal(err)
		}
		mass := 0.0
		for _, sub := range idx.Current().ObjectSubregions(o.ID) {
			mass += sub.Prob
		}
		if mass < 1-1e-9 && mass > 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Skip("no object lost mass; workload too tame to test conditioning")
	}
	t.Logf("%d objects with partial indexed mass", partial)

	s := idx.Current()
	for _, q := range gen.QueryPoints(b, 5, 93) {
		full, err := NewFull(s, q)
		if err != nil {
			t.Fatal(err)
		}
		anchor := s.NewSkelAnchor(q)
		for _, oid := range s.Objects().IDs() {
			o := s.Objects().Get(oid)
			d, exact := full.ExactDist(o)
			if !exact {
				t.Fatalf("full engine returned inexact distance for %d", oid)
			}
			bo := full.ObjectBounds(o, math.Inf(1))
			if bo.Lower > d+1e-9 {
				t.Fatalf("object %d: lower bound %g exceeds exact distance %g", oid, bo.Lower, d)
			}
			if bo.Upper < d-1e-9 {
				t.Fatalf("object %d: upper bound %g below exact distance %g", oid, bo.Upper, d)
			}
			if tlu := full.TLU(o); tlu < d-1e-9 {
				t.Fatalf("object %d: TLU %g below exact distance %g", oid, tlu, d)
			}
			// The geometric (skeleton) bound must also stay below the
			// conditional expectation — it feeds the filtering phase.
			if g := s.AnchorObjectMinSkel(anchor, oid); g > d+1e-9 {
				t.Fatalf("object %d: skeleton bound %g exceeds exact distance %g", oid, g, d)
			}
		}
		full.Close()
	}
}
