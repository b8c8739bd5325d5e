package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Table II of the paper: shape of the weighted bisector b_ij.
func TestBisectorShapeTableII(t *testing.T) {
	di, dj := Pt(0, 0), Pt(10, 0) // separation 10
	cases := []struct {
		wi, wj float64
		want   BisectorShape
	}{
		{0, 0, BisectorLine},      // equal weights
		{5, 5, BisectorLine},      // equal nonzero weights
		{3, 7, BisectorHyperbola}, // gap 4 < 10
		{7, 3, BisectorHyperbola}, // symmetric
		{0, 9.99, BisectorHyperbola},
		{0, 10, BisectorNull}, // gap == separation: degenerate ray
		{0, 25, BisectorNull}, // dj unreachable competitively
		{25, 0, BisectorNull},
	}
	for _, c := range cases {
		b := Bisector{Di: di, Dj: dj, Wi: c.wi, Wj: c.wj}
		if got := b.Shape(); got != c.want {
			t.Errorf("Shape(w=%g,%g) = %v, want %v", c.wi, c.wj, got, c.want)
		}
	}
}

// Side must agree with direct evaluation of the weighted distances.
func TestBisectorSideMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		b := Bisector{
			Di: randPoint(rng), Dj: randPoint(rng),
			Wi: rng.Float64() * 200, Wj: rng.Float64() * 200,
		}
		p := randPoint(rng)
		lhs := p.DistTo(b.Di) + b.Wi
		rhs := p.DistTo(b.Dj) + b.Wj
		side := b.Side(p)
		switch {
		case lhs < rhs-Eps && side != -1:
			t.Fatalf("Side=%d, want -1 (lhs=%g rhs=%g)", side, lhs, rhs)
		case lhs > rhs+Eps && side != 1:
			t.Fatalf("Side=%d, want 1 (lhs=%g rhs=%g)", side, lhs, rhs)
		}
	}
}

// Points on the line bisector (equal weights, perpendicular bisector) must
// report side 0.
func TestBisectorOnCurve(t *testing.T) {
	b := Bisector{Di: Pt(0, 0), Dj: Pt(10, 0), Wi: 4, Wj: 4}
	for _, y := range []float64{-20, -1, 0, 3, 50} {
		if s := b.Side(Pt(5, y)); s != 0 {
			t.Errorf("point (5,%g) on perpendicular bisector reported side %d", y, s)
		}
	}
}

// Hyperbola vertex: the point on the focal axis where weighted distances
// balance. For Di=(0,0) w=0, Dj=(10,0) w=4 the vertex solves
// x = (10-x)+4 -> x = 7.
func TestBisectorHyperbolaVertex(t *testing.T) {
	b := Bisector{Di: Pt(0, 0), Dj: Pt(10, 0), Wi: 0, Wj: 4}
	if b.Shape() != BisectorHyperbola {
		t.Fatalf("shape = %v", b.Shape())
	}
	if s := b.Side(Pt(7, 0)); s != 0 {
		t.Errorf("hyperbola vertex reported side %d", s)
	}
	if s := b.Side(Pt(6, 0)); s != -1 {
		t.Errorf("point nearer Di reported side %d", s)
	}
	if s := b.Side(Pt(8, 0)); s != 1 {
		t.Errorf("point nearer Dj reported side %d", s)
	}
}

// RectSide must be conservative: a nonzero verdict implies every sampled
// point of the rectangle agrees.
func TestBisectorRectSideConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1500; i++ {
		b := Bisector{
			Di: randPoint(rng), Dj: randPoint(rng),
			Wi: rng.Float64() * 100, Wj: rng.Float64() * 100,
		}
		r := randRect(rng)
		verdict := b.RectSide(r)
		if verdict == 0 {
			continue
		}
		for k := 0; k < 50; k++ {
			p := Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
			if s := b.Side(p); s != 0 && s != verdict {
				t.Fatalf("RectSide=%d but point %v has side %d (b=%+v r=%v)",
					verdict, p, s, b, r)
			}
		}
	}
}

// A null bisector must yield a RectSide verdict consistent with Dominant for
// rectangles, provided the gap strictly exceeds separation + rect spread.
func TestBisectorNullDominatesRect(t *testing.T) {
	b := Bisector{Di: Pt(0, 0), Dj: Pt(10, 0), Wi: 0, Wj: 1000}
	r := R(200, 200, 210, 210)
	if got := b.RectSide(r); got != -1 {
		t.Errorf("RectSide = %d, want -1 for overwhelming Di advantage", got)
	}
}

func TestBisectorShapeString(t *testing.T) {
	if BisectorLine.String() != "line" ||
		BisectorHyperbola.String() != "hyperbola" ||
		BisectorNull.String() != "null" {
		t.Error("unexpected BisectorShape strings")
	}
	if BisectorShape(99).String() != "unknown" {
		t.Error("out-of-range shape should stringify as unknown")
	}
}

// The continuity property behind Table II: as the weight gap crosses the
// focal separation, the winning region of the disadvantaged door vanishes.
func TestBisectorRegionVanishes(t *testing.T) {
	di, dj := Pt(0, 0), Pt(10, 0)
	rng := rand.New(rand.NewSource(5))
	wins := func(gap float64) int {
		b := Bisector{Di: di, Dj: dj, Wi: gap, Wj: 0}
		n := 0
		for i := 0; i < 3000; i++ {
			p := Pt(rng.Float64()*60-25, rng.Float64()*60-30)
			if b.Side(p) == -1 {
				n++
			}
		}
		return n
	}
	if n := wins(0); n == 0 {
		t.Error("equal weights: Di must win somewhere")
	}
	if n := wins(11); n != 0 {
		t.Errorf("gap > separation: Di must win nowhere, won %d samples", n)
	}
	if math.Abs(float64(wins(2))) == 0 {
		t.Error("hyperbola case: Di region must be nonempty")
	}
}
