package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, 0), Pt(2, 0), 4},
		{Pt(0, -3), Pt(0, 3), 6},
	}
	for _, c := range cases {
		if got := c.p.DistTo(c.q); math.Abs(got-c.want) > Eps {
			t.Errorf("DistTo(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
		}
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		return math.Abs(a.DistTo(b)-b.DistTo(a)) <= Eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		return a.DistTo(c) <= a.DistTo(b)+b.DistTo(c)+Eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSqDistMatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		d := a.DistTo(b)
		return math.Abs(a.SqDistTo(b)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointMid(t *testing.T) {
	m := Pt(0, 0).Mid(Pt(10, 4))
	if !m.Eq(Pt(5, 2)) {
		t.Errorf("Mid = %v, want (5,2)", m)
	}
}

func TestPoint3Dist(t *testing.T) {
	if d := Pt3(0, 0, 0).DistTo(Pt3(2, 3, 6)); math.Abs(d-7) > Eps {
		t.Errorf("3D dist = %g, want 7", d)
	}
}

// clamp maps arbitrary quick-generated floats into a building-scale range
// and scrubs NaN/Inf so geometric identities hold numerically.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}
