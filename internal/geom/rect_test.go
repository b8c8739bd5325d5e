package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randRect(rng *rand.Rand) Rect {
	return R(rng.Float64()*600, rng.Float64()*600, rng.Float64()*600, rng.Float64()*600)
}

func randPoint(rng *rand.Rand) Point {
	return Pt(rng.Float64()*600, rng.Float64()*600)
}

func TestRectBasics(t *testing.T) {
	r := R(10, 20, 30, 60)
	if r.Width() != 20 || r.Height() != 40 {
		t.Fatalf("width/height = %g/%g, want 20/40", r.Width(), r.Height())
	}
	if r.Area() != 800 {
		t.Errorf("area = %g, want 800", r.Area())
	}
	if !r.Center().Eq(Pt(20, 40)) {
		t.Errorf("center = %v, want (20,40)", r.Center())
	}
	if got := r.AspectRatio(); math.Abs(got-0.5) > Eps {
		t.Errorf("aspect = %g, want 0.5", got)
	}
}

func TestRectFromSwappedCorners(t *testing.T) {
	r := R(30, 60, 10, 20)
	if r != (Rect{10, 20, 30, 60}) {
		t.Errorf("R with swapped corners = %+v", r)
	}
}

func TestEmptyRect(t *testing.T) {
	if !EmptyRect.IsEmpty() {
		t.Fatal("EmptyRect must be empty")
	}
	if EmptyRect.Area() != 0 {
		t.Error("empty rect must have zero area")
	}
	r := R(1, 2, 3, 4)
	if EmptyRect.Union(r) != r || r.Union(EmptyRect) != r {
		t.Error("EmptyRect must be the Union identity")
	}
	if EmptyRect.Intersects(r) || r.Intersects(EmptyRect) {
		t.Error("EmptyRect intersects nothing")
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 7)} {
		if !r.Contains(p) {
			t.Errorf("expected %v inside %v", p, r)
		}
	}
	for _, p := range []Point{Pt(-1, 5), Pt(11, 5), Pt(5, -1), Pt(5, 10.5)} {
		if r.Contains(p) {
			t.Errorf("expected %v outside %v", p, r)
		}
	}
}

func TestRectIntersection(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersection(b)
	if got != (Rect{5, 5, 10, 10}) {
		t.Errorf("intersection = %v", got)
	}
	c := R(20, 20, 30, 30)
	if !a.Intersection(c).IsEmpty() {
		t.Errorf("disjoint intersection should be empty, got %v", a.Intersection(c))
	}
}

func TestRectMinMaxDist(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		p        Point
		min, max float64
	}{
		{Pt(5, 5), 0, math.Hypot(5, 5)},
		{Pt(-3, 5), 3, math.Hypot(13, 5)},
		{Pt(13, 14), 5, math.Hypot(13, 14)},
		{Pt(0, 0), 0, math.Hypot(10, 10)},
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.min) > Eps {
			t.Errorf("MinDist(%v) = %g, want %g", c.p, got, c.min)
		}
		if got := r.MaxDist(c.p); math.Abs(got-c.max) > Eps {
			t.Errorf("MaxDist(%v) = %g, want %g", c.p, got, c.max)
		}
	}
}

// TestRectMinDistMatchesHypot pins MinDist bit for bit to its plain
// math.Max/math.Hypot form, on random inputs and on edge inputs: inside,
// on an edge, on an axis line, ±0, ±Inf and NaN.
func TestRectMinDistMatchesHypot(t *testing.T) {
	ref := func(r Rect, p Point) float64 {
		dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
		dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
		return math.Hypot(dx, dy)
	}
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	type tc struct {
		r Rect
		p Point
	}
	cases := []tc{
		{R(0, 0, 10, 10), Pt(5, 5)},                    // inside
		{R(0, 0, 10, 10), Pt(10, 5)},                   // on an edge
		{R(0, 0, 10, 10), Pt(0, 0)},                    // on a corner
		{R(0, 0, 10, 10), Pt(5, 17)},                   // on the x axis line
		{R(0, 0, 10, 10), Pt(-3, 5)},                   // on the y axis line
		{R(0, 0, 10, 10), Pt(13, 14)},                  // diagonal
		{R(negZero, negZero, 0, 0), Pt(0, negZero)},    // ±0
		{R(0, 0, negZero, negZero), Pt(negZero, 0)},    // ±0, inverted
		{R(negZero, 0, 5, 5), Pt(negZero, negZero)},    // -0 point on a -0 edge
		{Rect{0, negZero, negZero, 0}, Pt(negZero, 0)}, // ±0 degenerate box
		{R(0, 0, 10, 10), Pt(inf, 5)},                  // +Inf on one leg
		{R(0, 0, 10, 10), Pt(5, -inf)},                 // -Inf on the other
		{R(0, 0, 10, 10), Pt(inf, -inf)},               // both infinite
		{R(-inf, -inf, inf, inf), Pt(3, 4)},            // unbounded box
		{R(-inf, 0, 10, 10), Pt(-inf, 20)},             // Inf - Inf is NaN
		{R(0, 0, 10, 10), Pt(math.NaN(), 5)},           // NaN
		{R(0, 0, 10, 10), Pt(math.NaN(), math.NaN())},  // NaN on both legs
		{R(0, 0, 10, 10), Pt(math.MaxFloat64, 1e-300)}, // extremes
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 20000; i++ {
		c := tc{randRect(rng), randPoint(rng)}
		switch i % 4 { // snap to the rect's lines so one leg is zero
		case 1:
			c.p.X = c.r.MinX
		case 2:
			c.p.Y = c.r.MaxY
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		got, want := c.r.MinDist(c.p), ref(c.r, c.p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MinDist(%v, %v) = %g (%016x), reference %g (%016x)",
				c.r, c.p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// Property: MinDist lower-bounds and MaxDist upper-bounds the distance to
// any point inside the rectangle.
func TestRectDistBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		r := randRect(rng)
		if r.Width() <= Eps || r.Height() <= Eps {
			continue
		}
		p := randPoint(rng)
		inside := Pt(
			r.MinX+rng.Float64()*r.Width(),
			r.MinY+rng.Float64()*r.Height(),
		)
		d := p.DistTo(inside)
		if d < r.MinDist(p)-Eps {
			t.Fatalf("MinDist violated: d=%g < min=%g (r=%v p=%v)", d, r.MinDist(p), r, p)
		}
		if d > r.MaxDist(p)+Eps {
			t.Fatalf("MaxDist violated: d=%g > max=%g (r=%v p=%v)", d, r.MaxDist(p), r, p)
		}
	}
}

func TestRectMinDistRect(t *testing.T) {
	a := R(0, 0, 10, 10)
	if d := a.MinDistRect(R(5, 5, 20, 20)); d != 0 {
		t.Errorf("overlapping rects min dist = %g, want 0", d)
	}
	if d := a.MinDistRect(R(13, 0, 20, 10)); math.Abs(d-3) > Eps {
		t.Errorf("side-by-side min dist = %g, want 3", d)
	}
	if d := a.MinDistRect(R(13, 14, 20, 20)); math.Abs(d-5) > Eps {
		t.Errorf("diagonal min dist = %g, want 5", d)
	}
}

func TestRectUnionCommutativeMonotone(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		r1 := R(clamp(a), clamp(b), clamp(c), clamp(d))
		r2 := R(clamp(e), clamp(g), clamp(h), clamp(i))
		u := r1.Union(r2)
		return u == r2.Union(r1) && u.ContainsRect(r1) && u.ContainsRect(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectSplit(t *testing.T) {
	r := R(0, 0, 10, 4)
	l, rt := r.SplitX(6)
	if l != (Rect{0, 0, 6, 4}) || rt != (Rect{6, 0, 10, 4}) {
		t.Errorf("SplitX: %v / %v", l, rt)
	}
	if math.Abs(l.Area()+rt.Area()-r.Area()) > Eps {
		t.Error("SplitX must preserve area")
	}
	b, tp := r.SplitY(1)
	if math.Abs(b.Area()+tp.Area()-r.Area()) > Eps {
		t.Error("SplitY must preserve area")
	}
}

func TestSharedEdge(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(10, 2, 20, 8) // touches a's right edge on y in [2,8]
	s, ok := a.SharedEdge(b)
	if !ok {
		t.Fatal("expected shared edge")
	}
	if !s.Vertical() || math.Abs(s.Length()-6) > Eps {
		t.Errorf("shared edge = %+v, want vertical length 6", s)
	}
	if !s.Mid().Eq(Pt(10, 5)) {
		t.Errorf("shared edge midpoint = %v, want (10,5)", s.Mid())
	}

	c := R(3, 10, 7, 20) // touches a's top edge
	s2, ok := a.SharedEdge(c)
	if !ok || !s2.Horizontal() || math.Abs(s2.Length()-4) > Eps {
		t.Errorf("horizontal shared edge = %+v ok=%v", s2, ok)
	}

	if _, ok := a.SharedEdge(R(30, 30, 40, 40)); ok {
		t.Error("disjoint rects must not share an edge")
	}
	if _, ok := a.SharedEdge(R(10, 10, 20, 20)); ok {
		t.Error("corner-touching rects share only a point, not an edge")
	}
}

func TestRect3UnionContains(t *testing.T) {
	a := R3(R(0, 0, 10, 10), 0, 0.01)
	b := R3(R(5, 5, 20, 20), 4, 4.01)
	u := a.Union3(b)
	if u.Union3(a) != u || u.Union3(b) != u {
		t.Error("union must contain both boxes")
	}
	if u.MinZ != 0 || u.MaxZ != 4.01 {
		t.Errorf("union z-range = [%g,%g]", u.MinZ, u.MaxZ)
	}
	if EmptyRect3.Union3(a) != a {
		t.Error("EmptyRect3 must be Union3 identity")
	}
}

func TestRect3MinDist(t *testing.T) {
	b := R3(R(0, 0, 10, 10), 0, 0)
	if d := b.MinDist3(Pt3(5, 5, 4)); math.Abs(d-4) > Eps {
		t.Errorf("MinDist3 above box = %g, want 4", d)
	}
	if d := b.MinDist3(Pt3(13, 14, 0)); math.Abs(d-5) > Eps {
		t.Errorf("MinDist3 planar = %g, want 5", d)
	}
}

func TestRect3Intersects(t *testing.T) {
	a := R3(R(0, 0, 10, 10), 0, 1)
	if !a.Intersects3(R3(R(5, 5, 20, 20), 0.5, 2)) {
		t.Error("expected intersection")
	}
	if a.Intersects3(R3(R(5, 5, 20, 20), 4, 5)) {
		t.Error("z-disjoint boxes must not intersect")
	}
}

func TestSegmentDistTo(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if d := s.DistTo(Pt(5, 3)); math.Abs(d-3) > Eps {
		t.Errorf("mid distance = %g, want 3", d)
	}
	if d := s.DistTo(Pt(-3, 4)); math.Abs(d-5) > Eps {
		t.Errorf("endpoint distance = %g, want 5", d)
	}
	deg := Segment{Pt(1, 1), Pt(1, 1)}
	if d := deg.DistTo(Pt(4, 5)); math.Abs(d-5) > Eps {
		t.Errorf("degenerate segment distance = %g, want 5", d)
	}
}
