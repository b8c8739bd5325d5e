package geom

import "math"

// BisectorShape classifies the additive-weighted bisector between two doors
// per Table II of the paper.
type BisectorShape int

const (
	// BisectorLine: equal weights, the bisector is the perpendicular
	// bisector line of the two door midpoints.
	BisectorLine BisectorShape = iota
	// BisectorHyperbola: distinct weights smaller than the door-to-door
	// separation; the bisector is one branch of a hyperbola with the doors
	// as foci.
	BisectorHyperbola
	// BisectorNull: the weight gap is at least the door separation, so one
	// door dominates the whole plane and no bisector exists.
	BisectorNull
)

// String implements fmt.Stringer.
func (s BisectorShape) String() string {
	switch s {
	case BisectorLine:
		return "line"
	case BisectorHyperbola:
		return "hyperbola"
	case BisectorNull:
		return "null"
	}
	return "unknown"
}

// Bisector is the additive-weighted bisector b_ij between doors Di and Dj
// with accumulated indoor-path weights Wi = |q, di|I and Wj = |q, dj|I:
//
//	b_ij = { p : |p, Di|E + Wi = |p, Dj|E + Wj }       (Equation 5)
//
// The solution space of the single-partition multi-path distance is the
// additive-weighted Voronoi diagram of the partition's doors; bisectors are
// its cell boundaries. Query evaluation never needs the curve itself — only
// which side a point (or a whole rectangle) falls on, which Side and
// RectSide answer by direct comparison of the two weighted distances.
type Bisector struct {
	Di, Dj Point
	Wi, Wj float64
}

// Shape classifies the bisector per Table II. A weight gap equal to the
// focal distance (within Eps) degenerates to a ray and is reported as
// BisectorNull because one door weakly dominates everywhere.
func (b Bisector) Shape() BisectorShape {
	gap := math.Abs(b.Wi - b.Wj)
	sep := b.Di.DistTo(b.Dj)
	switch {
	case gap <= Eps:
		return BisectorLine
	case gap < sep-Eps:
		return BisectorHyperbola
	default:
		return BisectorNull
	}
}

// Side reports which weighted cell p belongs to: -1 when entering through
// Di is strictly cheaper, +1 when Dj is strictly cheaper, and 0 when p lies
// on the bisector (within Eps).
func (b Bisector) Side(p Point) int {
	d := (p.DistTo(b.Di) + b.Wi) - (p.DistTo(b.Dj) + b.Wj)
	switch {
	case d < -Eps:
		return -1
	case d > Eps:
		return 1
	default:
		return 0
	}
}

// RectSide reports a conservative side classification for every point of r:
// -1 when Di is cheaper everywhere in r, +1 when Dj is cheaper everywhere,
// and 0 when r may straddle the bisector. The test compares the best case of
// one door against the worst case of the other, so a nonzero answer is
// always correct while 0 may be a false alarm (resolved per instance by the
// caller).
func (b Bisector) RectSide(r Rect) int {
	if r.MaxDist(b.Di)+b.Wi <= r.MinDist(b.Dj)+b.Wj+Eps {
		return -1
	}
	if r.MaxDist(b.Dj)+b.Wj <= r.MinDist(b.Di)+b.Wi+Eps {
		return 1
	}
	return 0
}
