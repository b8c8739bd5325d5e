package geom

import (
	"fmt"
	"math"
)

// Rect is a planar axis-aligned rectangle. A Rect with MinX > MaxX or
// MinY > MaxY is empty; EmptyRect is the canonical empty value and the
// identity for Union.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect is the identity element for Union: Union(EmptyRect, r) == r.
var EmptyRect = Rect{
	MinX: math.Inf(1), MinY: math.Inf(1),
	MaxX: math.Inf(-1), MaxY: math.Inf(-1),
}

// R builds a rectangle from any two opposite corners.
func R(x1, y1, x2, y2 float64) Rect {
	return Rect{
		MinX: math.Min(x1, x2), MinY: math.Min(y1, y2),
		MaxX: math.Max(x1, x2), MaxY: math.Max(y1, y2),
	}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the extent along x (len(R1) in the paper's notation).
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent along y (len(R2)).
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of the rectangle; empty rectangles have area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Margin returns the half-perimeter, the R*-tree margin measure.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() + r.Height()
}

// Center returns the centre point of the rectangle.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Contains reports whether p lies inside the rectangle (boundary included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX-Eps && p.X <= r.MaxX+Eps &&
		p.Y >= r.MinY-Eps && p.Y <= r.MaxY+Eps
}

// ContainsRect reports whether s is entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX-Eps && s.MaxX <= r.MaxX+Eps &&
		s.MinY >= r.MinY-Eps && s.MaxY <= r.MaxY+Eps
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX+Eps && s.MinX <= r.MaxX+Eps &&
		r.MinY <= s.MaxY+Eps && s.MinY <= r.MaxY+Eps
}

// Intersection returns the common region of r and s, possibly empty.
func (r Rect) Intersection(s Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// MinDist returns the smallest Euclidean distance from p to any point of r
// (0 when p is inside). This is |p, R|minE in the paper's notation.
func (r Rect) MinDist(p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// MaxDist returns the largest Euclidean distance from p to any point of r,
// |p, R|maxE: the distance to the farthest corner.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

// MinDistRect returns the smallest Euclidean distance between any point of r
// and any point of s (0 when they intersect).
func (r Rect) MinDistRect(s Rect) float64 {
	dx := math.Max(0, math.Max(s.MinX-r.MaxX, r.MinX-s.MaxX))
	dy := math.Max(0, math.Max(s.MinY-r.MaxY, r.MinY-s.MaxY))
	return math.Hypot(dx, dy)
}

// AspectRatio returns the short-side/long-side ratio in (0, 1]. Degenerate
// rectangles report 0. Algorithm 3 splits units whose ratio falls below the
// Tshape threshold.
func (r Rect) AspectRatio() float64 {
	w, h := r.Width(), r.Height()
	long := math.Max(w, h)
	if long <= 0 {
		return 0
	}
	return math.Min(w, h) / long
}

// SplitX cuts the rectangle with the vertical line x and returns the left
// and right halves. x must lie strictly inside the rectangle.
func (r Rect) SplitX(x float64) (left, right Rect) {
	left, right = r, r
	left.MaxX, right.MinX = x, x
	return left, right
}

// SplitY cuts the rectangle with the horizontal line y and returns the
// bottom and top halves.
func (r Rect) SplitY(y float64) (bottom, top Rect) {
	bottom, top = r, r
	bottom.MaxY, top.MinY = y, y
	return bottom, top
}

// Corners returns the four corner points in counter-clockwise order starting
// at (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY},
		{r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

// ClosestPoint returns the point of r nearest to p (p itself if inside).
func (r Rect) ClosestPoint(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// SharedEdge returns the segment along which two touching, non-overlapping
// rectangles meet, and whether such a segment of positive length exists.
// It is used to place virtual doors between decomposed index units.
func (r Rect) SharedEdge(s Rect) (Segment, bool) {
	// Vertical contact: r's right edge against s's left edge or vice versa.
	for _, x := range []float64{r.MaxX, r.MinX} {
		if math.Abs(x-s.MinX) <= Eps || math.Abs(x-s.MaxX) <= Eps {
			lo := math.Max(r.MinY, s.MinY)
			hi := math.Min(r.MaxY, s.MaxY)
			if hi-lo > Eps {
				return Segment{Point{x, lo}, Point{x, hi}}, true
			}
		}
	}
	// Horizontal contact.
	for _, y := range []float64{r.MaxY, r.MinY} {
		if math.Abs(y-s.MinY) <= Eps || math.Abs(y-s.MaxY) <= Eps {
			lo := math.Max(r.MinX, s.MinX)
			hi := math.Min(r.MaxX, s.MaxX)
			if hi-lo > Eps {
				return Segment{Point{lo, y}, Point{hi, y}}, true
			}
		}
	}
	return Segment{}, false
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f - %.2f,%.2f]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}
