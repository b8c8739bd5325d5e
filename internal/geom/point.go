// Package geom provides the planar and volumetric geometry substrate used by
// the indoor-space model, the indR-tree and the distance engine: points,
// axis-aligned rectangles in two and three dimensions, segments, rectilinear
// polygons with rectangle decomposition, and the additive-weighted bisectors
// of Table II of the paper.
//
// All coordinates are in metres. The package is purely computational and has
// no dependencies beyond the standard library's math package.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for geometric comparisons throughout the package.
// One tenth of a millimetre is far below any positioning accuracy considered
// by the paper (metres), and far above float64 noise at building scale.
const Eps = 1e-4

// Point is a planar point (x, y) in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// DistTo returns the Euclidean distance |p, q|E.
func (p Point) DistTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// SqDistTo returns the squared Euclidean distance, avoiding the square root
// when only comparisons are needed.
func (p Point) SqDistTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f about the origin.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Point3 is a point in three-dimensional Euclidean space. The z axis is the
// vertical dimension of a building.
type Point3 struct {
	X, Y, Z float64
}

// Pt3 is shorthand for Point3{x, y, z}.
func Pt3(x, y, z float64) Point3 { return Point3{X: x, Y: y, Z: z} }

// DistTo returns the three-dimensional Euclidean distance.
func (p Point3) DistTo(q Point3) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}
