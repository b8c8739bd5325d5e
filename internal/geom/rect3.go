package geom

import (
	"fmt"
	"math"
)

// Rect3 is an axis-aligned box in three dimensions: a planar rectangle plus
// a vertical range [MinZ, MaxZ]. The indR-tree stores every index unit as a
// Rect3 whose vertical extent is the 1 cm sliver described in §III-A.2 of
// the paper; query-time distances neglect the sliver.
type Rect3 struct {
	Rect
	MinZ, MaxZ float64
}

// EmptyRect3 is the identity element for Union3.
var EmptyRect3 = Rect3{Rect: EmptyRect, MinZ: math.Inf(1), MaxZ: math.Inf(-1)}

// R3 builds a box from a planar rectangle and a vertical range.
func R3(r Rect, zmin, zmax float64) Rect3 {
	return Rect3{Rect: r, MinZ: math.Min(zmin, zmax), MaxZ: math.Max(zmin, zmax)}
}

// IsEmpty reports whether the box contains no points.
func (b Rect3) IsEmpty() bool { return b.Rect.IsEmpty() || b.MinZ > b.MaxZ }

// Union3 returns the smallest box covering both b and c.
func (b Rect3) Union3(c Rect3) Rect3 {
	if b.IsEmpty() {
		return c
	}
	if c.IsEmpty() {
		return b
	}
	return Rect3{
		Rect: b.Rect.Union(c.Rect),
		MinZ: math.Min(b.MinZ, c.MinZ),
		MaxZ: math.Max(b.MaxZ, c.MaxZ),
	}
}

// Intersects3 reports whether the boxes share at least one point.
func (b Rect3) Intersects3(c Rect3) bool {
	return b.Rect.Intersects(c.Rect) && b.MinZ <= c.MaxZ+Eps && c.MinZ <= b.MaxZ+Eps
}

// Center3 returns the centre of the box.
func (b Rect3) Center3() Point3 {
	c := b.Rect.Center()
	return Point3{c.X, c.Y, (b.MinZ + b.MaxZ) / 2}
}

// MinDist3 returns the smallest 3D Euclidean distance from p to the box.
func (b Rect3) MinDist3(p Point3) float64 {
	dx := math.Max(0, math.Max(b.MinX-p.X, p.X-b.MaxX))
	dy := math.Max(0, math.Max(b.MinY-p.Y, p.Y-b.MaxY))
	dz := math.Max(0, math.Max(b.MinZ-p.Z, p.Z-b.MaxZ))
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// String implements fmt.Stringer.
func (b Rect3) String() string {
	return fmt.Sprintf("%v z[%.2f,%.2f]", b.Rect, b.MinZ, b.MaxZ)
}
