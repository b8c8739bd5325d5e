// Package render draws floor plans as SVG: partitions, doors (with one-way
// arrows and closure marks), objects (uncertainty circles and instances),
// query points and ranges. It is a debugging and documentation aid — the
// examples and cmd/indoorsim can dump what a query saw.
package render

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Style selects the fill for a partition kind.
func fillFor(k indoor.Kind) string {
	switch k {
	case indoor.Hallway:
		return "#f3e8d4"
	case indoor.Staircase:
		return "#d4e3f3"
	}
	return "#ffffff"
}

// Options configures a rendering.
type Options struct {
	// Floor to draw; partitions not on this floor are skipped.
	Floor int
	// Scale in SVG units per metre; 2 when zero.
	Scale float64
	// Objects to draw (nil for none).
	Objects []*object.Object
	// Query, when non-nil, is drawn with its range circle.
	Query *indoor.Position
	Range float64
	// Highlight marks result objects by id.
	Highlight map[object.ID]bool
	// Units, when non-nil, overlays the decomposed index units of the
	// composite index (the tree tier's leaf rectangles).
	Units *index.Index
}

// SVG writes one floor of the building.
func SVG(w io.Writer, b *indoor.Building, opts Options) error {
	if opts.Scale == 0 {
		opts.Scale = 2
	}
	s := opts.Scale

	// Canvas bounds from the partitions on this floor.
	bounds := geom.EmptyRect
	var parts []*indoor.Partition
	for _, p := range b.Partitions() {
		if !p.OnFloor(opts.Floor) {
			continue
		}
		parts = append(parts, p)
		bounds = bounds.Union(p.Bounds())
	}
	if bounds.IsEmpty() {
		return fmt.Errorf("render: no partitions on floor %d", opts.Floor)
	}
	bounds = bounds.Expand(5)
	width := bounds.Width() * s
	height := bounds.Height() * s
	// SVG y grows downward; flip so north is up.
	tx := func(x float64) float64 { return (x - bounds.MinX) * s }
	ty := func(y float64) float64 { return (bounds.MaxY - y) * s }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(w, `<rect width="%.0f" height="%.0f" fill="#fafafa"/>`+"\n", width, height)

	// Partitions.
	for _, p := range parts {
		fmt.Fprintf(w, `<polygon points="`)
		for _, v := range p.Shape.V {
			fmt.Fprintf(w, "%.1f,%.1f ", tx(v.X), ty(v.Y))
		}
		fmt.Fprintf(w, `" fill="%s" stroke="#555" stroke-width="1"/>`+"\n", fillFor(p.Kind))
	}

	// Index-unit overlay.
	if opts.Units != nil {
		var units []*index.Unit
		opts.Units.Current().SearchTree(
			func(geom.Rect3) bool { return true },
			func(u *index.Unit) {
				if u.OnFloor(opts.Floor) {
					units = append(units, u)
				}
			},
		)
		sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })
		for _, u := range units {
			r := u.Rect
			fmt.Fprintf(w, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#bbb" stroke-width="0.5" stroke-dasharray="3,2"/>`+"\n",
				tx(r.MinX), ty(r.MaxY), r.Width()*s, r.Height()*s)
		}
	}

	// Doors.
	for _, d := range b.Doors() {
		if d.Floor != opts.Floor {
			continue
		}
		color := "#2a7d2a"
		if d.Closed {
			color = "#cc2222"
		}
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n",
			tx(d.Pos.X), ty(d.Pos.Y), color)
		if d.OneWay {
			// Arrow toward the To partition's centre.
			if to := b.Partition(d.To); to != nil {
				c := to.Bounds().Center()
				dir := c.Sub(d.Pos)
				l := d.Pos.DistTo(c)
				if l > 0 {
					tip := d.Pos.Add(dir.Scale(6 / s / l))
					fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1.5"/>`+"\n",
						tx(d.Pos.X), ty(d.Pos.Y), tx(tip.X), ty(tip.Y), color)
				}
			}
		}
	}

	// Objects.
	for _, o := range opts.Objects {
		if o.Floor() != opts.Floor {
			continue
		}
		stroke := "#4466cc"
		if opts.Highlight[o.ID] {
			stroke = "#cc44aa"
		}
		if o.Radius > 0 {
			fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="%s" stroke-width="0.7" opacity="0.6"/>`+"\n",
				tx(o.Center.Pt.X), ty(o.Center.Pt.Y), o.Radius*s, stroke)
		}
		for _, in := range o.Instances {
			fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="0.8" fill="%s" opacity="0.5"/>`+"\n",
				tx(in.Pos.Pt.X), ty(in.Pos.Pt.Y), stroke)
		}
	}

	// Query point and range.
	if opts.Query != nil && opts.Query.Floor == opts.Floor {
		q := *opts.Query
		if opts.Range > 0 {
			fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="#cc8800" stroke-width="1.2" stroke-dasharray="6,3"/>`+"\n",
				tx(q.Pt.X), ty(q.Pt.Y), opts.Range*s)
		}
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="4" fill="#cc8800"/>`+"\n",
			tx(q.Pt.X), ty(q.Pt.Y))
	}

	_, err := fmt.Fprintln(w, "</svg>")
	return err
}
