package query

import (
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// KSeedsForTest exposes kSeedsSelection to the package tests.
func (p *Processor) KSeedsForTest(q indoor.Position, k int) ([]index.UnitID, []object.ID, error) {
	return newExec(p.Pin(), q, p.opts).kSeedsSelection(k)
}
