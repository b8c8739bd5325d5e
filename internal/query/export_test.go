package query

import (
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// KSeedsForTest exposes kSeedsSelection to the package tests.
func (p *Processor) KSeedsForTest(q indoor.Position, k int) ([]index.UnitID, []object.ID, error) {
	ex := &exec{s: p.Pin(), opts: p.opts}
	return ex.kSeedsSelection(q, k)
}
