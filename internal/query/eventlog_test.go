package query

import (
	"fmt"
	"testing"

	"repro/internal/object"
)

// logEvents returns n distinct events numbered from next on.
func logEvents(next, n int) []SubEvent {
	evs := make([]SubEvent, n)
	for i := range evs {
		evs[i] = SubEvent{Sub: (next + i) % 7, Object: object.ID(next + i), Seq: uint64(next + i)}
	}
	return evs
}

// TestEventLogRingKeepsNewest drives about ten times a small cap through
// the event log, mostly in batches smaller than the cap with now and then
// one larger, draining now and then and shrinking, growing and lifting
// the cap on the way, and checks each drain against a model that keeps
// the concatenated stream's newest cap events: the exact events kept,
// their order, the overflow flag and the dropped count.
func TestEventLogRingKeepsNewest(t *testing.T) {
	const logCap = 16
	e := &Subscriptions{}
	e.EnableEventLog()
	e.SetEventLogCap(logCap)

	var model []SubEvent
	var modelOver bool
	var modelDropped uint64
	capNow := logCap
	next := 0
	check := func(step string) {
		t.Helper()
		got, over := e.DrainEvents()
		if over != modelOver {
			t.Fatalf("%s: overflow %v, want %v", step, over, modelOver)
		}
		if len(got) != len(model) {
			t.Fatalf("%s: drained %d events, want %d", step, len(got), len(model))
		}
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("%s: event %d is %+v, want %+v", step, i, got[i], model[i])
			}
		}
		if d := e.Stats().EventsDropped; d != modelDropped {
			t.Fatalf("%s: EventsDropped %d, want %d", step, d, modelDropped)
		}
		model, modelOver = nil, false
	}

	for round := 0; round < 48; round++ {
		size := round%6 + 1
		if round%13 == 12 {
			size = capNow + 2
		}
		evs := logEvents(next, size)
		next += size
		e.record(evs)
		model = append(model, evs...)
		if capNow > 0 && len(model) > capNow {
			modelDropped += uint64(len(model) - capNow)
			model = model[len(model)-capNow:]
			modelOver = true
		}
		switch round {
		case 10, 25, 38: // 25 and 38 record one batch larger than the cap
			check(fmt.Sprintf("round %d", round))
		case 15:
			capNow = logCap / 2 // shrinks at the next record
			e.SetEventLogCap(capNow)
		case 20:
			capNow = 2 * logCap
			e.SetEventLogCap(capNow)
		case 27:
			capNow = 0 // unbounded
			e.SetEventLogCap(capNow)
		case 30:
			capNow = logCap
			e.SetEventLogCap(capNow)
		}
	}
	check("end")
	if next < 10*logCap || modelDropped < 5*logCap {
		t.Fatalf("the workload recorded %d and dropped %d events; it must wrap the ring many times", next, modelDropped)
	}
}

// BenchmarkEventLogRecordFull records 20-event batches into a log already
// holding DefaultEventLogCap events, the steady state of a leader whose
// event consumer went away.
func BenchmarkEventLogRecordFull(b *testing.B) {
	e := &Subscriptions{}
	e.EnableEventLog()
	next := 0
	for next < DefaultEventLogCap {
		e.record(logEvents(next, 4096))
		next += 4096
	}
	batch := logEvents(next, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.record(batch)
	}
}
