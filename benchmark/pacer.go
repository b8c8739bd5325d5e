package main

import (
	"context"
	"fmt"
	"time"
)

// clock is what a stream needs from time; tests substitute a fake so the
// due-time accounting is checked without wall-clock assertions.
type clock interface {
	Now() time.Time
	// SleepUntil returns at t, or earlier if ctx ends.
	SleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

// opKind indexes the latency samples a stream records.
type opKind int

const (
	opIRQ opKind = iota
	opKNN
	opUpdate
	opTopo
	numKinds
)

// opResult is what one operation reports back to its stream.
type opResult struct {
	kind opKind
	err  error
	// moves is the number of object moves the operation acknowledged.
	moves int
}

// recorder holds one stream's measured-window samples. Each stream owns
// its recorder, so recording takes no lock; recorders merge after the run.
type recorder struct {
	latMs [numKinds][]float64
	// done counts the operations completed inside the window, between
	// firstDone and lastDone.
	done                [numKinds]int
	firstDone, lastDone [numKinds]time.Time
	lagMs               []float64 // open-loop streams: start minus due time
	attempted           int
	failed              int
	refused             int // HTTP 429 among the failures
	moves               int
	firstErr            error
}

func (r *recorder) merge(o *recorder) {
	for k := range r.latMs {
		r.latMs[k] = append(r.latMs[k], o.latMs[k]...)
		if o.done[k] == 0 {
			continue
		}
		if r.done[k] == 0 || o.firstDone[k].Before(r.firstDone[k]) {
			r.firstDone[k] = o.firstDone[k]
		}
		if o.lastDone[k].After(r.lastDone[k]) {
			r.lastDone[k] = o.lastDone[k]
		}
		r.done[k] += o.done[k]
	}
	r.lagMs = append(r.lagMs, o.lagMs...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.refused += o.refused
	r.moves += o.moves
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// stream is one sequential client on a connection of its own: it issues
// operation i when it is due (immediately after the previous one in a
// closed loop) and at most one of its operations is in flight. interval 0
// makes the loop closed.
//
// In an open loop an operation's latency runs from the instant it was DUE,
// not from when it was sent: a stall delays every later operation and each
// of them is charged the wait, which is what a user arriving on schedule
// would have seen.
type stream struct {
	name     string
	interval time.Duration
	op       func(i int) opResult
	rec      recorder
	// backlog is the number of operations that were due before the window
	// closed and had not been started by then: a growing queue.
	backlog int
}

// due returns when operation i of an open-loop stream is scheduled.
func (s *stream) due(start time.Time, i int) time.Time {
	return start.Add(time.Duration(i) * s.interval)
}

// run drives the stream from start to end. Every operation sent counts as
// attempted (and failed, if it failed). Latencies are recorded for
// operations due at or after warmEnd; throughput counts operations that
// COMPLETED inside the window, so a reply that arrives after the window
// closed is not credited to it.
func (s *stream) run(ctx context.Context, clk clock, start, warmEnd, end time.Time) {
	for i := 0; ctx.Err() == nil; i++ {
		now := clk.Now()
		due := now
		if s.interval > 0 {
			due = s.due(start, i)
		}
		if !due.Before(end) {
			return
		}
		if !now.Before(end) {
			// The window closed with operations still queued.
			s.backlog = int((end.Sub(due) + s.interval - 1) / s.interval)
			return
		}
		clk.SleepUntil(ctx, due)
		if ctx.Err() != nil {
			return
		}
		sent := clk.Now()
		res := s.op(i)
		done := clk.Now()
		s.rec.attempted++
		if res.err != nil {
			s.rec.failed++
			if isRefused(res.err) {
				s.rec.refused++
			}
			if s.rec.firstErr == nil {
				s.rec.firstErr = fmt.Errorf("%s operation %d: %w", s.name, i, res.err)
			}
			continue
		}
		if !done.Before(warmEnd) && done.Before(end) {
			if s.rec.done[res.kind] == 0 {
				s.rec.firstDone[res.kind] = done
			}
			s.rec.lastDone[res.kind] = done
			s.rec.done[res.kind]++
			s.rec.moves += res.moves
		}
		if due.Before(warmEnd) {
			continue
		}
		from := sent
		if s.interval > 0 {
			from = due
			s.rec.lagMs = append(s.rec.lagMs, ms(sent.Sub(due)))
		}
		s.rec.latMs[res.kind] = append(s.rec.latMs[res.kind], ms(done.Sub(from)))
	}
}

// offered is the number of operations an open-loop stream schedules in a
// window of the given length.
func (s *stream) offered(window time.Duration) int {
	if s.interval <= 0 {
		return 0
	}
	return int(window / s.interval)
}

// keptUp reports whether an open-loop stream served the load offered over
// the window: the queue left when the window closed is no more than a
// couple of operations (one slow reply at the very end) or 2% of the
// offered load. A closed loop always keeps up.
func (s *stream) keptUp(window time.Duration) bool {
	return s.backlog <= max(2, s.offered(window)/50)
}

// rate is the measured completion rate of the given kinds: the intervals
// between the first and the last completion inside the window, over the
// time they took. Unlike a count over the nominal window it does not
// credit the idle edges of the window to the system.
func (r *recorder) rate(perOp float64, kinds ...opKind) float64 {
	n := 0
	var first, last time.Time
	for _, k := range kinds {
		if r.done[k] == 0 {
			continue
		}
		if n == 0 || r.firstDone[k].Before(first) {
			first = r.firstDone[k]
		}
		if r.lastDone[k].After(last) {
			last = r.lastDone[k]
		}
		n += r.done[k]
	}
	if n < 2 || !last.After(first) {
		return 0
	}
	return perOp * float64(n-1) / last.Sub(first).Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
