package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock advances only when told to: by sleeping until a due time, or
// by an operation that takes a scripted amount of time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// runFake drives a stream whose every operation takes cost(i) of fake time.
func runFake(interval time.Duration, warm, window time.Duration, cost func(i int) time.Duration) *stream {
	clk := &fakeClock{now: epoch}
	s := &stream{name: "test", interval: interval}
	s.op = func(i int) opResult {
		clk.now = clk.now.Add(cost(i))
		return opResult{kind: opUpdate, moves: 32}
	}
	s.run(context.Background(), clk, epoch, epoch.Add(warm), epoch.Add(warm+window))
	return s
}

func TestOpenLoopOnSchedule(t *testing.T) {
	s := runFake(20*time.Millisecond, time.Second, 2*time.Second, func(int) time.Duration { return 5 * time.Millisecond })
	lat := s.rec.latMs[opUpdate]
	if len(lat) != 100 {
		t.Fatalf("recorded %d operations, want the 100 due inside the window", len(lat))
	}
	for i, l := range lat {
		if l != 5 {
			t.Fatalf("operation %d: latency %v ms, want 5", i, l)
		}
	}
	for i, l := range s.rec.lagMs {
		if l != 0 {
			t.Fatalf("operation %d: started %v ms late, want 0", i, l)
		}
	}
	if s.rec.attempted != 150 {
		t.Fatalf("attempted %d, want 150 (warm-up included)", s.rec.attempted)
	}
	if s.rec.done[opUpdate] != 100 || s.rec.moves != 3200 {
		t.Fatalf("completed %d operations / %d moves in the window, want 100 / 3200", s.rec.done[opUpdate], s.rec.moves)
	}
	if s.backlog != 0 || !s.keptUp(2*time.Second) {
		t.Fatalf("backlog %d on a stream that kept its schedule", s.backlog)
	}
	// 99 intervals of 20 ms between the first and the last completion.
	if got := s.rec.rate(32, opUpdate); got != 1600 {
		t.Fatalf("rate %v moves/s, want 1600", got)
	}
	if got := s.rec.rate(1, opIRQ); got != 0 {
		t.Fatalf("rate of a kind never run = %v, want 0", got)
	}
}

// A stall must be charged to every operation it delays: latency runs from
// the due time, not from the send.
func TestOpenLoopStallChargedFromDueTime(t *testing.T) {
	s := runFake(10*time.Millisecond, 0, time.Second, func(i int) time.Duration {
		if i == 10 {
			return 100 * time.Millisecond
		}
		return time.Millisecond
	})
	lat, lag := s.rec.latMs[opUpdate], s.rec.lagMs
	if lat[10] != 100 {
		t.Fatalf("stalled operation: %v ms, want 100", lat[10])
	}
	// Operation 11 was due at 110 ms, sent when the stall ended at 200 ms
	// and took 1 ms: 91 ms from its due time, 90 ms of it waiting to start.
	if lat[11] != 91 || lag[11] != 90 {
		t.Fatalf("operation behind the stall: latency %v ms lag %v ms, want 91 and 90", lat[11], lag[11])
	}
	// The queue drains at 1 ms per operation against 10 ms of schedule.
	if lat[30] != 1 || lag[30] != 0 {
		t.Fatalf("operation after the queue drained: latency %v ms lag %v ms, want 1 and 0", lat[30], lag[30])
	}
	if !s.keptUp(time.Second) {
		t.Fatalf("a drained stall reported as backlog %d", s.backlog)
	}
}

func TestOpenLoopBacklogDetected(t *testing.T) {
	// 30 ms of work every 20 ms: the queue grows by a third of the load.
	s := runFake(20*time.Millisecond, 0, 3*time.Second, func(int) time.Duration { return 30 * time.Millisecond })
	if s.offered(3*time.Second) != 150 {
		t.Fatalf("offered %d, want 150", s.offered(3*time.Second))
	}
	if got := s.rec.attempted; got != 100 {
		t.Fatalf("served %d operations in 3 s at 30 ms each, want 100", got)
	}
	if s.backlog != 50 {
		t.Fatalf("backlog %d, want the 50 operations never started", s.backlog)
	}
	if s.keptUp(3 * time.Second) {
		t.Fatal("a stream a third behind its schedule reported as keeping up")
	}
	lat := s.rec.latMs[opUpdate]
	if last := lat[len(lat)-1]; last != 30+10*99 {
		t.Fatalf("last latency %v ms, want %d: each operation waits 10 ms longer than the one before", last, 30+10*99)
	}
}

func TestClosedLoop(t *testing.T) {
	s := runFake(0, 100*time.Millisecond, time.Second, func(int) time.Duration { return 4 * time.Millisecond })
	if got := len(s.rec.latMs[opUpdate]); got != 250 {
		t.Fatalf("recorded %d operations, want 250 back to back", got)
	}
	if len(s.rec.lagMs) != 0 || s.backlog != 0 || !s.keptUp(time.Second) {
		t.Fatal("a closed loop has no schedule to fall behind")
	}
	if s.rec.done[opUpdate] != 250 {
		t.Fatalf("completed %d in the window, want 250", s.rec.done[opUpdate])
	}
}

func TestFailuresCountedNotTimed(t *testing.T) {
	clk := &fakeClock{now: epoch}
	s := &stream{name: "test", interval: 10 * time.Millisecond}
	s.op = func(i int) opResult {
		clk.now = clk.now.Add(time.Millisecond)
		if i%2 == 1 {
			return opResult{kind: opIRQ, err: errors.New("wire: /v1/query/range: 429 Too Many Requests: busy")}
		}
		return opResult{kind: opIRQ}
	}
	s.run(context.Background(), clk, epoch, epoch, epoch.Add(100*time.Millisecond))
	if s.rec.attempted != 10 || s.rec.failed != 5 || s.rec.refused != 5 {
		t.Fatalf("attempted %d failed %d refused %d, want 10, 5, 5", s.rec.attempted, s.rec.failed, s.rec.refused)
	}
	if len(s.rec.latMs[opIRQ]) != 5 {
		t.Fatalf("%d latencies, want only the 5 successes", len(s.rec.latMs[opIRQ]))
	}
	if s.rec.firstErr == nil {
		t.Fatal("first error not kept")
	}
}
