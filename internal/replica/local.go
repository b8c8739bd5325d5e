package replica

// LocalSource adapts an in-process store into a replication Source: the
// same tailing machinery the network daemon serves remotely, without the
// transport. Tests and benchmarks use it to exercise the full
// bootstrap/replay/gap/heartbeat protocol against a live leader in one
// process (and under the race detector).

import (
	"context"
	"errors"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// LocalSource streams a leader store's WAL from inside the process.
type LocalSource struct {
	st *store.Store
	// Heartbeat is the idle-stream heartbeat interval; 50ms when zero.
	hb time.Duration
}

// NewLocalSource returns a Source over an open store. heartbeat controls
// how often an idle stream advertises the leader's durable LSN (50ms
// when zero or negative).
func NewLocalSource(st *store.Store, heartbeat time.Duration) *LocalSource {
	if heartbeat <= 0 {
		heartbeat = 50 * time.Millisecond
	}
	return &LocalSource{st: st, hb: heartbeat}
}

// FetchCheckpoint returns the leader's newest checkpoint bytes and LSN.
func (s *LocalSource) FetchCheckpoint(ctx context.Context) ([]byte, uint64, error) {
	return s.st.NewestCheckpoint()
}

// streamBatchMax bounds records delivered per tailer poll, keeping
// heartbeat and cancellation latency bounded during bulk catch-up.
const streamBatchMax = 512

// StreamWAL follows the store's log from afterLSN, delivering records,
// periodic heartbeats, and a gap frame (then returning) when compaction
// has pruned the requested position. Returns nil when the store closes —
// the subscriber sees a clean end of stream, reconnects, and observes
// the closed store as a connection failure, exactly like the network
// path.
func (s *LocalSource) StreamWAL(ctx context.Context, afterLSN uint64, fn func(wire.Frame) error) error {
	tl, err := s.st.TailWAL(afterLSN)
	if errors.Is(err, store.ErrLogGap) {
		return fn(wire.Frame{Kind: wire.GapKind, LSN: s.st.DurableLSN()})
	}
	if err != nil {
		return err
	}
	defer tl.Close()
	tick := time.NewTicker(s.hb)
	defer tick.Stop()
	if err := fn(wire.Heartbeat(s.st.DurableLSN())); err != nil {
		return err
	}
	// watch is armed (non-nil) once a poll came up short; the next poll is
	// then the re-check that runs after arming and before sleeping, so a
	// record appended between the drain and the arm never waits a
	// heartbeat.
	var watch <-chan struct{}
	for {
		recs, err := tl.Next(streamBatchMax)
		for _, rec := range recs {
			if ferr := fn(wire.Frame{Kind: rec.Kind, LSN: rec.LSN, Body: rec.Body}); ferr != nil {
				return ferr
			}
		}
		if errors.Is(err, store.ErrLogGap) {
			return fn(wire.Frame{Kind: wire.GapKind, LSN: s.st.DurableLSN()})
		}
		if err != nil {
			return err
		}
		switch {
		case len(recs) == streamBatchMax || (watch != nil && len(recs) > 0):
			watch = nil // more may be waiting; drain before arming again
			continue
		case watch == nil:
			watch = tl.Watch()
			continue
		}
		if s.st.Closed() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-watch:
		case <-tick.C:
			if err := fn(wire.Heartbeat(s.st.DurableLSN())); err != nil {
				return err
			}
		}
		watch = nil
	}
}
