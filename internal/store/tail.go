package store

// Log tailing: the streaming read side of the WAL, built for replication.
// A Tailer walks the on-disk log generations record by record from a
// caller-chosen LSN, never blocking and never observing a partial write:
// it only parses up to the written horizon (WrittenLSN — advanced by the
// appender strictly after the file write returns) and validates every
// frame's CRC as a backstop. When the tailer drains the readable tail it
// returns empty and the caller parks on AppendNotify until the horizon
// moves. A generation pruned by compaction underneath a lagging tailer
// surfaces as ErrLogGap — the signal to resync from a fresh checkpoint
// (NewestCheckpoint) instead of replaying, which is the same contract a
// replica that missed arbitrary history follows.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/fsfault"
)

// ErrLogGap reports that the records after the requested LSN are no
// longer on disk (compaction pruned their generation): the reader cannot
// catch up by replay and must resync from a checkpoint.
var ErrLogGap = errors.New("store: log records pruned; resync from a checkpoint")

// WrittenLSN returns the readable horizon: the highest LSN whose record
// is fully written to the log files (a Tailer can return everything at or
// below it).
func (s *Store) WrittenLSN() uint64 { return s.w.WrittenLSN() }

// DurableLSN returns the highest LSN known fsynced — the leader-side
// durability horizon replication heartbeats advertise.
func (s *Store) DurableLSN() uint64 { return s.w.DurableLSN() }

// AppendNotify returns a channel that closes the next time the readable
// horizon advances (or the store closes). Re-arm by calling again; the
// pattern is: drain the tailer, snapshot the channel, drain once more,
// then wait.
func (s *Store) AppendNotify() <-chan struct{} { return s.w.Watch() }

// Closed reports whether the store has been closed.
func (s *Store) Closed() bool { return s.isClosed() }

// NewestCheckpoint returns the newest validating checkpoint file's raw
// bytes and the LSN it covers — the bootstrap payload a new replica
// receives before tailing from that LSN. The raw form is shipped (and
// decoded on the far side with DecodeSnapshot) so the transfer inherits
// the checkpoint's own CRC.
func (s *Store) NewestCheckpoint() ([]byte, uint64, error) {
	ckpts, _, err := generations(s.fs, s.dir)
	if err != nil {
		return nil, 0, err
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		raw, rerr := s.fs.ReadFile(ckptPath(s.dir, ckpts[i]))
		if rerr != nil {
			continue
		}
		d, derr := decodeSnapshot(raw)
		if derr != nil {
			continue
		}
		return raw, d.LSN, nil
	}
	return nil, 0, fmt.Errorf("store: no valid checkpoint in %s", s.dir)
}

// DecodeSnapshot decodes and validates checkpoint bytes produced by the
// store (a generation file, DB.Checkpoint output, or a NewestCheckpoint
// transfer).
func DecodeSnapshot(raw []byte) (Data, error) { return decodeSnapshot(raw) }

// CheckpointAtOrBelow returns the newest validating checkpoint covering
// at most lsn — the base state a historical AsOf(lsn) read replays
// forward from. When every retained checkpoint is newer than lsn the
// history below it has been compacted away and the read must fail
// (ErrLogGap), mirroring the replica-resync contract: the caller can
// never catch a pruned past by replay.
func (s *Store) CheckpointAtOrBelow(lsn uint64) (Data, error) {
	ckpts, _, err := generations(s.fs, s.dir)
	if err != nil {
		return Data{}, err
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		if ckpts[i] > lsn {
			continue
		}
		d, derr := readSnapshotFS(s.fs, ckptPath(s.dir, ckpts[i]))
		if derr != nil {
			continue
		}
		if d.LSN > lsn {
			// A checkpoint's generation number is its cut LSN, so this
			// should not happen; skip defensively rather than hand back a
			// base state ahead of the requested point.
			continue
		}
		return d, nil
	}
	if len(ckpts) > 0 {
		return Data{}, fmt.Errorf("store: no checkpoint at or below lsn %d: %w", lsn, ErrLogGap)
	}
	return Data{}, fmt.Errorf("store: no valid checkpoint in %s", s.dir)
}

// Tailer reads committed WAL records in LSN order from the store's
// directory, following generation rotations. It holds its own file
// descriptors, so a generation pruned while being read is still readable
// to its end; the gap only surfaces when the tailer tries to move past
// it. A Tailer is not safe for concurrent use; each consumer opens its
// own.
type Tailer struct {
	s     *Store
	f     fsfault.File
	gen   uint64
	off   int64
	after uint64 // newest LSN already yielded (or the tail's start)
}

// TailWAL opens a tailer positioned just after afterLSN: the first record
// it yields is the oldest on-disk record with a larger LSN. afterLSN is
// typically a checkpoint's LSN (bootstrap) or the last LSN a replica
// applied (reconnect). Returns ErrLogGap when that point of the log has
// been pruned.
func (s *Store) TailWAL(afterLSN uint64) (*Tailer, error) {
	_, wals, err := generations(s.fs, s.dir)
	if err != nil {
		return nil, err
	}
	// Generation g holds the records in (g, next-cut]: the one holding
	// afterLSN+1 is the largest generation at or below afterLSN.
	var gen uint64
	found := false
	for _, g := range wals {
		if g <= afterLSN {
			gen, found = g, true
		}
	}
	if !found {
		return nil, ErrLogGap
	}
	f, err := s.fs.Open(walPath(s.dir, gen))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrLogGap // pruned between the listing and the open
		}
		return nil, err
	}
	return &Tailer{s: s, f: f, gen: gen, after: afterLSN}, nil
}

// Next returns up to max committed records past the tailer's position
// (all of them when max <= 0). It never blocks: an empty, error-free
// return means the tailer is caught up with the written horizon — wait on
// Watch and call again. ErrLogGap means replay can no longer catch up.
func (t *Tailer) Next(max int) ([]Record, error) {
	if max <= 0 {
		max = int(^uint(0) >> 1)
	}
	var out []Record
	for len(out) < max {
		fr := io.NewSectionReader(t.f, t.off, math.MaxInt64-t.off)
		rec, err := ReadFrame(fr)
		switch {
		case endOfValid(err):
			// No complete valid frame here. In the active generation that
			// means we are caught up; in a finished one, that the
			// generation is exhausted and the stream continues in the
			// next file.
			if t.gen == t.s.w.Gen() {
				return out, nil
			}
			if err := t.advanceGen(); err != nil {
				return out, err
			}
			continue
		case err != nil:
			return out, err
		}
		if rec.LSN > t.s.w.WrittenLSN() {
			// Bytes from an in-flight flush that the appender has not
			// published yet; pretend not to have seen them.
			return out, nil
		}
		n, _ := fr.Seek(0, io.SeekCurrent)
		t.off += n
		if rec.LSN <= t.after {
			continue // stale re-log racing a rotation; already yielded
		}
		t.after = rec.LSN
		out = append(out, rec)
	}
	return out, nil
}

// Position returns the newest LSN the tailer has yielded.
func (t *Tailer) Position() uint64 { return t.after }

// Watch returns the store's append-notification channel (see
// AppendNotify).
func (t *Tailer) Watch() <-chan struct{} { return t.s.w.Watch() }

// Close releases the tailer's file descriptor.
func (t *Tailer) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// advanceGen moves the tailer to the next generation file on disk.
func (t *Tailer) advanceGen() error {
	_, wals, err := generations(t.s.fs, t.s.dir)
	if err != nil {
		return err
	}
	next := uint64(0)
	found := false
	for _, g := range wals {
		if g > t.gen && (!found || g < next) {
			next, found = g, true
		}
	}
	if !found {
		return ErrLogGap
	}
	f, err := t.s.fs.Open(walPath(t.s.dir, next))
	if err != nil {
		if os.IsNotExist(err) {
			return ErrLogGap
		}
		return err
	}
	t.f.Close()
	t.f, t.gen, t.off = f, next, 0
	return nil
}
