package store

// Tests for the WAL tailing/streaming API: LSN-ordered reads across
// generation rotations, the written/durable horizons, the append watch
// channel, pruning → ErrLogGap, and State.Apply replay through a tailer
// reproducing the leader's state.

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// tailStore creates a fresh durable store over the standard test index;
// the flusher wakes on each append, so tails observe appends quickly.
func tailStore(t *testing.T) (*Store, *index.Index, *indoor.Building, string) {
	t.Helper()
	dir := t.TempDir()
	idx, b := testIndex(t)
	s, err := Create(dir, idx, nil, Options{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, idx, b, dir
}

// drainTail pulls records until the tailer has caught up with the written
// horizon covering wantLSN, waiting on the watch channel in between.
func drainTail(t *testing.T, tl *Tailer, wantLSN uint64) []Record {
	t.Helper()
	var out []Record
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, err := tl.Next(0)
		if err != nil {
			t.Fatalf("tail next: %v", err)
		}
		out = append(out, recs...)
		if tl.Position() >= wantLSN {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("tail stuck at lsn %d waiting for %d", tl.Position(), wantLSN)
		}
		w := tl.Watch()
		if recs2, err := tl.Next(0); err != nil {
			t.Fatal(err)
		} else if len(recs2) > 0 {
			out = append(out, recs2...)
			continue
		}
		select {
		case <-w:
		case <-time.After(time.Second):
		}
	}
}

func TestTailReadsAppendsInOrder(t *testing.T) {
	s, idx, _, _ := tailStore(t)
	tl, err := s.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	const n = 25
	for i := 0; i < n; i++ {
		o := object.PointObject(object.ID(100+i), indoor.Position{Pt: geom.Pt(5, 5), Floor: 0})
		if err := idx.InsertObject(o); err != nil {
			t.Fatal(err)
		}
	}
	recs := drainTail(t, tl, uint64(n))
	if len(recs) != n {
		t.Fatalf("tailed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d, want %d", i, r.LSN, i+1)
		}
		if r.Kind != recObjects {
			t.Fatalf("record %d kind %d, want %d", i, r.Kind, recObjects)
		}
	}
	// Caught up: an immediate Next is empty without blocking.
	more, err := tl.Next(0)
	if err != nil || len(more) != 0 {
		t.Fatalf("caught-up Next = %d recs, %v; want 0, nil", len(more), err)
	}
}

func TestTailFollowsRotation(t *testing.T) {
	s, idx, _, _ := tailStore(t)
	tl, err := s.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	mv := func(i int) {
		t.Helper()
		o := object.PointObject(0, indoor.Position{Pt: geom.Pt(float64(1+i%15), 5), Floor: 0})
		if err := idx.MoveObject(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		mv(i)
	}
	// Rotate WITHOUT pruning (no CommitCheckpoint): the tailer must walk
	// from the finished generation into the new one.
	idx.RLock()
	cut, err := s.BeginCheckpoint()
	idx.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 10 {
		t.Fatalf("cut lsn = %d, want 10", cut)
	}
	for i := 0; i < 7; i++ {
		mv(i)
	}
	recs := drainTail(t, tl, 17)
	if len(recs) != 17 {
		t.Fatalf("tailed %d records across rotation, want 17", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d lsn %d, want %d — rotation broke ordering", i, r.LSN, i+1)
		}
	}
}

func TestTailGapAfterPrune(t *testing.T) {
	s, idx, _, _ := tailStore(t)
	for i := 0; i < 5; i++ {
		o := object.PointObject(0, indoor.Position{Pt: geom.Pt(float64(2+i), 5), Floor: 0})
		if err := idx.MoveObject(o); err != nil {
			t.Fatal(err)
		}
	}
	// Full compaction: checkpoint at the cut, older generations pruned.
	idx.RLock()
	cut, err := s.BeginCheckpoint()
	if err == nil {
		var data Data
		data, err = Capture(idx, nil, cut)
		idx.RUnlock()
		if err == nil {
			err = s.CommitCheckpoint(data)
		}
	} else {
		idx.RUnlock()
	}
	if err != nil {
		t.Fatal(err)
	}

	// Tailing from before the prune point cannot replay.
	if _, err := s.TailWAL(0); err != ErrLogGap {
		t.Fatalf("TailWAL(0) after prune = %v, want ErrLogGap", err)
	}
	// Tailing from the checkpoint's LSN works.
	tl, err := s.TailWAL(cut)
	if err != nil {
		t.Fatalf("TailWAL(cut) = %v", err)
	}
	defer tl.Close()
	o := object.PointObject(0, indoor.Position{Pt: geom.Pt(9, 9), Floor: 0})
	if err := idx.MoveObject(o); err != nil {
		t.Fatal(err)
	}
	recs := drainTail(t, tl, cut+1)
	if len(recs) != 1 || recs[0].LSN != cut+1 {
		t.Fatalf("post-checkpoint tail = %+v, want one record at lsn %d", recs, cut+1)
	}

	// A tailer mid-stream whose next generation is pruned also gaps: build
	// one parked on the finished generation, then prune it.
	if _, err := s.TailWAL(1); err != ErrLogGap {
		t.Fatalf("TailWAL(1) into pruned history = %v, want ErrLogGap", err)
	}
}

func TestWrittenAndDurableLSN(t *testing.T) {
	s, idx, _, _ := tailStore(t)
	if got := s.WrittenLSN(); got != 0 {
		t.Fatalf("fresh store WrittenLSN = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		o := object.PointObject(0, indoor.Position{Pt: geom.Pt(float64(3+i), 5), Floor: 0})
		if err := idx.MoveObject(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.WrittenLSN(); got != 3 {
		t.Fatalf("WrittenLSN after sync = %d, want 3", got)
	}
	if got := s.DurableLSN(); got != 3 {
		t.Fatalf("DurableLSN after sync = %d, want 3", got)
	}
	if s.WALSize() == 0 {
		t.Fatal("WALSize is 0 after appends")
	}
}

func TestAppendNotifyWakes(t *testing.T) {
	s, idx, _, _ := tailStore(t)
	w := s.AppendNotify()
	done := make(chan struct{})
	go func() {
		defer close(done)
		o := object.PointObject(0, indoor.Position{Pt: geom.Pt(7, 7), Floor: 0})
		if err := idx.MoveObject(o); err != nil {
			t.Error(err)
		}
		_ = s.Sync()
	}()
	select {
	case <-w:
	case <-time.After(5 * time.Second):
		t.Fatal("AppendNotify did not wake after an append+flush")
	}
	<-done
}

// TestAppendDurableWithoutSync pins the group-commit rule: an append
// wakes the flusher, so a lone mutation becomes written and durable with
// no Sync, no Flush and no later append to push it out. Close right after
// appends returns, and the flusher is gone when it does.
func TestAppendDurableWithoutSync(t *testing.T) {
	s, idx, _, dir := tailStore(t)
	notify := s.AppendNotify()
	deadline := time.Now().Add(5 * time.Second)
	for i := uint64(1); i <= 3; i++ {
		o := object.PointObject(0, indoor.Position{Pt: geom.Pt(float64(2+i), 5), Floor: 0})
		if err := idx.MoveObject(o); err != nil {
			t.Fatal(err)
		}
		for s.WrittenLSN() < i || s.DurableLSN() < i {
			if time.Now().After(deadline) {
				t.Fatalf("lone mutation %d: WrittenLSN %d, DurableLSN %d", i, s.WrittenLSN(), s.DurableLSN())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got, want := [2]uint64{s.WrittenLSN(), s.DurableLSN()}, [2]uint64{3, 3}; got != want {
		t.Fatalf("written, durable = %v, want %v", got, want)
	}
	select {
	case <-notify:
	default:
		t.Fatal("AppendNotify taken before the appends did not close")
	}

	// Three more appends, then Close at once: a kick may still be pending
	// when done closes, and Close must neither hang nor leave the flusher.
	for i := 0; i < 3; i++ {
		o := object.PointObject(1, indoor.Position{Pt: geom.Pt(float64(3+i), 6), Floor: 0})
		if err := idx.MoveObject(o); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	select {
	case <-s.w.kick: // drop a kick the flusher left pending
	default:
	}
	s.w.kick <- struct{}{}
	time.Sleep(20 * time.Millisecond)
	if len(s.w.kick) != 1 {
		t.Fatal("a kick sent after Close was consumed: the flusher outlived Close")
	}

	s2, _, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.Stats.Replayed != 6 {
		t.Fatalf("reopen replayed %d records, want 6", info.Stats.Replayed)
	}
}

// TestTailReplayMatchesState is the contract replication rests on: a
// fresh State loaded from the bootstrap checkpoint plus Apply over the
// tailed stream equals the leader's live state, and Apply enforces the
// contiguity rule: a re-applied record is skipped, a jump is a log gap.
func TestTailReplayMatchesState(t *testing.T) {
	s, idx, b, _ := tailStore(t)

	// Bootstrap payload.
	raw, ckptLSN, err := s.NewestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if data.LSN != ckptLSN {
		t.Fatalf("NewestCheckpoint lsn %d, decoded %d", ckptLSN, data.LSN)
	}
	replica, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}

	// Leader churn across every record kind that matters.
	if err := idx.InsertObject(object.PointObject(50, indoor.Position{Pt: geom.Pt(5, 15), Floor: 0})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := idx.MoveObject(object.PointObject(0, indoor.Position{Pt: geom.Pt(float64(2+i), 5), Floor: 0})); err != nil {
			t.Fatal(err)
		}
	}
	var doorID indoor.DoorID
	for _, d := range b.Doors() {
		doorID = d.ID
		break
	}
	if _, err := idx.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: doorID, Closed: true}); err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteObject(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Replay the stream into the replica.
	tl, err := s.TailWAL(ckptLSN)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	recs := drainTail(t, tl, s.WrittenLSN())
	for _, r := range recs {
		applied, err := replica.Apply(r)
		if err != nil || !applied {
			t.Fatalf("replay lsn %d: applied=%v err=%v", r.LSN, applied, err)
		}
	}
	if got, want := stateBytes(t, replica.Idx), stateBytes(t, idx); string(got) != string(want) {
		t.Fatalf("replica state diverged from leader after replaying %d records", len(recs))
	}

	last := recs[len(recs)-1]
	if replica.LSN() != last.LSN {
		t.Fatalf("state at lsn %d after replaying through %d", replica.LSN(), last.LSN)
	}
	if applied, err := replica.Apply(last); applied || err != nil {
		t.Fatalf("re-applying lsn %d: applied=%v err=%v, want a stale skip", last.LSN, applied, err)
	}
	jump := Record{LSN: last.LSN + 2, Kind: last.Kind, Body: last.Body}
	if _, err := replica.Apply(jump); !errors.Is(err, ErrLogGap) {
		t.Fatalf("applying lsn %d at %d: %v, want ErrLogGap", jump.LSN, last.LSN, err)
	}
	if replica.LSN() != last.LSN {
		t.Fatalf("refused record moved the state to lsn %d", replica.LSN())
	}
}

// TestTailerSurvivesPruneOfOpenGeneration pins the Unix open-fd
// semantics the catch-up story relies on: a tailer already positioned in
// a generation keeps reading it to the end even after compaction unlinks
// the file; the gap only surfaces when it must advance past it.
func TestTailerSurvivesPruneOfOpenGeneration(t *testing.T) {
	s, idx, _, dir := tailStore(t)
	for i := 0; i < 6; i++ {
		if err := idx.MoveObject(object.PointObject(0, indoor.Position{Pt: geom.Pt(float64(2+i), 5), Floor: 0})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	tl, err := s.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	// Read one record to force the generation file open.
	first, err := tl.Next(1)
	if err != nil || len(first) != 1 {
		t.Fatalf("Next(1) = %d recs, %v", len(first), err)
	}
	// Unlink the generation under the tailer (what a prune does).
	if err := os.Remove(walPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	recs, err := tl.Next(0)
	if err != nil {
		t.Fatalf("tail after unlink: %v", err)
	}
	if len(first)+len(recs) != 6 {
		t.Fatalf("tailed %d records from unlinked generation, want 6", len(first)+len(recs))
	}
}
