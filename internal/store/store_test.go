package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsfault"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/serde"
)

// testIndex builds a small two-room-plus-hallway building with a few
// point objects — enough surface for every mutation kind.
func testIndex(t *testing.T) (*index.Index, *indoor.Building) {
	t.Helper()
	b := indoor.NewBuilding(4)
	r1 := b.AddRoom(0, geom.R(0, 0, 20, 10))
	r2 := b.AddRoom(0, geom.R(0, 10, 20, 20))
	hall, err := b.AddHallway(0, geom.RectPoly(geom.R(20, 0, 30, 20)))
	if err != nil {
		t.Fatal(err)
	}
	mustDoor := func(d *indoor.Door, err error) *indoor.Door {
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	mustDoor(b.AddDoor(geom.Pt(20, 5), 0, r1.ID, hall.ID))
	mustDoor(b.AddDoor(geom.Pt(20, 15), 0, r2.ID, hall.ID))
	mustDoor(b.AddDoor(geom.Pt(10, 10), 0, r1.ID, r2.ID))
	var objs []*object.Object
	for i, p := range []geom.Point{geom.Pt(5, 5), geom.Pt(15, 5), geom.Pt(5, 15), geom.Pt(25, 10)} {
		objs = append(objs, object.PointObject(object.ID(i), indoor.Position{Pt: p, Floor: 0}))
	}
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, b
}

// stateBytes captures a comparable fingerprint of building + objects.
func stateBytes(t *testing.T, idx *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	idx.RLock()
	defer idx.RUnlock()
	st := idx.Current().Objects()
	objs := make([]*object.Object, 0, st.Len())
	for _, id := range st.IDs() {
		objs = append(objs, st.Get(id))
	}
	if err := serde.Encode(&buf, idx.Building(), objs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	idx, _ := testIndex(t)
	idx.RLock()
	data, err := Capture(idx, []SubscriptionRec{
		{ID: 0, Kind: SubscriptionRange, X: 5, Y: 5, R: 40},
		{ID: 2, Kind: SubscriptionKNN, X: 1, Y: 1, K: 2},
	}, 17)
	idx.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := WriteSnapshot(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 17 || len(got.Objects) != 4 || len(got.Subs) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.Subs[1].Kind != SubscriptionKNN || got.Subs[1].K != 2 {
		t.Fatalf("subscription mismatch: %+v", got.Subs[1])
	}
	st, err := Load(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, idx), stateBytes(t, st.Idx)) {
		t.Fatal("rebuilt state differs from original")
	}

	// A flipped byte must fail the CRC.
	raw, _ := os.ReadFile(path)
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 1
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	os.WriteFile(bad, flipped, 0o644)
	if _, err := ReadSnapshot(bad); err == nil {
		t.Fatal("corrupt checkpoint decoded")
	}

	// The reserved header byte (after magic, version, LSN, fanout and
	// Tshape) must be zero even when the CRC vouches for it.
	const reservedOff = 8 + 4 + 8 + 8 + 8
	if raw[reservedOff] != 0 {
		t.Fatalf("reserved byte written as %d", raw[reservedOff])
	}
	raw[reservedOff] = 1
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[len(snapMagic):len(raw)-4]))
	if _, err := DecodeSnapshot(raw); err == nil {
		t.Fatal("checkpoint with a non-zero reserved byte decoded")
	}
}

// TestCreateLogReopen drives every mutation kind through the hook and
// checks that Open reproduces the final state exactly.
func TestCreateLogReopen(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncGrouped, SyncAlways} {
		idx, b := testIndex(t)
		dir := t.TempDir()
		st, err := Create(dir, idx, nil, Options{Sync: policy})
		if err != nil {
			t.Fatal(err)
		}

		// Object batch, moves, insert, delete.
		if err := idx.ApplyObjectUpdates([]index.ObjectUpdate{
			{Op: index.UpdateMove, Object: object.PointObject(0, indoor.Pos(6, 6, 0))},
			{Op: index.UpdateInsert, Object: object.PointObject(9, indoor.Pos(25, 5, 0))},
			{Op: index.UpdateDelete, ID: 3},
		}); err != nil {
			t.Fatal(err)
		}
		// Door toggle, split and merge, a detached door replaced by an
		// equivalent one, a new partition with a door, a removal.
		apply := func(m index.Mutation) index.Mutation {
			t.Helper()
			got, err := idx.Apply(m)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: b.Doors()[2].ID, Closed: true})
		split := apply(index.Mutation{Kind: index.MutSplit, PartID: b.Partitions()[0].ID, AlongX: true, At: 10})
		apply(index.Mutation{Kind: index.MutMerge, PartID: split.ResultA, PartID2: split.ResultB})
		d0 := *b.Doors()[0]
		apply(index.Mutation{Kind: index.MutDetachDoor, DoorID: d0.ID})
		apply(index.Mutation{Kind: index.MutAttachDoor, DoorID: -1, Door: &d0})
		np := apply(index.Mutation{Kind: index.MutAddPartition, PartID: indoor.NoPartition,
			Part: &indoor.Partition{Kind: indoor.Room, Shape: geom.RectPoly(geom.R(30, 0, 40, 10))}}).PartID
		hall := b.PartitionAt(indoor.Pos(25, 10, 0))
		apply(index.Mutation{Kind: index.MutAttachDoor, DoorID: -1, Door: &indoor.Door{Pos: geom.Pt(30, 5), P1: hall.ID, P2: np}})
		apply(index.Mutation{Kind: index.MutRemovePartition, PartID: np})

		want := stateBytes(t, idx)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st2, idx2, info, err := Open(dir, Options{Sync: policy})
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		if info.Stats.Replayed == 0 {
			t.Fatal("no records replayed")
		}
		if got := stateBytes(t, idx2); !bytes.Equal(want, got) {
			t.Fatalf("policy %d: recovered state differs\nwant %s\ngot  %s", policy, want, got)
		}
		if err := idx2.Current().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The recovered log must keep accepting appends.
		if _, err := idx2.Apply(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: idx2.Building().Doors()[1].ID, Closed: true}); err != nil {
			t.Fatal(err)
		}
		st2.Close()
	}
}

// TestCheckpointProtocol rotates + commits and checks pruning and the
// reopen path from the fresh generation.
func TestCheckpointProtocol(t *testing.T) {
	idx, _ := testIndex(t)
	dir := t.TempDir()
	st, err := Create(dir, idx, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := idx.ApplyObjectUpdates([]index.ObjectUpdate{
			{Op: index.UpdateMove, Object: object.PointObject(0, indoor.Pos(5+float64(i), 5, 0))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	idx.RLock()
	cut, err := st.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Capture(idx, nil, cut)
	idx.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 5 {
		t.Fatalf("cut %d, want 5", cut)
	}
	// One more mutation lands in the new generation before commit.
	if err := idx.ApplyObjectUpdates([]index.ObjectUpdate{
		{Op: index.UpdateMove, Object: object.PointObject(1, indoor.Pos(15, 6, 0))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	ckpts, wals, err := generations(fsfault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0] != cut || len(wals) != 1 || wals[0] != cut {
		t.Fatalf("generations after compaction: ckpts %v wals %v", ckpts, wals)
	}
	want := stateBytes(t, idx)
	st.Close()

	_, idx2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.CheckpointLSN != cut || info.Stats.Replayed != 1 {
		t.Fatalf("recovery stats %+v", info.Stats)
	}
	if got := stateBytes(t, idx2); !bytes.Equal(want, got) {
		t.Fatal("state after compaction + reopen differs")
	}
}

// TestStaleSubscriptionRecordSkipped pins the rotation race tolerance:
// a subscription record that raced BeginCheckpoint can carry an LSN at
// or below the cut while landing in the NEW generation (its
// registration is already inside the checkpoint's capture). Recovery
// must skip it as stale — not refuse the store as a log gap.
func TestStaleSubscriptionRecordSkipped(t *testing.T) {
	idx, _ := testIndex(t)
	dir := t.TempDir()
	st, err := Create(dir, idx, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := idx.ApplyObjectUpdates([]index.ObjectUpdate{
			{Op: index.UpdateMove, Object: object.PointObject(0, indoor.Pos(5+float64(i), 5, 0))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	idx.RLock()
	cut, err := st.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Capture(idx, nil, cut)
	idx.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitCheckpoint(data); err != nil {
		t.Fatal(err)
	}
	want := stateBytes(t, idx)
	st.Close()

	// Forge the raced record: lsn == cut, in the new generation's file.
	w, err := openWAL(fsfault.OS, dir, cut, cut, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(recSubscribe, appendSubscription(nil,
		SubscriptionRec{ID: 7, Kind: SubscriptionRange, X: 5, Y: 5, R: 30})); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, idx2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.SkippedStale != 1 || info.Stats.Replayed != 0 {
		t.Fatalf("recovery stats %+v, want 1 stale skip", info.Stats)
	}
	if got := stateBytes(t, idx2); !bytes.Equal(want, got) {
		t.Fatal("state changed by a stale record")
	}
}

// TestCorruptCheckpointFallsBack damages the newest checkpoint and
// expects recovery from the previous generation plus both WAL files.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	idx, _ := testIndex(t)
	dir := t.TempDir()
	st, err := Create(dir, idx, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	move := func(id object.ID, x float64) {
		t.Helper()
		if err := idx.ApplyObjectUpdates([]index.ObjectUpdate{
			{Op: index.UpdateMove, Object: object.PointObject(id, indoor.Pos(x, 5, 0))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	move(0, 6)
	idx.RLock()
	cut, err := st.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := Capture(idx, nil, cut)
	idx.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	// Write the checkpoint but keep generation 0 around, as a crash
	// between WriteSnapshot and pruning would.
	if err := WriteSnapshot(ckptPath(dir, data.LSN), data); err != nil {
		t.Fatal(err)
	}
	move(1, 16)
	want := stateBytes(t, idx)
	st.Close()

	// Damage the new checkpoint: recovery must fall back to generation 0
	// and still reach the same final state through both logs.
	raw, _ := os.ReadFile(ckptPath(dir, cut))
	raw[len(raw)-1] ^= 1
	os.WriteFile(ckptPath(dir, cut), raw, 0o644)

	_, idx2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.CorruptCheckpoints != 1 || info.Stats.CheckpointLSN != 0 {
		t.Fatalf("recovery stats %+v", info.Stats)
	}
	if got := stateBytes(t, idx2); !bytes.Equal(want, got) {
		t.Fatal("fallback recovery reached a different state")
	}

	// With the older generation's log gone, the fallback would skip
	// straight from the old checkpoint to the newer log — an LSN gap
	// recovery must refuse rather than silently drop mutations.
	if err := os.Remove(walPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrLogGap) {
		t.Fatalf("recovery across a missing log generation: %v, want ErrLogGap", err)
	}
	if !strings.Contains(err.Error(), walName(0)) {
		t.Fatalf("gap error %q does not name the missing %s", err, walName(0))
	}
}
