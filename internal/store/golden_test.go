package store

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// goldenRecords is one WAL body per mutation record kind (1–9), in an
// order that replays cleanly on testIndex's building. The hex literals
// are the on-disk format: a change to any of them breaks every existing
// log, so they may only ever be appended to, never edited.
var goldenRecords = []struct {
	kind byte
	m    index.Mutation
	hex  string
}{
	{recObjects, index.Mutation{Kind: index.MutObjects, Updates: []index.ObjectUpdate{
		{Op: index.UpdateMove, Object: object.PointObject(0, indoor.Pos(6, 6, 0))},
		{Op: index.UpdateInsert, Object: object.PointObject(9, indoor.Pos(25, 5, 0))},
		{Op: index.UpdateDelete, ID: 3},
	}}, "030000000000000000000000000000000000000000000018400000000000001840000000000000000000000000000000000100000000000000000000000000184000000000000018400000000000000000000000000000f03f01090000000000000000000000000039400000000000001440000000000000000000000000000000000100000000000000000000000000394000000000000014400000000000000000000000000000f03f020300000000000000"},
	{recSetDoorClosed, index.Mutation{Kind: index.MutSetDoorClosed, DoorID: 2, Closed: true}, "020000000000000001"},
	{recAddPartition, index.Mutation{Kind: index.MutAddPartition, PartID: 3, Part: &indoor.Partition{
		Kind: indoor.Room, Floor: 0, Shape: geom.RectPoly(geom.R(30, 0, 40, 10)),
	}}, "0300000000000000000000000000000000000000000000000004000000000000000000000000003e40000000000000000000000000000044400000000000000000000000000000444000000000000024400000000000003e400000000000002440"},
	{recAttachDoor, index.Mutation{Kind: index.MutAttachDoor, DoorID: 3, Door: &indoor.Door{
		Pos: geom.Pt(30, 5), Floor: 0, P1: 2, P2: 3, OneWay: true, From: 2, To: 3,
	}}, "03000000000000000000000000003e4000000000000014400000000000000000020000000000000003000000000000000102000000000000000300000000000000"},
	{recDetachDoor, index.Mutation{Kind: index.MutDetachDoor, DoorID: 3}, "0300000000000000"},
	{recRemovePartition, index.Mutation{Kind: index.MutRemovePartition, PartID: 3}, "0300000000000000"},
	{recSplit, index.Mutation{Kind: index.MutSplit, PartID: 0, AlongX: true, At: 10, ResultA: 4, ResultB: 5}, "000000000000000001000000000000244004000000000000000500000000000000"},
	{recMerge, index.Mutation{Kind: index.MutMerge, PartID: 4, PartID2: 5, ResultA: 6}, "040000000000000005000000000000000600000000000000"},
	{recRebuildSkeleton, index.Mutation{Kind: index.MutRebuildSkeleton}, ""},
}

// TestGoldenMutationRecords pins the WAL record codec byte for byte:
// encoding each mutation gives its golden body, and replaying that body
// through a State re-logs exactly the same bytes from the commit hook —
// so decode, apply and encode are mutually inverse on every kind.
func TestGoldenMutationRecords(t *testing.T) {
	idx, _ := testIndex(t)
	idx.RLock()
	data, err := Capture(idx, nil, 0)
	idx.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	var relogKind byte
	var relogBody []byte
	st.Idx.SetCommitHook(func(m index.Mutation) (uint64, error) {
		var err error
		relogKind, relogBody, err = encodeMutation(m)
		return 0, err
	})
	for i, g := range goldenRecords {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		kind, body, err := encodeMutation(g.m)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		if kind != g.kind || !bytes.Equal(body, want) {
			t.Fatalf("record %d: encoded kind %d body %x, want kind %d body %s", i, kind, body, g.kind, g.hex)
		}
		relogKind, relogBody = 0, nil
		if _, err := st.Apply(Record{LSN: uint64(i + 1), Kind: g.kind, Body: want}); err != nil {
			t.Fatalf("record %d: replay: %v", i, err)
		}
		if relogKind != g.kind || !bytes.Equal(relogBody, want) {
			t.Fatalf("record %d: replay re-logged kind %d body %x, want kind %d body %s", i, relogKind, relogBody, g.kind, g.hex)
		}
	}
	if err := st.Idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
