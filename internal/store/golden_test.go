package store

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
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

// The pins below cover the rest of the bytes the store owns: the
// subscription record bodies (kinds 10 and 11), whole WAL frames as the
// log file holds them and as the replication stream sends them, the
// stream-only heartbeat and gap frames, and a small checkpoint file.
// Like goldenRecords, their hex literals may only be appended to.

// goldenSub is the registration the subscription pins log.
var goldenSub = goldenSubRec{ID: 7, Kind: 1, X: 12.5, Y: -3, Floor: 2, K: 5}

const (
	goldenSubscribeHex   = "070000000000000001000000000000294000000000000008c0020000000000000000000000000000000500000000000000"
	goldenUnsubscribeHex = "0700000000000000"
	// goldenWALHex is the log file after LogSubscribe(goldenSub),
	// LogUnsubscribe(7) and closing door 2: three frames, LSNs 1–3.
	goldenWALHex = "3a00000009229a110a0100000000000000070000000000000001000000000000294000000000000008c002000000000000000000000000000000050000000000000011000000ddc900f10b02000000000000000700000000000000120000005ae7a468020300000000000000020000000000000001"
	// goldenHeartbeatHex and goldenGapHex are stream control frames
	// advertising durable LSN 42.
	goldenHeartbeatHex  = "090000007b66f0c7ff2a00000000000000"
	goldenGapHex        = "0900000038728bd0fe2a00000000000000"
	goldenCheckpointHex = "494451534e4150310100000009000000000000000400000000000000000000000000d03f000d0000007b2276657273696f6e223a317d02000000000000000300000000000000000000000000f83f0000000000000440010000000000000000000000000000000100000000000000000000000000f83f00000000000004400100000000000000000000000000f03f050000000000000000000000000010400000000000001840010000000000000000000000000000400200000000000000000000000000084000000000000018400100000000000000000000000000d03f000000000000144000000000000018400100000000000000000000000000e83f0200000000000000070000000000000001000000000000294000000000000008c0020000000000000000000000000000000500000000000000080000000000000000000000000000f03f000000000000004000000000000000000000000000003e40000000000000000025754394"
)

// TestGoldenSubscriptionRecords logs a subscribe, an unsubscribe and a
// door toggle through a real store and checks the record bodies, the
// log file's bytes, and that every logged frame is byte-equal to the
// frame the replication stream sends for the same record.
func TestGoldenSubscriptionRecords(t *testing.T) {
	idx, _ := testIndex(t)
	idx.RLock()
	data, err := Capture(idx, nil, 0)
	idx.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Create(dir, idx, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.LogSubscribe(goldenSub); err != nil {
		t.Fatal(err)
	}
	if err := s.LogUnsubscribe(goldenSub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Apply(goldenRecords[1].m); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	tl, err := s.TailWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	recs, err := tl.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind byte
		hex  string
	}{{recSubscribe, goldenSubscribeHex}, {recUnsubscribe, goldenUnsubscribeHex}, {goldenRecords[1].kind, goldenRecords[1].hex}}
	if len(recs) != len(want) {
		t.Fatalf("tailed %d records, want %d", len(recs), len(want))
	}
	var stream []byte
	for i, w := range want {
		r := recs[i]
		if r.LSN != uint64(i+1) || r.Kind != w.kind || hex.EncodeToString(r.Body) != w.hex {
			t.Fatalf("record %d: lsn %d kind %d body %x, want lsn %d kind %d body %s", i, r.LSN, r.Kind, r.Body, i+1, w.kind, w.hex)
		}
		stream = append(stream, streamFrame(r.Kind, r.LSN, r.Body)...)
	}
	file, err := os.ReadFile(filepath.Join(dir, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(file); got != goldenWALHex {
		t.Fatalf("log file %s, want %s", got, goldenWALHex)
	}
	if !bytes.Equal(stream, file) {
		t.Fatalf("stream frames %x differ from the log file %x", stream, file)
	}
	// Replaying the tailed records maintains the registration map and
	// re-applies the door toggle.
	st, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(recs[0]); err != nil {
		t.Fatal(err)
	}
	if subs := st.Subs(); len(subs) != 1 || subs[0] != goldenSub {
		t.Fatalf("replayed subscriptions %+v, want [%+v]", subs, goldenSub)
	}
	for _, r := range recs[1:] {
		if _, err := st.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if subs := st.Subs(); len(subs) != 0 {
		t.Fatalf("subscription %d survived its unsubscribe: %+v", goldenSub.ID, subs)
	}
	if got, want := stateBytes(t, st.Idx), stateBytes(t, idx); !bytes.Equal(got, want) {
		t.Fatal("replayed state differs from the logged one")
	}
}

// TestGoldenStreamControlFrames pins the stream-only heartbeat (255) and
// gap (254) frames.
func TestGoldenStreamControlFrames(t *testing.T) {
	if heartbeatKind != 255 || gapKind != 254 {
		t.Fatalf("stream kinds %d/%d, want 255/254", heartbeatKind, gapKind)
	}
	for _, c := range []struct {
		kind byte
		hex  string
	}{{heartbeatKind, goldenHeartbeatHex}, {gapKind, goldenGapHex}} {
		if got := hex.EncodeToString(streamFrame(c.kind, 42, nil)); got != c.hex {
			t.Fatalf("kind %d frame %s, want %s", c.kind, got, c.hex)
		}
	}
}

// TestGoldenCheckpointFile pins a small checkpoint file byte for byte
// and reads it back.
func TestGoldenCheckpointFile(t *testing.T) {
	two := &object.Object{ID: 5, Center: indoor.Pos(4, 6, 1), Radius: 2, Instances: []object.Instance{
		{Pos: indoor.Pos(3, 6, 1), P: 0.25}, {Pos: indoor.Pos(5, 6, 1), P: 0.75},
	}}
	d := Data{
		LSN:          9,
		IndexOpts:    index.Options{Fanout: 4, Tshape: 0.25},
		BuildingJSON: []byte(`{"version":1}`),
		Objects:      []*object.Object{object.PointObject(3, indoor.Pos(1.5, 2.5, 1)), two},
		Subs:         []goldenSubRec{goldenSub, {ID: 8, X: 1, Y: 2, R: 30}},
	}
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	if err := WriteSnapshot(path, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != goldenCheckpointHex {
		t.Fatalf("checkpoint %s, want %s", got, goldenCheckpointHex)
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.LSN != d.LSN || back.IndexOpts != d.IndexOpts || !bytes.Equal(back.BuildingJSON, d.BuildingJSON) ||
		len(back.Objects) != 2 || len(back.Subs) != 2 || back.Subs[0] != d.Subs[0] || back.Subs[1] != d.Subs[1] {
		t.Fatalf("checkpoint read back as %+v, want %+v", back, d)
	}
	for i, o := range d.Objects {
		g := back.Objects[i]
		if g.ID != o.ID || g.Center != o.Center || g.Radius != o.Radius || len(g.Instances) != len(o.Instances) {
			t.Fatalf("object %d read back as %+v, want %+v", i, g, o)
		}
		for j := range o.Instances {
			if g.Instances[j] != o.Instances[j] {
				t.Fatalf("object %d instance %d read back as %+v", i, j, g.Instances[j])
			}
		}
	}
}
