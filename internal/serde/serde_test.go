package serde

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
)

func TestRoundTripMall(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 2, OneWayFraction: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 30, Radius: 8, Instances: 10, Seed: 4})

	var buf bytes.Buffer
	if err := Encode(&buf, b, objs); err != nil {
		t.Fatal(err)
	}
	b2, objs2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b2.NumPartitions() != b.NumPartitions() || b2.NumDoors() != b.NumDoors() {
		t.Fatalf("counts changed: %d/%d -> %d/%d",
			b.NumPartitions(), b.NumDoors(), b2.NumPartitions(), b2.NumDoors())
	}
	if b2.FloorHeight != b.FloorHeight || b2.Floors() != b.Floors() {
		t.Error("geometry metadata changed")
	}
	if len(objs2) != len(objs) {
		t.Fatalf("objects %d -> %d", len(objs), len(objs2))
	}
	for i := range objs {
		if objs[i].ID != objs2[i].ID || len(objs[i].Instances) != len(objs2[i].Instances) {
			t.Fatalf("object %d changed shape", objs[i].ID)
		}
		for j := range objs[i].Instances {
			a, c := objs[i].Instances[j], objs2[i].Instances[j]
			if !a.Pos.Pt.Eq(c.Pos.Pt) || a.Pos.Floor != c.Pos.Floor || a.P != c.P {
				t.Fatalf("object %d instance %d changed", objs[i].ID, j)
			}
		}
	}
	// One-way doors preserved.
	oneWay, oneWay2 := 0, 0
	closed2 := 0
	for _, d := range b.Doors() {
		if d.OneWay {
			oneWay++
		}
	}
	for _, d := range b2.Doors() {
		if d.OneWay {
			oneWay2++
		}
		if d.Closed {
			closed2++
		}
	}
	if oneWay != oneWay2 {
		t.Errorf("one-way doors %d -> %d", oneWay, oneWay2)
	}
	if closed2 != 0 {
		t.Errorf("spurious closed doors after round trip: %d", closed2)
	}
}

// Query equivalence: the decoded workload must answer queries identically.
func TestRoundTripQueryEquivalence(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 60, Radius: 8, Instances: 10, Seed: 5})
	var buf bytes.Buffer
	if err := Encode(&buf, b, objs); err != nil {
		t.Fatal(err)
	}
	b2, objs2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	idx1, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx2, _, err := index.Build(b2, objs2, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	or1, or2 := baseline.NewOracle(idx1), baseline.NewOracle(idx2)
	for _, q := range gen.QueryPoints(b, 5, 6) {
		d1, err := or1.AllDistances(q)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := or2.AllDistances(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d1 {
			same := d1[i].ID == d2[i].ID &&
				(d1[i].D == d2[i].D || math.Abs(d1[i].D-d2[i].D) < 1e-9)
			if !same {
				t.Fatalf("query %v: distance %d differs: %+v vs %+v", q, i, d1[i], d2[i])
			}
		}
	}
}

func TestClosedDoorPersisted(t *testing.T) {
	b := indoor.NewBuilding(4)
	a := b.AddRoom(0, geom.R(0, 0, 10, 10))
	c := b.AddRoom(0, geom.R(10, 0, 20, 10))
	d, err := b.AddDoor(geom.Pt(10, 5), 0, a.ID, c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetDoorClosed(d.ID, true); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, b, nil); err != nil {
		t.Fatal(err)
	}
	b2, _, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.Doors()[0].Closed {
		t.Error("door closure lost in round trip")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"garbage", "{"},
		{"bad version", `{"version": 99, "floorHeight": 4}`},
		{"no floor height", `{"version": 1}`},
		{"bad kind", `{"version":1,"floorHeight":4,"partitions":[
			{"id":0,"kind":"elevator","floor":0,"shape":[[0,0],[1,0],[1,1],[0,1]]}]}`},
		{"bad shape", `{"version":1,"floorHeight":4,"partitions":[
			{"id":0,"kind":"room","floor":0,"shape":[[0,0],[1,1],[0,2],[-1,1]]}]}`},
		{"dup partition id", `{"version":1,"floorHeight":4,"partitions":[
			{"id":0,"kind":"room","floor":0,"shape":[[0,0],[1,0],[1,1],[0,1]]},
			{"id":0,"kind":"room","floor":0,"shape":[[2,0],[3,0],[3,1],[2,1]]}]}`},
		{"door to missing partition", `{"version":1,"floorHeight":4,
			"partitions":[{"id":0,"kind":"room","floor":0,"shape":[[0,0],[1,0],[1,1],[0,1]]}],
			"doors":[{"id":0,"pos":[1,0.5],"floor":0,"p1":0,"p2":7}]}`},
		{"bad object probs", `{"version":1,"floorHeight":4,
			"partitions":[{"id":0,"kind":"room","floor":0,"shape":[[0,0],[1,0],[1,1],[0,1]]}],
			"objects":[{"id":1,"center":[0.5,0.5,0],"radius":0,
			  "instances":[{"x":0.5,"y":0.5,"floor":0,"p":0.4}]}]}`},
	}
	for _, c := range cases {
		if _, _, err := Decode(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: expected decode error", c.name)
		}
	}
}

// TestDecodeExactPreservesIDs pins the property the WAL depends on:
// after removals leave the id space sparse, an encode/DecodeExact round
// trip reproduces ids and allocator positions exactly, so replayed
// splits allocate the same ids.
func TestDecodeExactPreservesIDs(t *testing.T) {
	b := indoor.NewBuilding(4)
	r0 := b.AddRoom(0, geom.R(0, 0, 10, 10))
	r1 := b.AddRoom(0, geom.R(10, 0, 20, 10))
	r2 := b.AddRoom(0, geom.R(20, 0, 30, 10))
	if _, err := b.AddDoor(geom.Pt(10, 5), 0, r0.ID, r1.ID); err != nil {
		t.Fatal(err)
	}
	d2, err := b.AddDoor(geom.Pt(20, 5), 0, r1.ID, r2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddOneWayDoor(geom.Pt(25, 0), 0, r2.ID, indoor.NoPartition); err != nil {
		t.Fatal(err)
	}
	// Make both id spaces sparse: drop the middle room (and with it
	// doors 0 and 1) — max-id entities stay, interior ids are holes.
	if err := b.RemovePartition(r1.ID); err != nil {
		t.Fatal(err)
	}
	if b.Door(d2.ID) != nil {
		t.Fatal("door to removed partition survived")
	}

	var buf bytes.Buffer
	if err := Encode(&buf, b, nil); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	b2, _, err := DecodeExact(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	np1, nd1 := b.AllocBounds()
	np2, nd2 := b2.AllocBounds()
	if np1 != np2 || nd1 != nd2 {
		t.Fatalf("allocators differ: (%d,%d) vs (%d,%d)", np1, nd1, np2, nd2)
	}
	for _, p := range b.Partitions() {
		if b2.Partition(p.ID) == nil {
			t.Fatalf("partition %d lost", p.ID)
		}
	}
	for _, d := range b.Doors() {
		if b2.Door(d.ID) == nil {
			t.Fatalf("door %d lost", d.ID)
		}
	}
	// The round trip is a fixpoint: re-encoding yields identical bytes.
	var buf2 bytes.Buffer
	if err := Encode(&buf2, b2, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, buf2.Bytes()) {
		t.Fatal("DecodeExact round trip is not byte-identical")
	}
	// New allocations continue the original timeline.
	pa := b.AddRoom(1, geom.R(0, 0, 5, 5))
	pb := b2.AddRoom(1, geom.R(0, 0, 5, 5))
	if pa.ID != pb.ID {
		t.Fatalf("allocation diverged: %d vs %d", pa.ID, pb.ID)
	}
}
