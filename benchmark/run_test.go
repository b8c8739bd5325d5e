package main

import (
	"fmt"
	"testing"

	"repro/internal/indoor"
	"repro/internal/wire"
)

func describe(r wire.TopologyRequest) string {
	switch r.Op {
	case wire.TopoSplit:
		return fmt.Sprintf("split %d", r.Partition)
	case wire.TopoMerge:
		return fmt.Sprintf("merge %d+%d", r.Partition, r.Partition2)
	}
	if r.Closed {
		return fmt.Sprintf("close %d", r.Door)
	}
	return fmt.Sprintf("open %d", r.Door)
}

// The topology stream is pairs that undo themselves; every splitEvery-th
// pair is a split and its merge, and the next lap splits the merged room.
func TestTopoDriverPairs(t *testing.T) {
	d := &topoDriver{doors: []indoor.DoorID{7, 9}, rooms: []splitTarget{{pid: 100, alongX: true, at: 5}}, splitEvery: 3}
	var ops []string
	nextPart := int64(200)
	for i := 0; i < 12; i++ {
		req := d.next()
		var resp wire.TopologyResponse
		switch req.Op {
		case wire.TopoSplit:
			resp.PartitionA, resp.PartitionB = nextPart, nextPart+1
			nextPart += 2
		case wire.TopoMerge:
			resp.PartitionA = nextPart
			nextPart++
		}
		ops = append(ops, describe(req))
		d.ack(req, resp)
	}
	want := []string{
		"close 7", "open 7", "close 9", "open 9", "split 100", "merge 200+201",
		"close 9", "open 9", "close 7", "open 7", "split 202", "merge 203+204",
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("operation %d is %q, want %q\nall: %v", i, ops[i], want[i], ops)
		}
	}
	if len(d.acked) != 12 {
		t.Fatalf("kept %d acknowledgements, want 12", len(d.acked))
	}
}
