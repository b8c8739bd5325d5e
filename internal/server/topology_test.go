package server_test

// Topology mutations over the wire: the building changes only inside the
// index commit, so a refused or malformed request leaves no trace in the
// building, the log or the next checkpoint, and concurrent adds race
// neither each other nor compaction.

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	indoorq "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// buildingState is what a refused add must leave unchanged: the
// partition and door counts and the id allocators. It reads under the
// index's read lock, which orders it after every committed mutation.
type buildingState struct {
	parts, doors int
	nextPart     indoorq.PartitionID
	nextDoor     indoorq.DoorID
}

func stateOf(db *indoorq.DB) buildingState {
	db.Index().RLock()
	defer db.Index().RUnlock()
	b := db.Building()
	st := buildingState{parts: b.NumPartitions(), doors: b.NumDoors()}
	st.nextPart, st.nextDoor = b.AllocBounds()
	return st
}

// TestRefusedAddDoorCannotPoisonRecovery: an add_door at a position that
// touches no unit is refused in-band, and the door must not stay in the
// building — it never reached the log, so a checkpoint that captured it
// would make the directory unrecoverable.
func TestRefusedAddDoorCannotPoisonRecovery(t *testing.T) {
	dir := t.TempDir()
	db, c, _, _ := newLeaderAt(t, dir, server.Config{})
	before := stateOf(db)
	resp, err := c.Topology(wire.TopologyRequest{
		Op: wire.TopoAddDoor, Pos: &[2]float64{99999, 99999}, Partition: 2, Partition2: -1,
	})
	if err != nil {
		t.Fatalf("refused add_door must answer 200 with err: %v", err)
	}
	if !strings.Contains(resp.Err, "touches no unit") {
		t.Fatalf("add_door touching no unit answered err %q", resp.Err)
	}
	if resp.Door != -1 {
		t.Fatalf("refused add_door reported door id %d, want -1", resp.Door)
	}
	if got := stateOf(db); got != before {
		t.Fatalf("refused add_door changed the building: %+v -> %+v", before, got)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		t.Fatalf("directory no longer reopens: %v", err)
	}
	defer re.Close()
	if got := stateOf(re); got != before {
		t.Fatalf("recovered building %+v, want %+v", got, before)
	}
}

// TestRefusedAddRoomReportsNoID: a well-formed add_room the commit refuses
// (here a fail-stopped log) answers with the error and partitionA -1, the
// reply the handler builds from the refused mutation. Over HTTP a poisoned
// leader answers 503 before the commit, so the reply is built directly.
func TestRefusedAddRoomReportsNoID(t *testing.T) {
	db, _, _, _ := newLeader(t, server.Config{})
	db.Store().Poison(nil)
	before := stateOf(db)
	m, err := wire.TopologyRequest{Op: wire.TopoAddRoom, Rect: &[4]float64{10000, 0, 10020, 10}}.Mutation()
	if err != nil {
		t.Fatal(err)
	}
	resp := wire.TopologyResponseOf(db.Apply(m))
	if resp.Err == "" || resp.PartitionA != -1 {
		t.Fatalf("refused add_room replied %+v, want an err and partitionA -1", resp)
	}
	if got := stateOf(db); got != before {
		t.Fatalf("refused add_room changed the building: %+v -> %+v", before, got)
	}
}

// TestDegenerateAddRoomIs400: a zero-width rect is malformed input, refused
// before it reaches the building and counted as an endpoint error.
func TestDegenerateAddRoomIs400(t *testing.T) {
	db, c, ts, _ := newLeader(t, server.Config{})
	before := stateOf(db)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	errs := stats.Endpoints[wire.PathTopology].Errors
	resp, err := http.Post(ts.URL+wire.PathTopology, "application/json",
		strings.NewReader(`{"op":"add_room","rect":[500,500,500,520]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("degenerate add_room answered %d, want 400", resp.StatusCode)
	}
	if stats, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := stats.Endpoints[wire.PathTopology].Errors; got != errs+1 {
		t.Fatalf("topology endpoint errors %d -> %d, want one more", errs, got)
	}
	if got := stateOf(db); got != before {
		t.Fatalf("refused add_room changed the building: %+v -> %+v", before, got)
	}
}

// TestConcurrentTopologyAddsUnderCompaction: four clients add rooms and
// the doors between them while compaction loops; run under -race. The
// directory must then reopen to the leader's exact building.
func TestConcurrentTopologyAddsUnderCompaction(t *testing.T) {
	dir := t.TempDir()
	db, c, _, _ := newLeaderAt(t, dir, server.Config{})
	stop := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	topology := func(req wire.TopologyRequest) wire.TopologyResponse {
		resp, err := c.Topology(req)
		if err == nil && resp.Err != "" {
			t.Errorf("%s: %s", req.Op, resp.Err)
		} else if err != nil {
			t.Errorf("%s: %v", req.Op, err)
		}
		return resp
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Two rooms sharing the edge y = 10, far from the mall.
				x := 10000 + float64(1000*g+40*i)
				a := topology(wire.TopologyRequest{Op: wire.TopoAddRoom, Rect: &[4]float64{x, 0, x + 20, 10}})
				b := topology(wire.TopologyRequest{Op: wire.TopoAddRoom, Rect: &[4]float64{x, 10, x + 20, 20}})
				topology(wire.TopologyRequest{Op: wire.TopoAddDoor, Pos: &[2]float64{x + 10, 10},
					Partition: a.PartitionA, Partition2: b.PartitionA})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-compacted
	want := stateOf(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := indoorq.OpenDir(dir, indoorq.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := stateOf(re); got != want {
		t.Fatalf("recovered building %+v, want the leader's %+v", got, want)
	}
}

// TestStatsReportTopologyScope: a door toggle over the wire shows up in
// /v1/stats as subscriptions admitted plus subscriptions carried, one per
// standing query, with the partially refreshed ones a subset of the
// admitted, all matching the engine's counters.
func TestStatsReportTopologyScope(t *testing.T) {
	db, c, _, queries := newLeader(t, server.Config{})
	for i, q := range queries {
		if _, _, err := db.Subscribe(indoorq.SubscriptionSpec{Q: q, R: 10 + 20*float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Index().RLock()
	door := db.Building().Doors()[0].ID
	db.Index().RUnlock()
	resp, err := c.Topology(wire.TopologyRequest{Op: wire.TopoSetDoorClosed, Door: int64(door), Closed: true})
	if err != nil || resp.Err != "" {
		t.Fatalf("toggle: %v %q", err, resp.Err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rc, want := st.Reconcile, db.SubscriptionStatsSnapshot()
	if rc.TopoAdmitted+rc.TopoCarried != uint64(len(queries)) {
		t.Fatalf("admitted %d + carried %d, want %d subscriptions", rc.TopoAdmitted, rc.TopoCarried, len(queries))
	}
	if rc.TopoAdmitted != want.TopoAdmitted || rc.TopoCarried != want.TopoCarried || rc.TopoPartial != want.TopoPartial {
		t.Fatalf("/v1/stats %d/%d/%d, engine %d/%d/%d", rc.TopoAdmitted, rc.TopoCarried, rc.TopoPartial,
			want.TopoAdmitted, want.TopoCarried, want.TopoPartial)
	}
	if rc.TopoPartial > rc.TopoAdmitted {
		t.Fatalf("partial %d exceeds admitted %d", rc.TopoPartial, rc.TopoAdmitted)
	}
}
