package query

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// workloadLog runs the deterministic churn workload (moves, inserts,
// deletes, door toggles, and on every third topology step a room split
// and merge) against a fresh engine whose reconciliation fans out width
// wide (GOMAXPROCS, restored on return) and returns the full drained
// event log, one slice per operation.
func workloadLog(t *testing.T, seed int64, width, subsN int) [][]SubEvent {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 140, Radius: 8, Instances: 8, Seed: 700 + seed})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSubscriptions(idx)

	qs := gen.QueryPoints(b, subsN, 800+seed)
	for i, q := range qs {
		if i%2 == 0 {
			if _, _, err := e.SubscribeRange(q, 60+float64(i%5)*25); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, _, err := e.SubscribeKNN(q, 3+i%8); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(900 + seed))
	live := make(map[object.ID]*object.Object, len(objs))
	for _, o := range objs {
		live[o.ID] = o
	}
	nextID := object.ID(10_000)
	doors := b.Doors()
	var closedDoor indoor.DoorID = -1
	topoSteps := 0

	var log [][]SubEvent
	for step := 0; step < 10; step++ {
		var ups []index.ObjectUpdate
		for n := 0; n < 8; n++ {
			switch op := rng.Intn(10); {
			case op < 7:
				o := randomLive(rng, live)
				if o == nil {
					continue
				}
				c := o.Center
				next := indoor.Pos(c.Pt.X+rng.Float64()*120-60, c.Pt.Y+rng.Float64()*120-60, c.Floor)
				if idx.Current().LocatePartition(next) < 0 {
					next = c
				}
				upd := object.SampleGaussian(rng, o.ID, next, o.Radius, 8)
				live[o.ID] = upd
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateMove, Object: upd})
			case op < 9:
				q := gen.QueryPoints(b, 1, 1000*seed+int64(step*100+n))[0]
				o := object.SampleGaussian(rng, nextID, q, 6, 8)
				nextID++
				live[o.ID] = o
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateInsert, Object: o})
			default:
				o := randomLive(rng, live)
				if o == nil || len(live) < 10 {
					continue
				}
				delete(live, o.ID)
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateDelete, ID: o.ID})
			}
		}
		if len(ups) == 0 {
			continue
		}
		evs, err := e.ApplyObjectUpdates(ups)
		if err != nil {
			t.Fatalf("width=%d step %d: %v", width, step, err)
		}
		log = append(log, evs)

		if step%3 == 2 && len(doors) > 0 {
			if closedDoor >= 0 {
				_, evs, err = e.Topology(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: closedDoor})
				closedDoor = -1
			} else {
				closedDoor = doors[rng.Intn(len(doors))].ID
				_, evs, err = e.Topology(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: closedDoor, Closed: true})
			}
			if err != nil {
				t.Fatalf("width=%d step %d toggle: %v", width, step, err)
			}
			log = append(log, evs)
			if topoSteps++; topoSteps%3 == 0 {
				log = append(log, splitMergeRoom(t, e, idx, qs[rng.Intn(len(qs))])...)
			}
		}
	}

	if st := e.Stats(); width > 1 {
		if st.ReconcileBatchP99 <= 0 || st.ReconcileBatchP50 > st.ReconcileBatchP99 {
			t.Fatalf("implausible latency window: %+v", st)
		}
	}
	return log
}

// splitMergeRoom splits the room holding a subscription's query point in
// half and merges the halves back, both through Topology, returning the
// two operations' event streams. A point outside every room is a no-op.
func splitMergeRoom(t *testing.T, e *Subscriptions, idx *index.Index, q indoor.Position) [][]SubEvent {
	t.Helper()
	room := idx.Building().Partition(idx.Current().LocatePartition(q))
	if room == nil || room.Kind != indoor.Room {
		return nil
	}
	r := room.Bounds()
	m, split, err := e.Topology(index.Mutation{Kind: index.MutSplit, PartID: room.ID, AlongX: true, At: (r.MinX + r.MaxX) / 2})
	if err != nil {
		t.Fatalf("split room %d: %v", room.ID, err)
	}
	_, merge, err := e.Topology(index.Mutation{Kind: index.MutMerge, PartID: m.ResultA, PartID2: m.ResultB})
	if err != nil {
		t.Fatalf("merge room %d halves: %v", room.ID, err)
	}
	return [][]SubEvent{split, merge}
}

// sameEvents is field-wise equality with NaN == NaN (leave events carry
// NaN distances; bit-identical streams must still compare equal).
func sameEvents(a, b []SubEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		sameDist := x.Distance == y.Distance ||
			(math.IsNaN(x.Distance) && math.IsNaN(y.Distance))
		if x.Sub != y.Sub || x.Object != y.Object || x.Kind != y.Kind ||
			x.Seq != y.Seq || !sameDist {
			return false
		}
	}
	return true
}

// The reconciler's ordering contract: for ANY fan-out width the event
// stream of every operation is byte-identical to the serial (width 1)
// reconciler's, across moves, inserts, deletes, door toggles and room
// splits and merges. Run with -cpu 1,4 under the race detector.
func TestReconcileByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial := workloadLog(t, seed, 1, 8)
			for _, width := range []int{2, 4, 7} {
				wide := workloadLog(t, seed, width, 8)
				if len(serial) != len(wide) {
					t.Fatalf("width=%d: %d ops vs %d serial", width, len(wide), len(serial))
				}
				for i := range serial {
					if !sameEvents(serial[i], wide[i]) {
						t.Fatalf("width=%d op %d diverged:\n  serial %v\n  wide   %v",
							width, i, serial[i], wide[i])
					}
				}
			}
		})
	}
}

// Churn hammer for the race detector: subscribe/unsubscribe churn racing
// update batches and door toggles while readers poll results and stats.
// The engine serializes mutators on its own mutex; what this guards is the
// fan-out — workers must never touch the router, stats, or each other's
// slots. Run with -cpu 1,4.
func TestReconcileChurnRace(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 100, Radius: 8, Instances: 8, Seed: 42})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSubscriptions(idx) // width floats with GOMAXPROCS (-cpu)

	qs := gen.QueryPoints(b, 16, 77)
	ids := make([]int, 0, len(qs))
	var idsMu sync.Mutex
	for i, q := range qs[:8] {
		id, _, err := e.SubscribeRange(q, 80+float64(i)*10)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer: update batches + door toggles
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		doors := b.Doors()
		for i := 0; i < iters; i++ {
			var ups []index.ObjectUpdate
			for n := 0; n < 6; n++ {
				o := objs[rng.Intn(len(objs))]
				c := o.Center
				next := indoor.Pos(c.Pt.X+rng.Float64()*80-40, c.Pt.Y+rng.Float64()*80-40, c.Floor)
				if idx.Current().LocatePartition(next) < 0 {
					next = c
				}
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateMove, Object: object.SampleGaussian(rng, o.ID, next, o.Radius, 8)})
			}
			if _, err := e.ApplyObjectUpdates(ups); err != nil {
				t.Error(err)
				return
			}
			if i%7 == 6 && len(doors) > 0 {
				d := doors[rng.Intn(len(doors))].ID
				if _, _, err := e.Topology(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: d, Closed: true}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := e.Topology(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: d}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // churner: subscribe/unsubscribe racing the writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < iters; i++ {
			q := qs[8+rng.Intn(8)]
			var id int
			var err error
			if i%2 == 0 {
				id, _, err = e.SubscribeKNN(q, 3+rng.Intn(6))
			} else {
				id, _, err = e.SubscribeRange(q, 60+rng.Float64()*60)
			}
			if err != nil {
				t.Error(err)
				return
			}
			idsMu.Lock()
			ids = append(ids, id)
			if len(ids) > 12 {
				victim := ids[rng.Intn(len(ids))]
				e.Unsubscribe(victim)
			}
			idsMu.Unlock()
		}
	}()
	go func() { // reader: results + stats + latency window
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < iters*2; i++ {
			idsMu.Lock()
			id := ids[rng.Intn(len(ids))]
			idsMu.Unlock()
			e.Results(id)
			e.TopK(id)
			_ = e.Stats()
			runtime.Gosched()
		}
	}()
	wg.Wait()

	if st := e.Stats(); st.Batches == 0 {
		t.Fatalf("hammer exercised no batches: %+v", st)
	}
}
