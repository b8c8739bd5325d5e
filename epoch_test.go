package indoorq

// Epoch-invalidation coverage for the precompiled door-graph tier: every
// topology mutator must leave the mutated index answering queries exactly
// like an index built from scratch over the same (mutated) building — if a
// mutator forgot to bump the topology epoch, queries would keep slicing a
// stale compiled graph and these comparisons would diverge. A -race stress
// test additionally interleaves topology churn with batch queries to
// exercise the lazy-recompile path under the concurrent serving layer.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
)

// epochFixture builds the small mall with a deterministic population.
func epochFixture(t testing.TB) (*Building, []*Object, *index.Index) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 300, Radius: 8, Instances: 12, Seed: 7})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b, objs, idx
}

// liveObjects snapshots the store's current objects for a fresh rebuild.
func liveObjects(idx *index.Index) []*Object {
	ids := idx.Current().Objects().IDs()
	out := make([]*Object, 0, len(ids))
	for _, id := range ids {
		out = append(out, idx.Current().Objects().Get(id))
	}
	return out
}

// sameResultsLoose compares two result sets: identical membership, and equal
// distances wherever both sides resolved one (NaN marks bound-accepted
// results whose exact distance was never computed; the two runs may prune
// differently around distance ties, so a NaN on either side only requires
// the ids to agree).
func sameResultsLoose(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, fresh index gives %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: result %d is object %d, fresh index gives %d", label, i, got[i].ID, want[i].ID)
		}
		gd, wd := got[i].Distance, want[i].Distance
		if math.IsNaN(gd) || math.IsNaN(wd) {
			continue
		}
		if math.Abs(gd-wd) > 1e-9 && !(math.IsInf(gd, 1) && math.IsInf(wd, 1)) {
			t.Fatalf("%s: object %d at distance %g, fresh index gives %g", label, got[i].ID, gd, wd)
		}
	}
}

// assertMatchesFreshIndex runs iRQ and ikNNQ on the mutated index and on an
// index built from scratch over the same building and objects, and demands
// identical answers.
func assertMatchesFreshIndex(t *testing.T, label string, b *Building, idx *index.Index) {
	t.Helper()
	fresh, _, err := index.Build(b, liveObjects(idx), index.Options{})
	if err != nil {
		t.Fatalf("%s: fresh rebuild: %v", label, err)
	}
	mutP := query.New(idx, query.Options{})
	freshP := query.New(fresh, query.Options{})
	for qi, q := range gen.QueryPoints(b, 4, 99) {
		for _, r := range []float64{40, 120} {
			got, _, err := mutP.RangeQuery(q, r)
			if err != nil {
				t.Fatalf("%s q%d: mutated RangeQuery: %v", label, qi, err)
			}
			want, _, err := freshP.RangeQuery(q, r)
			if err != nil {
				t.Fatalf("%s q%d: fresh RangeQuery: %v", label, qi, err)
			}
			sameResultsLoose(t, label+"/iRQ", got, want)
		}
		got, _, err := mutP.KNNQuery(q, 10)
		if err != nil {
			t.Fatalf("%s q%d: mutated KNNQuery: %v", label, qi, err)
		}
		want, _, err := freshP.KNNQuery(q, 10)
		if err != nil {
			t.Fatalf("%s q%d: fresh KNNQuery: %v", label, qi, err)
		}
		sameResultsLoose(t, label+"/ikNN", got, want)
	}
}

// pickRoom returns a room partition that has at least one door.
func pickRoom(t *testing.T, b *Building) *Partition {
	t.Helper()
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room && len(p.Doors) > 0 {
			return p
		}
	}
	t.Fatal("no room with doors in fixture")
	return nil
}

// TestEpochInvalidationPerMutator is the table-driven mutate-then-query
// equivalence test: each case applies one topology mutator and the mutated
// index must answer exactly like a freshly built one.
func TestEpochInvalidationPerMutator(t *testing.T) {
	if testing.Short() {
		t.Skip("mall fixture in -short mode")
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, b *Building, idx *index.Index)
	}{
		{"SetDoorClosed", func(t *testing.T, b *Building, idx *index.Index) {
			mustApply(t, idx, Mutation{Kind: MutSetDoorClosed, DoorID: pickRoom(t, b).Doors[0], Closed: true})
		}},
		{"SetDoorReopened", func(t *testing.T, b *Building, idx *index.Index) {
			room := pickRoom(t, b)
			mustApply(t, idx, Mutation{Kind: MutSetDoorClosed, DoorID: room.Doors[0], Closed: true})
			mustApply(t, idx, Mutation{Kind: MutSetDoorClosed, DoorID: room.Doors[0]})
		}},
		{"DetachDoor", func(t *testing.T, b *Building, idx *index.Index) {
			mustApply(t, idx, Mutation{Kind: MutDetachDoor, DoorID: pickRoom(t, b).Doors[0]})
		}},
		{"AttachDoor", func(t *testing.T, b *Building, idx *index.Index) {
			// A second door between a room and one of its neighbours.
			var d *Door
			for _, p := range b.Partitions() {
				if p.Kind != indoor.Room {
					continue
				}
				for _, did := range p.Doors {
					if cand := b.Door(did); cand != nil && cand.P2 != indoor.NoPartition {
						d = cand
						break
					}
				}
				if d != nil {
					break
				}
			}
			if d == nil {
				t.Fatal("no two-sided room door in fixture")
			}
			mustApply(t, idx, Mutation{Kind: MutAttachDoor, DoorID: -1, Door: &Door{
				Pos: d.Pos.Add(geom.Pt(0.5, 0)), Floor: d.Floor, P1: d.P1, P2: d.P2}})
		}},
		{"RemovePartition", func(t *testing.T, b *Building, idx *index.Index) {
			mustApply(t, idx, Mutation{Kind: MutRemovePartition, PartID: pickRoom(t, b).ID})
		}},
		{"AddPartition", func(t *testing.T, b *Building, idx *index.Index) {
			room := pickRoom(t, b)
			mustApply(t, idx, Mutation{Kind: MutRemovePartition, PartID: room.ID})
			mustApply(t, idx, Mutation{Kind: MutAddPartition, PartID: -1,
				Part: &Partition{Floor: room.Floor, Shape: RectPoly(room.Bounds())}})
		}},
		{"SplitPartition", func(t *testing.T, b *Building, idx *index.Index) {
			room := pickRoom(t, b)
			rect := room.Bounds()
			mustApply(t, idx, Mutation{Kind: MutSplit, PartID: room.ID, AlongX: true, At: (rect.MinX + rect.MaxX) / 2})
		}},
		{"MergePartitions", func(t *testing.T, b *Building, idx *index.Index) {
			room := pickRoom(t, b)
			rect := room.Bounds()
			split := mustApply(t, idx, Mutation{Kind: MutSplit, PartID: room.ID, AlongX: true, At: (rect.MinX + rect.MaxX) / 2})
			mustApply(t, idx, Mutation{Kind: MutMerge, PartID: split.ResultA, PartID2: split.ResultB})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, _, idx := epochFixture(t)
			epochBefore := currentEpoch(idx)
			tc.mutate(t, b, idx)
			if got := currentEpoch(idx); got == epochBefore {
				t.Fatalf("mutator %s did not advance the topology epoch (%d)", tc.name, got)
			}
			if err := idx.Current().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			assertMatchesFreshIndex(t, tc.name, b, idx)
		})
	}
}

// mustApply commits m and returns it with the ids it allocated.
func mustApply(t *testing.T, idx *index.Index, m Mutation) Mutation {
	t.Helper()
	got, err := idx.Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// currentEpoch reads the topology epoch under the read lock.
func currentEpoch(idx *index.Index) uint64 {
	idx.RLock()
	defer idx.RUnlock()
	return idx.Current().TopoEpoch()
}

// TestObjectMutatorsKeepEpoch pins the counterpart property: object-layer
// updates must NOT invalidate the compiled door graph (the paper's split of
// object updates from topology updates is what makes them cheap).
func TestObjectMutatorsKeepEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("mall fixture in -short mode")
	}
	b, objs, idx := epochFixture(t)
	before := currentEpoch(idx)
	o := objs[0]
	if err := idx.MoveObject(o); err != nil {
		t.Fatal(err)
	}
	if err := idx.DeleteObject(objs[1].ID); err != nil {
		t.Fatal(err)
	}
	no := object.PointObject(object.ID(9_000_001), gen.QueryPoints(b, 1, 3)[0])
	if err := idx.InsertObject(no); err != nil {
		t.Fatal(err)
	}
	if got := currentEpoch(idx); got != before {
		t.Fatalf("object mutators advanced the topology epoch %d -> %d", before, got)
	}
}

// TestBatchQueriesUnderTopologyChurn is the -race stress test: query
// batches run continuously while a churner closes/opens doors and mounts/
// dismounts a sliding wall, forcing lazy recompiles under concurrent
// readers. Individual answers are time-dependent; the assertions are no
// errors (beyond transient unlocatable query points), invariants intact,
// and a final mutate-then-query equivalence once the churn stops.
func TestBatchQueriesUnderTopologyChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the batches' fan-out width
	b, _, idx := epochFixture(t)
	db := newDB(idx)
	queries := gen.QueryPoints(b, 16, 11)
	reqs := make([]RangeRequest, len(queries))
	for i, q := range queries {
		reqs[i] = RangeRequest{Q: q, R: 60}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Two distinct rooms so door-closure churn and wall churn never touch
	// the same partition.
	var rooms []*Partition
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room && len(p.Doors) > 0 {
			rooms = append(rooms, p)
		}
	}
	if len(rooms) < 2 {
		t.Fatal("fixture needs two rooms with doors")
	}
	doorRoom, wallRoom := rooms[0], rooms[len(rooms)-1]

	wg.Add(1)
	go func() { // topology churner
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		doors := append([]DoorID(nil), doorRoom.Doors...)
		rect := wallRoom.Bounds()
		splitAt := (rect.MinX + rect.MaxX) / 2
		cur := wallRoom.ID
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0: // door closure churn
				door := doors[rng.Intn(len(doors))]
				if _, err := idx.Apply(Mutation{Kind: MutSetDoorClosed, DoorID: door, Closed: true}); err != nil {
					t.Error(err)
					return
				}
				if _, err := idx.Apply(Mutation{Kind: MutSetDoorClosed, DoorID: door}); err != nil {
					t.Error(err)
					return
				}
			case 1: // sliding wall churn
				split, err := idx.Apply(Mutation{Kind: MutSplit, PartID: cur, AlongX: true, At: splitAt})
				if err != nil {
					t.Error(err)
					return
				}
				merged, err := idx.Apply(Mutation{Kind: MutMerge, PartID: split.ResultA, PartID2: split.ResultB})
				if err != nil {
					t.Error(err)
					return
				}
				cur = merged.ResultA
			case 2:
				if err := idx.Current().CheckInvariants(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for round := 0; round < 20; round++ {
		resps, _ := db.BatchRangeQuery(reqs, ServeConfig{})
		for i, r := range resps {
			if r.Err == nil {
				continue
			}
			// Splitting can transiently orphan a query point between
			// partitions; only unexpected errors fail the test. The
			// building lookup needs the index's read lock — the churner
			// is still mutating the partition map.
			idx.RLock()
			orphaned := idx.Building().PartitionAt(queries[i]) == nil
			idx.RUnlock()
			if !orphaned {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d query %d: %v", round, i, r.Err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := idx.Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	assertMatchesFreshIndex(t, "post-churn", b, idx)
}
