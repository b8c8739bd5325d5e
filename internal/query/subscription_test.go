package query

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
)

// Oracle-equivalence property: after every update batch, every
// subscription's result set must equal a fresh one-shot query evaluated
// against the same pinned snapshot the engine reconciled to — the
// metamorphic relation between incremental and from-scratch evaluation.
// The workload sweeps ≥5 seeds and both subscription kinds, mixing moves,
// inserts, deletes and periodic door toggles (topology invalidation).
// SUB_STRESS=1 widens the sweep to 60 seeds × 20 steps — the harness that
// originally exposed the partial-mass lower-bound unsoundness fixed in
// internal/distance (see the package note on conditioning there).
func TestSubscriptionOracleEquivalence(t *testing.T) {
	seeds, steps := int64(5), 12
	if os.Getenv("SUB_STRESS") != "" {
		seeds, steps = 60, 20
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSubscriptionOracleWorkload(t, seed, steps)
		})
	}
}

func runSubscriptionOracleWorkload(t *testing.T, seed int64, steps int) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 120, Radius: 8, Instances: 8, Seed: 700 + seed})
	idx, _, err := index.Build(b, objs, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewSubscriptions(idx)
	p := New(idx, Options{})

	type sub struct {
		id   int
		kind SubKind
		q    indoor.Position
		r    float64
		k    int
	}
	var subs []sub
	qs := gen.QueryPoints(b, 6, 800+seed)
	for i, r := range []float64{60, 90, 130} {
		id, initial, err := e.SubscribeRange(qs[i], r)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{id: id, kind: SubRange, q: qs[i], r: r})
		fresh, _, err := p.RangeQueryOn(idx.Current(), qs[i], r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(initial, idsOf(fresh)) {
			t.Fatalf("range sub %d: initial %v != fresh %v", id, initial, idsOf(fresh))
		}
	}
	for i, k := range []int{5, 10, 25} {
		q := qs[3+i]
		id, initial, err := e.SubscribeKNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{id: id, kind: SubKNN, q: q, k: k})
		fresh, _, err := p.KNNQueryOn(idx.Current(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(initial, idsOf(fresh)) {
			t.Fatalf("kNN sub %d: initial %v != fresh %v", id, initial, idsOf(fresh))
		}
	}

	check := func(step int) {
		snap := idx.Current()
		for _, s := range subs {
			var want []object.ID
			if s.kind == SubRange {
				fresh, _, err := p.RangeQueryOn(snap, s.q, s.r)
				if err != nil {
					t.Fatal(err)
				}
				want = idsOf(fresh)
			} else {
				fresh, _, err := p.KNNQueryOn(snap, s.q, s.k)
				if err != nil {
					t.Fatal(err)
				}
				want = idsOf(fresh)
			}
			if got := e.Results(s.id); !sameIDs(got, want) {
				t.Fatalf("step %d: sub %d (%v) drifted:\n  standing %v\n  fresh    %v",
					step, s.id, s.kind, got, want)
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

	for step := 0; step < steps; step++ {
		var ups []index.ObjectUpdate
		for n := 0; n < 8; n++ {
			switch op := rng.Intn(10); {
			case op < 7: // move a live object
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
			case op < 9: // insert
				q := gen.QueryPoints(b, 1, 1000*seed+int64(step*100+n))[0]
				o := object.SampleGaussian(rng, nextID, q, 6, 8)
				nextID++
				live[o.ID] = o
				ups = append(ups, index.ObjectUpdate{Op: index.UpdateInsert, Object: o})
			default: // delete
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
		if _, err := e.ApplyObjectUpdates(ups); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(step)

		// Every 4th step, churn the topology through the engine.
		if step%4 == 3 && len(doors) > 0 {
			if closedDoor >= 0 {
				if _, _, err := e.Topology(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: closedDoor}); err != nil {
					t.Fatal(err)
				}
				closedDoor = -1
			} else {
				closedDoor = doors[rng.Intn(len(doors))].ID
				if _, _, err := e.Topology(index.Mutation{Kind: index.MutSetDoorClosed, DoorID: closedDoor, Closed: true}); err != nil {
					t.Fatal(err)
				}
			}
			check(step)
		}
	}

	st := e.Stats()
	if st.Batches == 0 || st.RoutedPairs == 0 {
		t.Fatalf("workload exercised no routing: %+v", st)
	}
}

// randomLive draws a deterministic random element: map iteration order
// must not leak into the workload, or failures would not reproduce.
func randomLive(rng *rand.Rand, live map[object.ID]*object.Object) *object.Object {
	if len(live) == 0 {
		return nil
	}
	ids := make([]object.ID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return live[ids[rng.Intn(len(ids))]]
}

// The kNN top-k view must order by (distance, id) and agree with the
// membership view.
func TestSubscriptionTopKOrdering(t *testing.T) {
	f := newFixture(t, 1, 150, 8)
	e := NewSubscriptions(f.idx)
	q := gen.QueryPoints(f.b, 1, 610)[0]
	id, initial, err := e.SubscribeKNN(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	top := e.TopK(id)
	if len(top) != len(initial) {
		t.Fatalf("TopK %d entries, Results %d", len(top), len(initial))
	}
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		if a.Distance > b.Distance || (a.Distance == b.Distance && a.ID >= b.ID) {
			t.Fatalf("TopK out of order at %d: %+v then %+v", i, a, b)
		}
	}
	all, err := f.or.KNN(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, od := range all {
		if top[i].ID != od.ID {
			t.Fatalf("TopK[%d] = %d, oracle %d", i, top[i].ID, od.ID)
		}
		if math.Abs(top[i].Distance-od.D) > 1e-6 {
			t.Fatalf("TopK[%d] distance %v, oracle %v", i, top[i].Distance, od.D)
		}
	}
}

// Routing must skip unaffected subscriptions: an update far from every
// footprint reconciles nothing.
func TestSubscriptionRoutingSkipsUnaffected(t *testing.T) {
	f := newFixture(t, 2, 200, 8)
	e := NewSubscriptions(f.idx)
	// A tight footprint on floor 0.
	q := gen.QueryPoints(f.b, 1, 620)[0]
	q.Floor = 0
	if _, _, err := e.SubscribeRange(q, 25); err != nil {
		t.Fatal(err)
	}
	// Move an object on floor 1 within its own partition: far from the
	// footprint, so the router must not admit it.
	var far *object.Object
	for _, o := range f.objs {
		if o.Floor() == 1 {
			far = o
			break
		}
	}
	if far == nil {
		t.Skip("no floor-1 object")
	}
	before := e.Stats()
	upd := object.PointObject(far.ID, far.Center)
	if _, err := e.ApplyObjectUpdates([]index.ObjectUpdate{{Op: index.UpdateMove, Object: upd}}); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Batches != before.Batches+1 {
		t.Fatalf("batch not counted: %+v -> %+v", before, after)
	}
	if after.RoutedPairs != before.RoutedPairs || after.AffectedSubs != before.AffectedSubs {
		t.Fatalf("far update was routed: %+v -> %+v", before, after)
	}
}

// Unsubscribe must report a handle's existence exactly once, and a removed
// handle has no results.
func TestSubscriptionUnsubscribe(t *testing.T) {
	f := newFixture(t, 1, 50, 5)
	e := NewSubscriptions(f.idx)
	q := gen.QueryPoints(f.b, 1, 605)[0]
	id, _, err := e.SubscribeRange(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Unsubscribe(id) || e.Unsubscribe(id) {
		t.Error("Unsubscribe must report existence exactly once")
	}
	if e.Results(id) != nil {
		t.Error("results of a removed subscription must be nil")
	}
	if e.NumSubscriptions() != 0 {
		t.Error("subscription count wrong")
	}
}

// A refresh that fails (the subscription's partition was removed) must
// leave the old cached engines and results in place: the topology commit
// itself succeeded, so Topology reports no error, and later reconciles use
// the old engines instead of panicking on a nil engine.
func TestSubscriptionSurvivesFailedRefresh(t *testing.T) {
	f := newFixture(t, 1, 100, 5)
	e := NewSubscriptions(f.idx)
	q := gen.QueryPoints(f.b, 1, 607)[0]
	id, initial, err := e.SubscribeRange(q, 60)
	if err != nil {
		t.Fatal(err)
	}
	pid := f.idx.Current().LocatePartition(q)
	if pid == indoor.NoPartition {
		t.Fatal("query point not locatable")
	}
	if _, _, err := e.Topology(index.Mutation{Kind: index.MutRemovePartition, PartID: pid}); err != nil {
		t.Fatalf("the commit succeeded, yet Topology reported: %v", err)
	}
	for _, s := range e.standing {
		if s.eng == nil {
			t.Fatal("failed refresh dropped the cached engine")
		}
	}
	if got := e.Results(id); !sameIDs(got, initial) {
		t.Fatalf("failed refresh changed the results: %v, was %v", got, initial)
	}
	// The subscription is stale but must stay usable: object updates keep
	// flowing through reconcile without a crash.
	for _, o := range f.objs {
		if _, err := e.ApplyObjectUpdates([]index.ObjectUpdate{{Op: index.UpdateMove, Object: o}}); err != nil {
			t.Fatal(err)
		}
	}
}
