package indoorq

// Subscription-engine race stress: concurrent Subscribe/Unsubscribe churn
// against ApplyObjectUpdates batches and door toggles (topology
// invalidation), with query readers running throughout, under -race. The
// correctness claim checked at the end is the event-replay guarantee: for
// every surviving subscription, replaying its enter/leave event stream
// over its initial result set reproduces its final result set — which
// holds for ANY serialisation of the concurrent operations, so the test
// is schedule-independent.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/object"
)

func TestConcurrentSubscriptionChurn(t *testing.T) {
	b, err := gen.Mall(gen.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 250, Radius: 8, Instances: 10, Seed: 41})
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A base set of subscriptions that lives for the whole run.
	type subInfo struct {
		id      int
		initial []ObjectID
	}
	var (
		mu        sync.Mutex
		surviving []subInfo
	)
	queries := gen.QueryPoints(b, 32, 42)
	for i := 0; i < 6; i++ {
		spec := SubscriptionSpec{Q: queries[i], R: 60 + float64(i%3)*30}
		if i%2 == 1 {
			spec = SubscriptionSpec{Q: queries[i], K: 5 + i*3}
		}
		id, initial, err := db.Subscribe(spec)
		if err != nil {
			t.Fatal(err)
		}
		surviving = append(surviving, subInfo{id: id, initial: initial})
	}

	var wg sync.WaitGroup

	// Subscriber churn: register and sometimes drop standing queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(43))
		var mine []subInfo
		for i := 0; i < 40; i++ {
			q := queries[rng.Intn(len(queries))]
			spec := SubscriptionSpec{Q: q, R: 40 + rng.Float64()*80}
			if rng.Intn(2) == 0 {
				spec = SubscriptionSpec{Q: q, K: 1 + rng.Intn(20)}
			}
			id, initial, err := db.Subscribe(spec)
			if err != nil {
				t.Errorf("subscribe: %v", err)
				return
			}
			mine = append(mine, subInfo{id: id, initial: initial})
			if len(mine) > 4 && rng.Intn(2) == 0 {
				drop := mine[0]
				mine = mine[1:]
				if !db.Unsubscribe(drop.id) {
					t.Errorf("unsubscribe %d: not found", drop.id)
					return
				}
			}
		}
		mu.Lock()
		surviving = append(surviving, mine...)
		mu.Unlock()
	}()

	// Movers: disjoint object stripes, coalesced update batches.
	const movers = 2
	for g := 0; g < movers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(44 + g)))
			stripe := 250 / movers
			for i := 0; i < 30; i++ {
				ups := make([]ObjectUpdate, 0, 8)
				for j := 0; j < 8; j++ {
					oid := ObjectID(g*stripe + rng.Intn(stripe))
					cur := db.Object(oid)
					if cur == nil {
						continue
					}
					c := cur.Center
					next := Pos(c.Pt.X+rng.Float64()*80-40, c.Pt.Y+rng.Float64()*80-40, c.Floor)
					if db.LocatePartition(next) < 0 {
						next = c
					}
					ups = append(ups, ObjectUpdate{Op: UpdateMove, Object: object.SampleGaussian(rng, oid, next, cur.Radius, 10)})
				}
				if len(ups) == 0 {
					continue
				}
				if err := db.ApplyObjectUpdates(ups); err != nil {
					t.Errorf("mover %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	// Topology churn: toggle doors closed and back open.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(46))
		doors := b.Doors()
		for i := 0; i < 10; i++ {
			d := doors[rng.Intn(len(doors))].ID
			if err := db.SetDoorClosed(d, true); err != nil {
				t.Errorf("close door: %v", err)
				return
			}
			if err := db.SetDoorClosed(d, false); err != nil {
				t.Errorf("open door: %v", err)
				return
			}
		}
	}()

	// Readers: standing results, one-shot queries and batches throughout.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			subs := append([]subInfo(nil), surviving...)
			mu.Unlock()
			for _, s := range subs {
				db.SubscriptionResults(s.id)
			}
			if _, _, err := db.RangeQuery(queries[i%len(queries)], 80); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			i++
		}
	}()

	wg.Wait()
	close(stop)
	readers.Wait()

	// Replay check: initial set + ordered enter/leave events == final set,
	// for every surviving subscription.
	events := db.Events()
	if len(events) == 0 {
		t.Fatal("no events produced; workload too static to test anything")
	}
	bySub := make(map[int][]SubscriptionEvent)
	for _, ev := range events {
		bySub[ev.Sub] = append(bySub[ev.Sub], ev)
	}
	checked, changed := 0, 0
	for _, s := range surviving {
		members := make(map[ObjectID]bool, len(s.initial))
		for _, oid := range s.initial {
			members[oid] = true
		}
		for _, ev := range bySub[s.id] {
			switch ev.Kind {
			case SubEnter:
				if members[ev.Object] {
					t.Fatalf("sub %d: duplicate enter for %d", s.id, ev.Object)
				}
				members[ev.Object] = true
				changed++
			case SubLeave:
				if !members[ev.Object] {
					t.Fatalf("sub %d: leave without membership for %d", s.id, ev.Object)
				}
				delete(members, ev.Object)
				changed++
			}
		}
		final := db.SubscriptionResults(s.id)
		if len(final) != len(members) {
			t.Fatalf("sub %d: replay has %d members, final %d (%v)", s.id, len(members), len(final), final)
		}
		for _, oid := range final {
			if !members[oid] {
				t.Fatalf("sub %d: final member %d missing from replay", s.id, oid)
			}
		}
		checked++
	}
	if changed == 0 {
		t.Fatal("no membership changes across surviving subscriptions")
	}
	if err := db.Index().Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("replayed %d events over %d subscriptions (%d membership changes)", len(events), checked, changed)
}

// replayFixture builds one deterministic database with six standing range
// queries. Building it twice yields identical databases and handles.
func replayFixture(t *testing.T) (*DB, []int) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 300, Radius: 8, Instances: 10, Seed: 81})
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := gen.QueryPoints(b, 8, 82)
	ids := make([]int, 6)
	for i := range ids {
		id, _, err := db.Subscribe(SubscriptionSpec{Q: queries[i], R: 60 + float64(i%3)*30})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return db, ids
}

// eventsByObject drains the event log and groups it per object, keeping
// log order within each object.
func eventsByObject(t *testing.T, db *DB) map[ObjectID][]string {
	t.Helper()
	evs, overflowed := db.DrainEvents()
	if overflowed {
		t.Fatal("event log overflowed; the per-object streams are incomplete")
	}
	out := make(map[ObjectID][]string)
	for _, e := range evs {
		out[e.Object] = append(out[e.Object], fmt.Sprintf("s%d:%v", e.Sub, e.Kind))
	}
	return out
}

// Standing-range events produced while several goroutines move disjoint
// object sets concurrently (with readers running throughout) must match a
// serial replay of the same update sequences on an identical database.
// Topology is static and range membership depends only on an object's own
// position, so one object's event stream depends only on its own moves:
// any interleaving must yield the same per-object streams and the same
// final memberships.
func TestConcurrentSubscriptionMovesMatchSerialReplay(t *testing.T) {
	db, ids := replayFixture(t)

	// Precompute the per-goroutine update sequences against the static
	// topology, so the concurrent run and the serial replay apply the very
	// same objects.
	const goroutines = 4
	const movesEach = 60
	updates := make([][]*Object, goroutines)
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(900 + g)))
		stripe := 300 / goroutines
		for len(updates[g]) < movesEach {
			oid := ObjectID(g*stripe + len(updates[g])%stripe)
			cur := db.Object(oid)
			c := cur.Center
			next := Pos(c.Pt.X+rng.Float64()*80-40, c.Pt.Y+rng.Float64()*80-40, c.Floor)
			if db.LocatePartition(next) < 0 {
				next = c // fall back to re-reporting in place
			}
			updates[g] = append(updates[g], object.SampleGaussian(rng, oid, next, cur.Radius, 10))
		}
	}
	move := func(db *DB, o *Object) error {
		return db.ApplyObjectUpdates([]ObjectUpdate{{Op: UpdateMove, Object: o}})
	}

	// Concurrent run: movers apply their sequences while a reader polls
	// standing results.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, upd := range updates[g] {
				if err := move(db, upd); err != nil {
					t.Errorf("mover %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stopReaders:
				return
			default:
				for _, id := range ids {
					db.SubscriptionResults(id)
				}
				db.NumSubscriptions()
			}
		}
	}()
	wg.Wait()
	close(stopReaders)
	readers.Wait()
	concByObject := eventsByObject(t, db)

	// Serial replay on an identical database.
	db2, ids2 := replayFixture(t)
	for g := 0; g < goroutines; g++ {
		for _, upd := range updates[g] {
			if err := move(db2, upd); err != nil {
				t.Fatalf("replay mover %d: %v", g, err)
			}
		}
	}
	serialByObject := eventsByObject(t, db2)
	total := 0
	for _, evs := range serialByObject {
		total += len(evs)
	}
	if total == 0 {
		t.Fatal("replay produced no membership events; workload too static to test anything")
	}

	// Per-object event streams must match: an object's events all come from
	// its own goroutine, in that goroutine's order.
	if len(concByObject) != len(serialByObject) {
		t.Fatalf("event coverage: concurrent touched %d objects, serial %d", len(concByObject), len(serialByObject))
	}
	for oid, want := range serialByObject {
		got := concByObject[oid]
		if len(got) != len(want) {
			t.Fatalf("object %d: concurrent run emitted %d events %v, serial %d events %v",
				oid, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("object %d event %d: concurrent %s, serial %s", oid, i, got[i], want[i])
			}
		}
	}

	// Final standing memberships must match exactly.
	for i := range ids {
		got, want := db.SubscriptionResults(ids[i]), db2.SubscriptionResults(ids2[i])
		if len(got) != len(want) {
			t.Fatalf("query %d: concurrent members %v, serial %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d member %d: concurrent %d, serial %d", i, j, got[j], want[j])
			}
		}
	}
	for _, d := range []*DB{db, db2} {
		if err := d.Index().Current().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("verified %d membership events across %d objects", total, len(serialByObject))
}
