package indoorq

// Race-hardened stress tests for the concurrent serving layer: query
// readers hammer the database while writers move objects, toggle doors and
// mount/dismount sliding walls. The tests assert nothing about individual
// query answers (concurrent writers make them time-dependent); they assert
// that nothing crashes, no query errors, and the index's cross-layer
// invariants hold throughout — run them under `go test -race ./...` to get
// the data-race guarantees the serving layer claims.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/indoor"
	"repro/internal/object"
)

// stressFixture builds the small mall workload shared by the concurrency
// tests: Floors=2, a deterministic object population, and a walkable query
// pool.
func stressFixture(t testing.TB, nObjs, instances int, seed int64) (*Building, []*Object, *DB, []Position) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: nObjs, Radius: 8, Instances: instances, Seed: seed})
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b, objs, db, gen.QueryPoints(b, 32, seed+1)
}

func TestConcurrentReadWriteStress(t *testing.T) {
	b, objs, db, queries := stressFixture(t, 400, 10, 71)

	iters := 25
	if testing.Short() {
		iters = 6
	}

	var wg sync.WaitGroup
	start := make(chan struct{})

	// Range-query readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				q := queries[(g*13+i)%len(queries)]
				if _, _, err := db.RangeQuery(q, 80); err != nil {
					t.Errorf("reader %d: RangeQuery: %v", g, err)
					return
				}
			}
		}(g)
	}

	// kNN readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				q := queries[(g*7+i)%len(queries)]
				if _, _, err := db.KNNQuery(q, 10); err != nil {
					t.Errorf("knn reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	// Auxiliary readers: point location, object lookup, invariant checks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < iters*4; i++ {
			db.LocatePartition(queries[i%len(queries)])
			db.Object(objs[i%len(objs)].ID)
			db.NumObjects()
		}
	}()

	// Movers: each owns a disjoint stripe of objects and re-reports their
	// positions with the adjacency-accelerated update.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < iters*2; i++ {
				o := objs[(g*200+i)%200+g*200]
				c := o.Center
				next := Pos(c.Pt.X+rng.Float64()*10-5, c.Pt.Y+rng.Float64()*10-5, c.Floor)
				if db.LocatePartition(next) < 0 {
					continue
				}
				upd := object.SampleGaussian(rng, o.ID, next, o.Radius, 10)
				if err := db.MoveObject(upd); err != nil {
					t.Errorf("mover %d: MoveObject(%d): %v", g, o.ID, err)
					return
				}
			}
		}(g)
	}

	// Door toggler: closes and reopens doors from the initial door set
	// (doors survive splits and merges, so every id stays valid).
	doors := b.Doors()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		rng := rand.New(rand.NewSource(200))
		for i := 0; i < iters; i++ {
			d := doors[rng.Intn(len(doors))].ID
			if err := db.SetDoorClosed(d, true); err != nil {
				t.Errorf("toggler: close %d: %v", d, err)
				return
			}
			if err := db.SetDoorClosed(d, false); err != nil {
				t.Errorf("toggler: open %d: %v", d, err)
				return
			}
		}
	}()

	// Splitter: repeatedly mounts and dismounts a sliding wall in one room.
	var room PartitionID = -1
	for _, p := range b.Partitions() {
		if p.Kind == indoor.Room && len(p.Doors) > 0 {
			room = p.ID
			break
		}
	}
	if room < 0 {
		t.Fatal("no splittable room in mall")
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		cur := room
		for i := 0; i < iters/3+1; i++ {
			r := db.Building().Partition(cur).Bounds()
			a, bb, err := db.SplitPartition(cur, true, (r.MinX+r.MaxX)/2)
			if err != nil {
				t.Errorf("splitter: split %d: %v", cur, err)
				return
			}
			merged, err := db.MergePartitions(a, bb)
			if err != nil {
				t.Errorf("splitter: merge (%d,%d): %v", a, bb, err)
				return
			}
			cur = merged
		}
	}()

	close(start)
	wg.Wait()

	if err := db.Index().Current().CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}
}

// TestConcurrentInsertDeleteStress exercises the object-churn path: one
// goroutine inserts fresh objects, one deletes them, readers query
// throughout.
func TestConcurrentInsertDeleteStress(t *testing.T) {
	_, _, db, queries := stressFixture(t, 200, 10, 73)

	n := 40
	if testing.Short() {
		n = 10
	}
	inserted := make(chan ObjectID, n)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for i := 0; i < n; i++ {
			id := ObjectID(1_000_000 + i)
			q := queries[rng.Intn(len(queries))]
			if err := db.InsertObject(object.SampleGaussian(rng, id, q, 5, 8)); err != nil {
				t.Errorf("insert %d: %v", id, err)
				break
			}
			inserted <- id
		}
		close(inserted)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := range inserted {
			if err := db.DeleteObject(id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				q := queries[(g*5+i)%len(queries)]
				if _, _, err := db.RangeQuery(q, 60); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if err := db.Index().Current().CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	if got := db.NumObjects(); got != 200 {
		t.Fatalf("object count after churn: got %d, want 200", got)
	}
}
