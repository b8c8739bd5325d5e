package indoorq

// Facade-level durability tests: persist/recover round trips, durable
// subscriptions, compaction, the standalone checkpoint export, and the
// paced-churn WAL-overhead smoke (env-gated; CI runs it as its own
// step). The byte-granular crash-injection property suite lives in
// crashrecovery_test.go.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/object"
)

// saveBytes fingerprints a DB's building+object state via the serde
// document (ids and allocators included).
func saveBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testWorkload(t *testing.T) (*Building, []*Object, []Position) {
	t.Helper()
	b, err := GenerateMall(MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := GenerateObjects(b, ObjectSpec{N: 60, Radius: 6, Instances: 5, Seed: 21})
	return b, objs, GenerateQueryPoints(b, 3, 22)
}

func TestDurableRoundTrip(t *testing.T) {
	b, objs, queries := testWorkload(t)
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.Persist(dir, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}

	// Subscriptions before and after some churn.
	subRange, _, err := db.Subscribe(SubscriptionSpec{Q: queries[0], R: 100})
	if err != nil {
		t.Fatal(err)
	}
	subKNN, _, err := db.Subscribe(SubscriptionSpec{Q: queries[1], K: 4})
	if err != nil {
		t.Fatal(err)
	}
	subGone, _, err := db.Subscribe(SubscriptionSpec{Q: queries[2], R: 50})
	if err != nil {
		t.Fatal(err)
	}

	// Churn: moves, insert, delete, a door toggle, a split+merge.
	var ups []ObjectUpdate
	for i := 0; i < 20; i++ {
		o := db.Object(ObjectID(i))
		p := o.Center
		p.Pt.X += 3
		ups = append(ups, ObjectUpdate{Op: UpdateMove, Object: object.PointObject(o.ID, p)})
	}
	if err := db.ApplyObjectUpdates(ups); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertObject(object.PointObject(500, queries[0])); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteObject(ObjectID(25)); err != nil {
		t.Fatal(err)
	}
	if err := db.SetDoorClosed(b.Doors()[3].ID, true); err != nil {
		t.Fatal(err)
	}
	var splitable PartitionID = -1
	for _, p := range b.Partitions() {
		if r := p.Bounds(); p.Shape.IsConvex() && r.MaxX-r.MinX > 8 {
			splitable = p.ID
			break
		}
	}
	if splitable >= 0 {
		r := b.Partition(splitable).Bounds()
		pa, pb, err := db.SplitPartition(splitable, true, (r.MinX+r.MaxX)/2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.MergePartitions(pa, pb); err != nil {
			t.Fatal(err)
		}
	}
	if !db.Unsubscribe(subGone) {
		t.Fatal("unsubscribe failed")
	}

	want := saveBytes(t, db)
	wantRange := db.SubscriptionResults(subRange)
	wantKNN := db.SubscriptionResults(subKNN)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(want, got) {
		t.Fatal("recovered serde state differs")
	}
	if err := db2.Index().Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, "durable", db, db2, queries)
	if db2.NumSubscriptions() != 2 {
		t.Fatalf("recovered %d subscriptions, want 2", db2.NumSubscriptions())
	}
	if got := db2.SubscriptionResults(subRange); !reflect.DeepEqual(got, wantRange) {
		t.Fatalf("range subscription drifted: %v vs %v", got, wantRange)
	}
	if got := db2.SubscriptionResults(subKNN); !reflect.DeepEqual(got, wantKNN) {
		t.Fatalf("kNN subscription drifted: %v vs %v", got, wantKNN)
	}
	if db2.SubscriptionResults(subGone) != nil {
		t.Fatal("unsubscribed handle resurrected")
	}
	if db2.RecoveryInfo().Replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}

	// The recovered DB keeps working durably: new handles must not
	// collide with recovered ones.
	id3, _, err := db2.Subscribe(SubscriptionSpec{Q: queries[2], R: 60})
	if err != nil {
		t.Fatal(err)
	}
	if id3 == subRange || id3 == subKNN {
		t.Fatalf("handle %d collides with recovered handles", id3)
	}
	if err := db2.MoveObject(object.PointObject(0, queries[1])); err != nil {
		t.Fatal(err)
	}
}

func TestAutoCompaction(t *testing.T) {
	b, objs, _ := testWorkload(t)
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// A tiny threshold forces compaction within a few batches.
	if err := db.Persist(dir, DurabilityOptions{CompactBytes: 8 << 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var ups []ObjectUpdate
		for j := 0; j < 20; j++ {
			o := db.Object(ObjectID(j))
			p := o.Center
			p.Pt.Y += 0.1
			ups = append(ups, ObjectUpdate{Op: UpdateMove, Object: object.PointObject(o.ID, p)})
		}
		if err := db.ApplyObjectUpdates(ups); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		compacted := true
		for _, e := range ents {
			if e.Name() == "checkpoint-00000000000000000000.ckpt" {
				compacted = false
			}
		}
		if compacted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no automatic compaction within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := saveBytes(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := saveBytes(t, db2); !bytes.Equal(want, got) {
		t.Fatal("state after auto-compaction differs")
	}
}

func TestStandaloneCheckpoint(t *testing.T) {
	b, objs, queries := testWorkload(t)
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Subscribe(SubscriptionSpec{Q: queries[0], K: 3}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "export.ckpt")
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, db), saveBytes(t, db2)) {
		t.Fatal("checkpoint export/import changed state")
	}
	assertSameAnswers(t, "durable", db, db2, queries)
	if db2.NumSubscriptions() != 1 {
		t.Fatalf("recovered %d subscriptions, want 1", db2.NumSubscriptions())
	}
	// The loaded DB is ephemeral but can be persisted afresh.
	dir := t.TempDir()
	if err := db2.Persist(dir, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db2.MoveObject(object.PointObject(0, queries[2])); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestClosedDBFailsStop(t *testing.T) {
	b, objs, _ := testWorkload(t)
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(t.TempDir(), DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := db.MoveObject(object.PointObject(0, Pos(1, 1, 0))); err == nil {
		t.Fatal("mutation accepted after Close")
	}
	// Queries still work.
	if _, _, err := db.RangeQuery(Pos(100, 50, 0), 80); err != nil {
		t.Fatal(err)
	}
}

// TestWALChurnOverheadSmoke checks the paced-churn overhead claim: with
// the WAL on (grouped commit), a writer offered a fixed churn rate must
// sustain at least 85% of the WAL-off throughput. It runs only with
// WAL_SMOKE=1 (CI gives it a dedicated step; locally it takes ~2s and
// depends on the disk).
func TestWALChurnOverheadSmoke(t *testing.T) {
	if os.Getenv("WAL_SMOKE") == "" {
		t.Skip("set WAL_SMOKE=1 to run the WAL overhead smoke")
	}
	const (
		perTick   = 100
		tickEvery = 10 * time.Millisecond
		duration  = 1 * time.Second
	)
	run := func(withWAL bool) float64 {
		b, objs, _ := testWorkload(t)
		db, _, err := Open(b, objs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if withWAL {
			if err := db.Persist(t.TempDir(), DurabilityOptions{}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
		}
		var applied atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := time.Now()
			i := 0
			ups := make([]index.ObjectUpdate, perTick)
			for {
				select {
				case <-stop:
					return
				default:
				}
				next = next.Add(tickEvery)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				for j := range ups {
					o := db.Object(ObjectID((i + j) % len(objs)))
					ups[j] = index.ObjectUpdate{Op: index.UpdateMove, Object: o}
				}
				i += perTick
				if err := db.ApplyObjectUpdates(ups); err != nil {
					t.Error(err)
					return
				}
				applied.Add(perTick)
			}
		}()
		start := time.Now()
		time.Sleep(duration)
		close(stop)
		wg.Wait()
		return float64(applied.Load()) / time.Since(start).Seconds()
	}
	off := run(false)
	on := run(true)
	ratio := on / off
	t.Logf("paced churn sustained: WAL off %.0f moves/s, WAL on %.0f moves/s (ratio %.3f)", off, on, ratio)
	if ratio < 0.85 {
		t.Fatalf("WAL overhead too high: sustained ratio %.3f < 0.85 ("+strconv.Itoa(perTick)+" moves/tick)", ratio)
	}
}

// TestInvalidObjectRefusedBeforeLog checks that an object recovery would
// refuse never reaches the log: a move whose probabilities sum to 0.5
// and an insert one instance past object.MaxInstances are refused, and
// the store reopens to the state before them.
func TestInvalidObjectRefusedBeforeLog(t *testing.T) {
	for _, c := range []struct {
		name  string
		apply func(db *DB, at Position) error
	}{
		{"move with half the probability mass", func(db *DB, at Position) error {
			o := object.PointObject(0, at)
			o.Instances[0].P = 0.5
			return db.MoveObject(o)
		}},
		{"insert past the instance cap", func(db *DB, at Position) error {
			n := object.MaxInstances + 1
			o := &object.Object{ID: 100000, Center: at, Instances: make([]object.Instance, n)}
			for i := range o.Instances {
				o.Instances[i] = object.Instance{Pos: at, P: 1 / float64(n)}
			}
			return db.InsertObject(o)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, objs, _ := testWorkload(t)
			db, _, err := Open(b, objs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := db.Persist(dir, DurabilityOptions{}); err != nil {
				t.Fatal(err)
			}
			want := saveBytes(t, db)
			if err := c.apply(db, db.Object(0).Center); err == nil {
				t.Fatal("invalid object accepted")
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := OpenDir(dir, DurabilityOptions{})
			if err != nil {
				t.Fatalf("reopen after a refused object: %v", err)
			}
			defer db2.Close()
			if got := saveBytes(t, db2); !bytes.Equal(got, want) {
				t.Fatal("recovered state differs from the state before the refused object")
			}
		})
	}
}
