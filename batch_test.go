package indoorq

// Serial/parallel equivalence tests for the batch serving layer, the
// correctness contract of BatchRangeQuery/BatchKNNQuery: for any seed, the
// batch answers must be byte-identical (IDs and distance bits) to looping
// the serial queries — parallelism must never change an answer, whatever
// the fan-out width (more workers than requests included), and a failing
// query fails alone. A batch fans out GOMAXPROCS wide, so each test sets
// its width with runtime.GOMAXPROCS and restores it on return. Throughput
// is measured, not asserted: BenchmarkBatchThroughput under -cpu reports
// the width sweep.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// batchFixture is the acceptance workload of the serving layer: the
// Floors=2 mall with N=1000 objects.
func batchFixture(t testing.TB, seed int64) (*DB, []Position) {
	t.Helper()
	b, err := gen.Mall(gen.MallSpec{Floors: 2})
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects(b, gen.ObjectSpec{N: 1000, Radius: 8, Instances: 20, Seed: seed})
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db, gen.QueryPoints(b, 24, seed*7+1)
}

// sameResults compares two result slices exactly: same IDs in the same
// order and bit-identical distances (NaN marks bound-accepted iRQ results;
// identical code paths must produce identical bits).
func sameResults(t *testing.T, label string, serial, batch []Result) {
	t.Helper()
	if len(serial) != len(batch) {
		t.Fatalf("%s: serial %d results, batch %d", label, len(serial), len(batch))
	}
	for i := range serial {
		if serial[i].ID != batch[i].ID {
			t.Fatalf("%s: result %d id: serial %d, batch %d", label, i, serial[i].ID, batch[i].ID)
		}
		sb, bb := math.Float64bits(serial[i].Distance), math.Float64bits(batch[i].Distance)
		if sb != bb {
			t.Fatalf("%s: result %d (object %d) distance: serial %v (bits %x), batch %v (bits %x)",
				label, i, serial[i].ID, serial[i].Distance, sb, batch[i].Distance, bb)
		}
	}
}

func TestBatchRangeEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, seed := range []int64{1, 2, 3} {
		db, queries := batchFixture(t, seed)
		reqs := make([]RangeRequest, 0, len(queries)*2)
		for i, q := range queries {
			reqs = append(reqs, RangeRequest{Q: q, R: 60 + float64(i%3)*40})
		}
		serial := make([][]Result, len(reqs))
		for i, r := range reqs {
			res, _, err := db.RangeQuery(r.Q, r.R)
			if err != nil {
				t.Fatalf("seed %d: serial query %d: %v", seed, i, err)
			}
			serial[i] = res
		}
		resps, m := db.BatchRangeQuery(reqs, ServeConfig{})
		if m.Queries != len(reqs) || m.Errors != 0 {
			t.Fatalf("seed %d: metrics %d queries %d errors, want %d and 0", seed, m.Queries, m.Errors, len(reqs))
		}
		for i := range reqs {
			if resps[i].Err != nil {
				t.Fatalf("seed %d: batch query %d: %v", seed, i, resps[i].Err)
			}
			sameResults(t, "iRQ", serial[i], resps[i].Results)
		}
	}
}

// TestRangeBatchOrderAndEquivalence: every request has its own radius, so
// a response written to the wrong slot shows; responses come back in
// request order, each with its stats, and match the serial query exactly
// for several worker counts, more workers than requests included.
func TestRangeBatchOrderAndEquivalence(t *testing.T) {
	db, queries := batchFixture(t, 7)
	reqs := make([]RangeRequest, len(queries))
	for i, q := range queries {
		reqs[i] = RangeRequest{Q: q, R: 50 + float64(i)*10}
	}
	serial := make([][]Result, len(reqs))
	for i, r := range reqs {
		res, _, err := db.RangeQuery(r.Q, r.R)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		serial[i] = res
	}
	for _, workers := range []int{1, 3, 64} {
		prev := runtime.GOMAXPROCS(workers)
		resps, m := db.BatchRangeQuery(reqs, ServeConfig{})
		runtime.GOMAXPROCS(prev)
		if len(resps) != len(reqs) || m.Queries != len(reqs) || m.Errors != 0 {
			t.Fatalf("workers %d: %d responses, metrics %d queries %d errors, want %d, %d and 0",
				workers, len(resps), m.Queries, m.Errors, len(reqs), len(reqs))
		}
		for i := range reqs {
			if resps[i].Err != nil {
				t.Fatalf("workers %d: batch query %d: %v", workers, i, resps[i].Err)
			}
			if resps[i].Stats == nil {
				t.Fatalf("workers %d: batch query %d: nil stats", workers, i)
			}
			sameResults(t, "iRQ", serial[i], resps[i].Results)
		}
	}
}

// TestEmptyBatch: no requests, no panic, zeroed metrics.
func TestEmptyBatch(t *testing.T) {
	db, _ := batchFixture(t, 1)
	if resps, m := db.BatchRangeQuery(nil, ServeConfig{}); len(resps) != 0 || m.Queries != 0 || m.Errors != 0 || m.Throughput != 0 {
		t.Fatalf("empty range batch: %d responses, metrics %+v", len(resps), m)
	}
	if resps, m := db.BatchKNNQuery(nil, ServeConfig{}); len(resps) != 0 || m.Queries != 0 || m.Errors != 0 || m.Throughput != 0 {
		t.Fatalf("empty kNN batch: %d responses, metrics %+v", len(resps), m)
	}
}

func TestBatchKNNEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, seed := range []int64{4, 5, 6} {
		db, queries := batchFixture(t, seed)
		reqs := make([]KNNRequest, 0, len(queries))
		for i, q := range queries {
			reqs = append(reqs, KNNRequest{Q: q, K: 5 + i%3*10})
		}
		serial := make([][]Result, len(reqs))
		for i, r := range reqs {
			res, _, err := db.KNNQuery(r.Q, r.K)
			if err != nil {
				t.Fatalf("seed %d: serial kNN %d: %v", seed, i, err)
			}
			serial[i] = res
		}
		resps, _ := db.BatchKNNQuery(reqs, ServeConfig{})
		for i := range reqs {
			if resps[i].Err != nil {
				t.Fatalf("seed %d: batch kNN %d: %v", seed, i, resps[i].Err)
			}
			sameResults(t, "ikNN", serial[i], resps[i].Results)
		}
	}
}

// TestKNNBatchErrorPropagation: a query point outside every partition
// errors for that request only, the requests around it still match their
// serial answers, and the metrics count the one failure.
func TestKNNBatchErrorPropagation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	db, queries := batchFixture(t, 7)
	reqs := []KNNRequest{
		{Q: queries[0], K: 5},
		{Q: Pos(-5000, -5000, 0), K: 5},
		{Q: queries[1], K: 5},
	}
	resps, m := db.BatchKNNQuery(reqs, ServeConfig{})
	if m.Queries != len(reqs) || m.Errors != 1 {
		t.Fatalf("metrics %d queries %d errors, want %d and 1", m.Queries, m.Errors, len(reqs))
	}
	if resps[1].Err == nil {
		t.Fatal("the outside-building kNN did not error")
	}
	for _, i := range []int{0, 2} {
		if resps[i].Err != nil {
			t.Fatalf("in-building kNN %d errored: %v", i, resps[i].Err)
		}
		serial, _, err := db.KNNQuery(reqs[i].Q, reqs[i].K)
		if err != nil {
			t.Fatalf("serial kNN %d: %v", i, err)
		}
		sameResults(t, "ikNN", serial, resps[i].Results)
	}
}

// TestBatchWhileWriting checks that a batch running concurrently with
// writers completes without error — answers are time-dependent, so only
// integrity is asserted.
func TestBatchWhileWriting(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, queries := batchFixture(t, 9)
	reqs := make([]RangeRequest, 0, 48)
	for i := 0; i < 48; i++ {
		reqs = append(reqs, RangeRequest{Q: queries[i%len(queries)], R: 80})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			o := db.Object(ObjectID(i))
			if o == nil {
				continue
			}
			if err := db.UpdateObject(o); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	resps, m := db.BatchRangeQuery(reqs, ServeConfig{})
	<-done
	if m.Errors != 0 {
		t.Fatalf("batch under writes: %d errors", m.Errors)
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("batch under writes: query %d: %v", i, r.Err)
		}
	}
	if err := db.Index().Current().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
