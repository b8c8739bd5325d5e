package indoorq

// Time-travel property suite. The ground truth everywhere is an
// independent from-scratch oracle: a second, ephemeral DB replaying the
// same committed operations (id-allocation determinism makes the replay
// land on identical ids), captured or probed after every step. AsOf
// must reproduce those states byte-for-byte at every LSN; the log-scan
// analytics must agree with naive per-LSN full scans of the oracle; and
// the subscription event stream's LSN stamps must address exactly the
// memberships AsOf reconstructs.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/object"
	"repro/internal/store"
)

// seededProgram derives a deterministic byte program for
// runCrashProgram's interpreter.
func seededProgram(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// durableWorkload builds a durable DB, drives it through a seeded
// program (bracketed by a subscribe so subscription records are part of
// the timeline), syncs, and returns the DB plus the replayable ops.
func durableWorkload(t *testing.T, seed int64) (*DB, *Building, []Position, []durableOp) {
	t.Helper()
	freshDB := func() (*DB, *Building) {
		b, err := GenerateMall(MallSpec{Floors: 1})
		if err != nil {
			t.Fatal(err)
		}
		objs := GenerateObjects(b, ObjectSpec{N: 40, Radius: 6, Instances: 6, Seed: 11})
		db, _, err := Open(b, objs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db, b
	}
	db, b := freshDB()
	if err := db.Persist(t.TempDir(), DurabilityOptions{CompactBytes: -1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	queries := GenerateQueryPoints(b, 2, seed)

	var ops []durableOp
	spec := SubscriptionSpec{Q: queries[0], R: 120}
	if _, _, err := db.Subscribe(spec); err != nil {
		t.Fatal(err)
	}
	ops = append(ops, durableOp{desc: "Subscribe", apply: func(db *DB, b *Building) {
		if _, _, err := db.Subscribe(spec); err != nil {
			t.Fatal(err)
		}
	}})
	ops = append(ops, runCrashProgram(t, db, b, seededProgram(seed, 32))...)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := db.Store().WrittenLSN(); got != uint64(len(ops)) {
		t.Fatalf("written horizon %d, want %d (one record per op)", got, len(ops))
	}
	return db, b, queries, ops
}

// oracleCaptures replays ops on a fresh ephemeral DB, capturing the
// canonical state after every step: the from-scratch ground truth for
// AsOf. Requires the same generator parameters as durableWorkload.
func oracleCaptures(t *testing.T, ops []durableOp) []store.Data {
	t.Helper()
	b, err := GenerateMall(MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := GenerateObjects(b, ObjectSpec{N: 40, Radius: 6, Instances: 6, Seed: 11})
	oracle, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capture := func(lsn uint64) store.Data {
		d, err := store.Capture(oracle.idx, oracle.subRecs(), lsn)
		if err != nil {
			t.Fatal(err)
		}
		return normData(d)
	}
	out := make([]store.Data, len(ops)+1)
	out[0] = capture(0)
	for k, op := range ops {
		op.apply(oracle, b)
		out[k+1] = capture(uint64(k + 1))
	}
	return out
}

// TestAsOfFuzzOracle: on a LIVE durable leader, AsOf(lsn) must be
// byte-equal to the from-scratch oracle at every LSN of five seeded
// fuzz-program workloads, the horizon view must answer queries
// identically to the live processor, and one past the horizon must
// refuse with ErrHistoryFuture. Walking the LSNs in order must be
// served by the nearest-ancestor cache: one materialization total.
func TestAsOfFuzzOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			db, _, queries, ops := durableWorkload(t, seed)
			want := oracleCaptures(t, ops)
			hp := db.History()
			for lsn := 0; lsn <= len(ops); lsn++ {
				got, err := hp.CaptureAt(uint64(lsn))
				if err != nil {
					t.Fatalf("CaptureAt(%d): %v", lsn, err)
				}
				if !reflect.DeepEqual(normData(got), want[lsn]) {
					t.Fatalf("seed %d: AsOf state at lsn %d diverged from the from-scratch oracle (op %q)",
						seed, lsn, ops[max(lsn-1, 0)].desc)
				}
			}
			st := hp.Stats()
			if st.Materializations != 1 {
				t.Fatalf("ascending sweep materialized %d times, want 1 (nearest-ancestor reuse)", st.Materializations)
			}

			// The horizon view answers exactly like the live processor.
			h := uint64(len(ops))
			v, err := db.AsOf(h)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				got, _, err := v.RangeQuery(q, 120)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := db.RangeQuery(q, 120)
				if err != nil {
					t.Fatal(err)
				}
				sameResultsLoose(t, "AsOf(horizon)/iRQ", got, want)
				gk, _, err := v.KNNQuery(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				wk, _, err := db.KNNQuery(q, 8)
				if err != nil {
					t.Fatal(err)
				}
				sameResultsLoose(t, "AsOf(horizon)/ikNN", gk, wk)
				_ = qi
			}

			// Exact-LSN view reuse is cached.
			before := hp.Stats().ViewHits
			if _, err := db.AsOf(h); err != nil {
				t.Fatal(err)
			}
			if hp.Stats().ViewHits != before+1 {
				t.Fatalf("repeated AsOf(%d) missed the view cache", h)
			}

			// Beyond the horizon: a clean bounds error.
			if _, err := db.AsOf(h + 1); !errors.Is(err, ErrHistoryFuture) {
				t.Fatalf("AsOf past the horizon: got %v, want ErrHistoryFuture", err)
			}
		})
	}
}

// pidTable maps every live object to the partition containing its
// center (absent objects are simply missing).
func pidTable(db *DB) map[ObjectID]PartitionID {
	m := make(map[ObjectID]PartitionID)
	objs := db.idx.Current().Objects()
	for _, id := range objs.IDs() {
		m[id] = db.LocatePartition(objs.Get(id).Center)
	}
	return m
}

// naiveTrajectory derives the visit list from per-LSN full scans:
// coalesce the object's partition over [from, to], splitting on
// out-of-partition gaps.
func naiveTrajectory(tables []map[ObjectID]PartitionID, id ObjectID, from, to uint64) []HistoryVisit {
	visits := []HistoryVisit{}
	cur := PartitionID(-1)
	for k := from; k <= to; k++ {
		pid, ok := tables[k][id]
		if !ok || pid < 0 {
			cur = -1
			continue
		}
		if pid != cur {
			visits = append(visits, HistoryVisit{Partition: pid, EnterLSN: k, LastLSN: k})
			cur = pid
		}
	}
	return visits
}

// naiveOccupancy derives the occupancy answer from per-LSN full scans.
func naiveOccupancy(tables []map[ObjectID]PartitionID, part PartitionID, from, to uint64) HistoryOccupancy {
	var occ HistoryOccupancy
	for _, pid := range tables[from] {
		if pid == part {
			occ.Initial++
		}
	}
	for k := from + 1; k <= to; k++ {
		prev, next := tables[k-1], tables[k]
		seen := make(map[ObjectID]bool)
		for id := range prev {
			seen[id] = true
		}
		for id := range next {
			seen[id] = true
		}
		for id := range seen {
			old, ok := prev[id]
			if !ok {
				old = -1
			}
			new_, ok := next[id]
			if !ok {
				new_ = -1
			}
			if old == new_ {
				continue
			}
			if old == part {
				occ.Leaves++
			}
			if new_ == part {
				occ.Enters++
			}
		}
	}
	occ.Final = occ.Initial + occ.Enters - occ.Leaves
	return occ
}

// TestTrajectoryOccupancyOracle: the single-pass log-scan analytics
// must agree with naive per-LSN full scans of the from-scratch oracle,
// over full and interior windows, for every object and every partition
// the workload touched.
func TestTrajectoryOccupancyOracle(t *testing.T) {
	db, _, _, ops := durableWorkload(t, 3)
	n := uint64(len(ops))

	// Oracle per-LSN location tables.
	b, err := GenerateMall(MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := GenerateObjects(b, ObjectSpec{N: 40, Radius: 6, Instances: 6, Seed: 11})
	oracle, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]map[ObjectID]PartitionID, len(ops)+1)
	tables[0] = pidTable(oracle)
	for k, op := range ops {
		op.apply(oracle, b)
		tables[k+1] = pidTable(oracle)
	}

	ids := make(map[ObjectID]bool)
	parts := make(map[PartitionID]bool)
	for _, tab := range tables {
		for id, pid := range tab {
			ids[id] = true
			if pid >= 0 {
				parts[pid] = true
			}
		}
	}
	windows := [][2]uint64{{0, n}, {n / 3, 2 * n / 3}, {n / 2, n / 2}}

	for _, w := range windows {
		from, to := w[0], w[1]
		for id := range ids {
			got, err := db.Trajectory(id, from, to)
			if err != nil {
				t.Fatalf("Trajectory(%d, %d, %d): %v", id, from, to, err)
			}
			want := naiveTrajectory(tables, id, from, to)
			if len(got) != len(want) {
				t.Fatalf("object %d window [%d,%d]: %d visits, oracle %d\n got %+v\nwant %+v",
					id, from, to, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].Partition != want[i].Partition || got[i].EnterLSN != want[i].EnterLSN {
					t.Fatalf("object %d window [%d,%d] visit %d: got %+v, oracle %+v",
						id, from, to, i, got[i], want[i])
				}
				if got[i].LastLSN < got[i].EnterLSN || got[i].LastLSN > to {
					t.Fatalf("object %d visit %d: LastLSN %d outside [%d,%d]",
						id, i, got[i].LastLSN, got[i].EnterLSN, to)
				}
			}
		}
		for part := range parts {
			got, err := db.Occupancy(part, from, to)
			if err != nil {
				t.Fatalf("Occupancy(%d, %d, %d): %v", part, from, to, err)
			}
			if want := naiveOccupancy(tables, part, from, to); got != want {
				t.Fatalf("partition %d window [%d,%d]: got %+v, oracle %+v", part, from, to, got, want)
			}
		}
	}

	// Inverted and future windows refuse cleanly.
	if _, err := db.Trajectory(0, 3, 1); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := db.Occupancy(0, 0, n+1); !errors.Is(err, ErrHistoryFuture) {
		t.Fatalf("future window: got %v, want ErrHistoryFuture", err)
	}
}

// TestEventLSNAddressesAsOfState is the Seq<->LSN correlation contract:
// folding the subscription event stream up to (and including) the
// events stamped with LSN L must land on exactly the membership
// AsOf(L) reconstructs — the event stream and the durability timeline
// describe the same states.
func TestEventLSNAddressesAsOfState(t *testing.T) {
	db, b, queries, _ := durableWorkload(t, 4)
	q, r := queries[0], 120.0

	// Current subscription 0 is the range sub at (q, 120) installed by
	// durableWorkload; rebuild the membership baseline and stir more
	// churn so the event stream is non-trivial.
	db.Events() // discard everything emitted during the program
	members := make(map[ObjectID]bool)
	for _, id := range db.SubscriptionResults(0) {
		members[id] = true
	}
	baseLSN := db.Store().WrittenLSN()

	rng := rand.New(rand.NewSource(99))
	moved := 0
	for i := 0; moved < 24 && i < 400; i++ {
		oid := ObjectID(rng.Intn(40))
		if db.Object(oid) == nil {
			continue
		}
		var pos Position
		if i%2 == 0 {
			pos = Pos(q.Pt.X+4*float64(rng.Intn(5)), q.Pt.Y+4*float64(rng.Intn(5)), q.Floor)
		} else {
			pos = Pos(600*rng.Float64(), 600*rng.Float64(), 0)
		}
		if db.LocatePartition(pos) < 0 {
			continue
		}
		if err := db.MoveObject(object.PointObject(oid, pos)); err != nil {
			t.Fatal(err)
		}
		moved++
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	events := db.Events()
	if len(events) == 0 {
		t.Fatal("churn produced no subscription events; the correlation check is vacuous")
	}

	check := func(lsn uint64) {
		t.Helper()
		v, err := db.AsOf(lsn)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", lsn, err)
		}
		res, _, err := v.RangeQuery(q, r)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[ObjectID]bool)
		for _, re := range res {
			got[re.ID] = true
		}
		if !reflect.DeepEqual(got, members) {
			t.Fatalf("membership at lsn %d: event fold has %d members, AsOf has %d\nfold: %v\nAsOf: %v",
				lsn, len(members), len(got), members, got)
		}
	}

	check(baseLSN)
	for i, ev := range events {
		if ev.LSN == 0 {
			t.Fatalf("event %d carries no LSN stamp on a durable engine: %+v", i, ev)
		}
		switch ev.Kind {
		case SubEnter:
			members[ev.Object] = true
		case SubLeave:
			delete(members, ev.Object)
		}
		// Fold the whole commit before comparing: a batch's events share
		// one LSN.
		if i+1 < len(events) && events[i+1].LSN == ev.LSN {
			continue
		}
		check(ev.LSN)
	}
	_ = b
}

// TestHistoryPrunedAfterCompact: compaction deletes the generations
// below its cut; AsOf and the scans must then refuse those LSNs with
// ErrHistoryPruned — a documented refusal, never a wrong answer — while
// the retained suffix keeps serving.
func TestHistoryPrunedAfterCompact(t *testing.T) {
	db, _, _, ops := durableWorkload(t, 5)
	cut := uint64(len(ops))
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AsOf(cut - 1); !errors.Is(err, ErrHistoryPruned) {
		t.Fatalf("AsOf below the compaction cut: got %v, want ErrHistoryPruned", err)
	}
	if _, err := db.Trajectory(0, 0, cut); !errors.Is(err, ErrHistoryPruned) {
		t.Fatalf("Trajectory across pruned history: got %v, want ErrHistoryPruned", err)
	}
	if _, err := db.Occupancy(0, cut-1, cut); !errors.Is(err, ErrHistoryPruned) {
		t.Fatalf("Occupancy across pruned history: got %v, want ErrHistoryPruned", err)
	}
	// The cut itself — the compaction checkpoint — still serves, as does
	// history committed after it.
	if _, err := db.AsOf(cut); err != nil {
		t.Fatalf("AsOf at the compaction cut: %v", err)
	}
	if err := db.SetDoorClosed(db.Building().Doors()[0].ID, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AsOf(cut + 1); err != nil {
		t.Fatalf("AsOf after the compaction cut: %v", err)
	}
}

// TestHistoryEphemeralRefused: an ephemeral DB has no log to travel
// through.
func TestHistoryEphemeralRefused(t *testing.T) {
	b, err := GenerateMall(MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := Open(b, GenerateObjects(b, ObjectSpec{N: 10, Radius: 6, Instances: 2, Seed: 1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AsOf(0); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ephemeral AsOf: got %v, want ErrNotDurable", err)
	}
	if _, err := db.Trajectory(0, 0, 0); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ephemeral Trajectory: got %v, want ErrNotDurable", err)
	}
	if _, err := db.Occupancy(0, 0, 0); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("ephemeral Occupancy: got %v, want ErrNotDurable", err)
	}
}
