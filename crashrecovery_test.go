package indoorq

// Crash-recovery property suite: the WAL is truncated at every record
// boundary and at every byte offset of the final record, and recovery
// from each truncation must reproduce EXACTLY the state of an oracle DB
// that applied only the durable prefix of operations — serde document
// bytes, invariants, query answers and re-registered subscriptions.
// The workload source is the fuzz topology-mutation program format
// (FuzzTopologyMutations' corpus seeds drive the same op mix: door
// toggles, splits, merges, detach/re-attach cycles, moves, plus inserts
// and deletes), with each program step recorded as a replayable
// operation with its parameters resolved at execution time — id
// allocation determinism makes the oracle replay land on identical ids.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/object"
	"repro/internal/store"
)

// durableOp is one committed operation: a closure replaying it against
// the oracle with fully resolved parameters.
type durableOp struct {
	desc  string
	apply func(db *DB, b *Building)
}

// crashPrograms are the workload sources: the fuzz corpus seeds plus two
// longer mixes. Each byte program drives runCrashProgram's interpreter.
var crashPrograms = [][]byte{
	{2, 10, 0, 40, 3, 2, 11, 1, 200, 3},
	{0, 7, 0, 7, 4, 3, 5, 9, 22, 5, 250, 80},
	{2, 0, 0, 128, 2, 1, 1, 128, 3, 3, 4, 0, 4, 1},
	{5, 1, 100, 90, 6, 30, 40, 0, 3, 7, 12, 5, 2, 60, 2, 4, 1, 128, 5, 9, 200, 30, 6, 99, 99, 3, 7, 0, 1, 2, 0, 5},
}

// runCrashProgram drives db through one byte program, returning one
// durableOp per committed WAL record (verified by the caller against
// the log). Mutations that do not commit (rejected splits, unknown
// ids) are not recorded — they never reached the log either.
func runCrashProgram(t *testing.T, db *DB, b *Building, data []byte) []durableOp {
	t.Helper()
	var ops []durableOp
	// logged wraps a mutator: the op is recorded iff it published a
	// snapshot — the exact condition under which the commit hook
	// appended a record. Reconciliation errors after the commit are
	// deliberately ignored on both sides.
	logged := func(desc string, apply func(db *DB, b *Building)) {
		before := db.SnapshotSwaps()
		apply(db, b)
		after := db.SnapshotSwaps()
		if after == before {
			return
		}
		if after != before+1 {
			t.Fatalf("%s published %d snapshots, want 1", desc, after-before)
		}
		ops = append(ops, durableOp{desc: desc, apply: apply})
	}

	i := 0
	next := func() (byte, bool) {
		if i >= len(data) {
			return 0, false
		}
		v := data[i]
		i++
		return v, true
	}
	type splitPair struct{ a, b PartitionID }
	var splits []splitPair
	nextInsert := ObjectID(1000)

	for {
		op, ok := next()
		if !ok {
			return ops
		}
		switch op % 8 {
		case 0, 1: // toggle a door
			v, ok := next()
			if !ok {
				return ops
			}
			doors := b.Doors()
			if len(doors) == 0 {
				break
			}
			did := doors[int(v)%len(doors)].ID
			closed := op%8 == 0
			logged("SetDoorClosed", func(db *DB, b *Building) {
				_ = db.SetDoorClosed(did, closed)
			})
		case 2: // split a partition
			pv, ok1 := next()
			axis, ok2 := next()
			frac, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				return ops
			}
			parts := b.Partitions()
			if len(parts) == 0 {
				break
			}
			p := parts[int(pv)%len(parts)]
			bounds := p.Bounds()
			alongX := axis%2 == 0
			var at float64
			if alongX {
				at = bounds.MinX + (bounds.MaxX-bounds.MinX)*(0.1+0.8*float64(frac)/255)
			} else {
				at = bounds.MinY + (bounds.MaxY-bounds.MinY)*(0.1+0.8*float64(frac)/255)
			}
			pid := p.ID
			var pa, pb PartitionID
			logged("SplitPartition", func(db *DB, b *Building) {
				pa, pb, _ = db.SplitPartition(pid, alongX, at)
			})
			if pa >= 0 && pb >= 0 && pa != pb {
				splits = append(splits, splitPair{a: pa, b: pb})
			}
		case 3: // merge the last split pair
			if len(splits) == 0 {
				break
			}
			sp := splits[len(splits)-1]
			splits = splits[:len(splits)-1]
			logged("MergePartitions", func(db *DB, b *Building) {
				_, _ = db.MergePartitions(sp.a, sp.b)
			})
		case 4: // detach a door, re-attach an equivalent one
			v, ok := next()
			if !ok {
				return ops
			}
			doors := b.Doors()
			if len(doors) == 0 {
				break
			}
			d := doors[int(v)%len(doors)]
			did, pos, floor, p1, p2 := d.ID, d.Pos, d.Floor, d.P1, d.P2
			logged("DetachDoor", func(db *DB, b *Building) {
				_ = db.DetachDoor(did)
			})
			logged("AddDoor", func(db *DB, b *Building) {
				_, _ = db.AddDoor(Door{Pos: pos, Floor: floor, P1: p1, P2: p2})
			})
		case 5: // move an object
			ov, ok1 := next()
			xv, ok2 := next()
			yv, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				return ops
			}
			oid := ObjectID(int(ov) % 40)
			if db.Object(oid) == nil {
				break
			}
			pos := Pos(600*float64(xv)/255, 600*float64(yv)/255, 0)
			if db.LocatePartition(pos) < 0 {
				break
			}
			logged("MoveObject", func(db *DB, b *Building) {
				_ = db.MoveObject(object.PointObject(oid, pos))
			})
		case 6: // insert a fresh point object
			xv, ok1 := next()
			yv, ok2 := next()
			if !ok1 || !ok2 {
				return ops
			}
			pos := Pos(600*float64(xv)/255, 600*float64(yv)/255, 0)
			if db.LocatePartition(pos) < 0 {
				break
			}
			oid := nextInsert
			nextInsert++
			logged("InsertObject", func(db *DB, b *Building) {
				_ = db.InsertObject(object.PointObject(oid, pos))
			})
		default: // delete an object
			ov, ok := next()
			if !ok {
				return ops
			}
			oid := ObjectID(int(ov) % 40)
			if db.Object(oid) == nil {
				break
			}
			logged("DeleteObject", func(db *DB, b *Building) {
				_ = db.DeleteObject(oid)
			})
		}
	}
}

// subHandles returns the registered subscription specs (serde form) for
// comparison between recovered and oracle engines.
func subState(db *DB) (specs []any, results map[int][]ObjectID) {
	results = make(map[int][]ObjectID)
	for _, rec := range db.subRecs() {
		specs = append(specs, rec)
		results[int(rec.ID)] = db.SubscriptionResults(int(rec.ID))
	}
	return specs, results
}

func TestCrashRecoveryKillAtAnyOffset(t *testing.T) {
	for pi, prog := range crashPrograms {
		prog := prog
		t.Run("", func(t *testing.T) {
			// Live DB with persistence from the start. Compaction is
			// disabled so generation 0 holds the entire log.
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
			dir := t.TempDir()
			if err := db.Persist(dir, DurabilityOptions{CompactBytes: -1}); err != nil {
				t.Fatal(err)
			}
			queries := GenerateQueryPoints(b, 2, 12)

			// Standing queries participate in the durable timeline: two
			// up front, one unsubscribed mid-program.
			var ops []durableOp
			subscribe := func(spec SubscriptionSpec) {
				if _, _, err := db.Subscribe(spec); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, durableOp{desc: "Subscribe", apply: func(db *DB, b *Building) {
					if _, _, err := db.Subscribe(spec); err != nil {
						t.Fatal(err)
					}
				}})
			}
			subscribe(SubscriptionSpec{Q: queries[0], R: 120})
			subscribe(SubscriptionSpec{Q: queries[1], K: 5})

			half := len(prog) / 2
			ops = append(ops, runCrashProgram(t, db, b, prog[:half])...)
			victim := 0 // the range subscription
			if db.Unsubscribe(victim) {
				ops = append(ops, durableOp{desc: "Unsubscribe", apply: func(db *DB, b *Building) {
					db.Unsubscribe(victim)
				}})
			}
			ops = append(ops, runCrashProgram(t, db, b, prog[half:])...)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			walPath := filepath.Join(dir, "wal-00000000000000000000.log")
			full, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			ends, err := store.RecordEnds(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(ends) != len(ops) {
				t.Fatalf("program %d: %d WAL records vs %d recorded operations — the 1:1 mapping broke", pi, len(ends), len(ops))
			}
			ckptRaw, err := os.ReadFile(filepath.Join(dir, "checkpoint-00000000000000000000.ckpt"))
			if err != nil {
				t.Fatal(err)
			}

			// recoverAt opens a copy of the store truncated to cut bytes.
			recoverAt := func(cut int64) *DB {
				t.Helper()
				cdir := t.TempDir()
				if err := os.WriteFile(filepath.Join(cdir, "checkpoint-00000000000000000000.ckpt"), ckptRaw, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cdir, "wal-00000000000000000000.log"), full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				rdb, err := OpenDir(cdir, DurabilityOptions{CompactBytes: -1})
				if err != nil {
					t.Fatalf("recovery at cut %d: %v", cut, err)
				}
				return rdb
			}

			// oracle replays the durable prefix on an ephemeral DB; it
			// advances incrementally as the boundary sweep walks forward.
			oracle, ob := freshDB()
			compare := func(cut int64, k int) {
				t.Helper()
				rdb := recoverAt(cut)
				defer rdb.Close()
				if err := rdb.Index().Current().CheckInvariants(); err != nil {
					t.Fatalf("cut %d (%d ops durable): invariants: %v", cut, k, err)
				}
				want, got := saveBytes(t, oracle), saveBytes(t, rdb)
				if !bytes.Equal(want, got) {
					t.Fatalf("cut %d (%d ops durable, last %q): serde state diverged", cut, k, ops[max(k-1, 0)].desc)
				}
				assertSameAnswers(t, "crash", oracle, rdb, queries)
				oSpecs, oResults := subState(oracle)
				rSpecs, rResults := subState(rdb)
				if !reflect.DeepEqual(oSpecs, rSpecs) {
					t.Fatalf("cut %d (%d ops durable): subscriptions %v, oracle %v", cut, k, rSpecs, oSpecs)
				}
				if !reflect.DeepEqual(oResults, rResults) {
					t.Fatalf("cut %d (%d ops durable): subscription results %v, oracle %v", cut, k, rResults, oResults)
				}
			}

			// Sweep every record boundary (incl. the empty log)...
			compare(0, 0)
			for k, end := range ends {
				ops[k].apply(oracle, ob)
				if k < len(ends)-1 {
					compare(end, k+1)
				} else if end != int64(len(full)) {
					t.Fatalf("final record ends at %d, file has %d bytes", end, len(full))
				}
			}
			// ...then every byte offset of the final record: all must
			// recover to the durable prefix without the final op. The
			// oracle rolls back by replaying all but the last op.
			oracle, ob = freshDB()
			for _, op := range ops[:len(ops)-1] {
				op.apply(oracle, ob)
			}
			lo := int64(0)
			if len(ends) > 1 {
				lo = ends[len(ends)-2]
			}
			for cut := lo + 1; cut < int64(len(full)); cut++ {
				compare(cut, len(ops)-1)
			}
			// And the full log recovers the final op.
			ops[len(ops)-1].apply(oracle, ob)
			compare(int64(len(full)), len(ops))
		})
	}
}

// normData canonicalizes checkpoint data for comparison: subscription
// registration order is not part of the state.
func normData(d store.Data) store.Data {
	subs := append([]SubscriptionRec(nil), d.Subs...)
	sort.Slice(subs, func(i, j int) bool { return subs[i].ID < subs[j].ID })
	d.Subs = subs
	return d
}

// TestCrashRecoveryAsOfOracle extends the kill-at-any-boundary sweep
// into the time dimension: after truncating the WAL at EVERY record
// boundary and recovering, AsOf must reconstruct — byte-for-byte — the
// state after every LSN inside the durable prefix, and must refuse any
// LSN past the durable tail with the clean ErrHistoryFuture bound
// (never a stale or partial answer).
func TestCrashRecoveryAsOfOracle(t *testing.T) {
	for pi, prog := range crashPrograms {
		prog := prog
		t.Run("", func(t *testing.T) {
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
			dir := t.TempDir()
			if err := db.Persist(dir, DurabilityOptions{CompactBytes: -1}); err != nil {
				t.Fatal(err)
			}
			queries := GenerateQueryPoints(b, 2, 12)

			// Same durable timeline shape as the byte-offset sweep:
			// standing queries bracket the mutation program so history
			// reconstruction covers subscription records too.
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
			ops = append(ops, runCrashProgram(t, db, b, prog)...)
			if db.Unsubscribe(0) {
				ops = append(ops, durableOp{desc: "Unsubscribe", apply: func(db *DB, b *Building) {
					db.Unsubscribe(0)
				}})
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			walPath := filepath.Join(dir, "wal-00000000000000000000.log")
			full, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			ends, err := store.RecordEnds(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(ends) != len(ops) {
				t.Fatalf("program %d: %d WAL records vs %d recorded operations", pi, len(ends), len(ops))
			}
			ckptRaw, err := os.ReadFile(filepath.Join(dir, "checkpoint-00000000000000000000.ckpt"))
			if err != nil {
				t.Fatal(err)
			}

			// The from-scratch oracle: an independent replay of the
			// durable operations, captured after every step. oracleData[k]
			// is the canonical state after LSN k (k ops applied).
			oracle, ob := freshDB()
			oracleData := make([]store.Data, len(ops)+1)
			captureOracle := func(lsn uint64) store.Data {
				d, err := store.Capture(oracle.idx, oracle.subRecs(), lsn)
				if err != nil {
					t.Fatal(err)
				}
				return normData(d)
			}
			oracleData[0] = captureOracle(0)
			for k, op := range ops {
				op.apply(oracle, ob)
				oracleData[k+1] = captureOracle(uint64(k + 1))
			}

			recoverAt := func(cut int64) *DB {
				t.Helper()
				cdir := t.TempDir()
				if err := os.WriteFile(filepath.Join(cdir, "checkpoint-00000000000000000000.ckpt"), ckptRaw, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cdir, "wal-00000000000000000000.log"), full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				rdb, err := OpenDir(cdir, DurabilityOptions{CompactBytes: -1})
				if err != nil {
					t.Fatalf("recovery at cut %d: %v", cut, err)
				}
				return rdb
			}

			sweep := func(cut int64, k int) {
				t.Helper()
				rdb := recoverAt(cut)
				defer rdb.Close()
				hp := rdb.History()
				for lsn := 0; lsn <= k; lsn++ {
					got, err := hp.CaptureAt(uint64(lsn))
					if err != nil {
						t.Fatalf("cut %d: CaptureAt(%d): %v", cut, lsn, err)
					}
					if !reflect.DeepEqual(normData(got), oracleData[lsn]) {
						t.Fatalf("cut %d: AsOf state at lsn %d diverged from the from-scratch oracle (last durable op %q)",
							cut, lsn, ops[max(lsn-1, 0)].desc)
					}
				}
				// One past the durable tail: a clean bounds error, through
				// the facade the way a caller would hit it.
				if _, err := rdb.AsOf(uint64(k) + 1); !errors.Is(err, ErrHistoryFuture) {
					t.Fatalf("cut %d: AsOf(%d) past the durable tail: got %v, want ErrHistoryFuture", cut, k+1, err)
				}
			}

			sweep(0, 0)
			for k, end := range ends {
				sweep(end, k+1)
			}
		})
	}
}
