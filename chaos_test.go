package indoorq

// Chaos property suite for the durability layer: randomized but
// seed-deterministic filesystem fault plans (failing fsyncs, ENOSPC
// short writes) are injected under a paced churn workload, and the
// engine must honour the fail-stop contract end to end:
//
//   - The batch whose log I/O failed and EVERY later batch return an
//     error — no silent acceptance after the log poisoned itself.
//   - Queries keep answering in the degraded state, and Close neither
//     panics nor hangs.
//   - Recovery from the surviving directory replays some prefix of the
//     committed batches; that prefix must cover every batch whose
//     durability barrier (Sync) was acknowledged — no
//     acknowledged-then-lost write — and the recovered state must be
//     byte-identical to an oracle that folded exactly that prefix.
//
// Each seed produces one fault plan; CI sweeps several seeds under
// -race (the chaos smoke step).

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fsfault"
	"repro/internal/object"
)

// chaosWorkload regenerates the deterministic chaos building: same
// seeds, same ids every call, so an oracle fold lands on identical
// state.
func chaosWorkload(t *testing.T) (*Building, []*Object, []Position) {
	t.Helper()
	b, err := GenerateMall(MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	objs := GenerateObjects(b, ObjectSpec{N: 50, Radius: 5, Instances: 4, Seed: 77})
	return b, objs, GenerateQueryPoints(b, 8, 78)
}

// chaosBatch is the deterministic churn unit: batch i always moves the
// same objects to the same positions, so folding batches 0..R-1 is a
// pure function of R.
func chaosBatch(i int, pts []Position) []ObjectUpdate {
	ups := make([]ObjectUpdate, 0, 3)
	for j := 0; j < 3; j++ {
		id := ObjectID((i*3 + j*11) % 50)
		p := pts[(i+j)%len(pts)]
		ups = append(ups, ObjectUpdate{Op: UpdateMove, Object: object.PointObject(id, p)})
	}
	return ups
}

// diskFaultPlan draws one seed's fault rules: a sticky fsync failure, a
// sticky ENOSPC write, or a short write that leaves a real torn prefix
// on the log file. All rules target the WAL only — checkpoint faults
// are the recovery suite's territory.
func diskFaultPlan(rng *rand.Rand) []*fsfault.Rule {
	nth := 1 + rng.Intn(8)
	switch rng.Intn(3) {
	case 0:
		return []*fsfault.Rule{{Op: fsfault.OpSync, PathContains: "wal-", Nth: nth, Sticky: true}}
	case 1:
		return []*fsfault.Rule{{Op: fsfault.OpWrite, PathContains: "wal-", Nth: nth, Sticky: true, Err: fsfault.ENOSPC}}
	default:
		return []*fsfault.Rule{{Op: fsfault.OpWrite, PathContains: "wal-", Nth: nth, ShortBytes: rng.Intn(11), Err: fsfault.ENOSPC}}
	}
}

func TestChaosDiskFaultPlans(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			runDiskChaos(t, seed)
		})
	}
}

func runDiskChaos(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	b, objs, pts := chaosWorkload(t)
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ffs := fsfault.New(nil, diskFaultPlan(rng)...)
	dir := t.TempDir()
	if err := db.Persist(dir, DurabilityOptions{
		CompactBytes: -1, // keep every record in gen 0: Replayed counts all batches
		FS:           ffs,
	}); err != nil {
		t.Fatal(err)
	}

	// Paced churn with an explicit durability barrier per batch: a batch
	// counts as acknowledged only when both the commit and the Sync
	// succeeded — under SyncGrouped that is the only point the engine
	// promises the batch survives a crash.
	const batches = 24
	acked, failedAt := 0, -1
	for i := 0; i < batches; i++ {
		cerr := db.ApplyObjectUpdates(chaosBatch(i, pts))
		serr := db.Sync()
		if cerr == nil && serr == nil {
			acked = i + 1
			continue
		}
		failedAt = i
		break
	}

	if failedAt < 0 {
		// Every plan targets the Nth WAL write or fsync with Nth <= 8 and
		// each batch forces at least one of both; 24 batches must trip it.
		t.Fatalf("seed %d: fault plan never fired (%d syncs, %d writes seen)", seed, ffs.OpCount(fsfault.OpSync), ffs.OpCount(fsfault.OpWrite))
	}
	{
		// Fail-stop: the poisoned log refuses every later batch with the
		// original error, observable through DurabilityErr.
		if db.DurabilityErr() == nil {
			t.Fatalf("seed %d: batch %d failed but DurabilityErr is nil", seed, failedAt)
		}
		for j := failedAt + 1; j < failedAt+4; j++ {
			if err := db.ApplyObjectUpdates(chaosBatch(j, pts)); err == nil {
				t.Fatalf("seed %d: batch %d accepted after fail-stop at %d", seed, j, failedAt)
			}
		}
	}

	// Degraded mode still answers queries.
	if _, _, err := db.RangeQuery(pts[0], 60); err != nil {
		t.Fatalf("seed %d: query in degraded mode: %v", seed, err)
	}
	// Close must neither panic nor hang; its error is allowed (it may be
	// the sticky log error re-surfacing from the final flush).
	_ = db.Close()

	// Recovery from the surviving directory, faults healed.
	ffs.Clear()
	re, err := OpenDir(dir, DurabilityOptions{CompactBytes: -1})
	if err != nil {
		t.Fatalf("seed %d: recovery: %v", seed, err)
	}
	defer re.Close()
	replayed := re.RecoveryInfo().Replayed

	// Durable-prefix oracle: every Sync-acknowledged batch must have
	// survived, and the recovered state must equal the fold of exactly
	// the replayed prefix (records past the last barrier may or may not
	// have reached the file; whichever did must replay byte-identically).
	if replayed < acked {
		t.Fatalf("seed %d: %d batches acknowledged durable but only %d replayed (acknowledged-then-lost)", seed, acked, replayed)
	}
	if replayed > batches {
		t.Fatalf("seed %d: replayed %d records, only %d batches committed", seed, replayed, batches)
	}
	ob, oobjs, _ := chaosWorkload(t)
	odb, _, err := Open(ob, oobjs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < replayed; k++ {
		if err := odb.ApplyObjectUpdates(chaosBatch(k, pts)); err != nil {
			t.Fatalf("seed %d: oracle fold batch %d: %v", seed, k, err)
		}
	}
	if want, got := saveBytes(t, odb), saveBytes(t, re); !bytes.Equal(want, got) {
		t.Fatalf("seed %d: recovered state diverges from the %d-batch oracle fold", seed, replayed)
	}

	// The recovered engine is healthy again: it accepts new mutations.
	if err := re.ApplyObjectUpdates(chaosBatch(batches, pts)); err != nil {
		t.Fatalf("seed %d: recovered DB refused a fresh batch: %v", seed, err)
	}
	if re.DurabilityErr() != nil {
		t.Fatalf("seed %d: recovered DB reports degraded: %v", seed, re.DurabilityErr())
	}
}

// TestPoisonDrill pins the chaos-drill hook the daemon's degraded-mode
// smoke uses: poisoning a healthy store flips it into the same
// fail-stop read-only state a real log failure produces.
func TestPoisonDrill(t *testing.T) {
	b, objs, pts := chaosWorkload(t)
	db, _, err := Open(b, objs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(t.TempDir(), DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ApplyObjectUpdates(chaosBatch(0, pts)); err != nil {
		t.Fatal(err)
	}
	if db.DurabilityErr() != nil {
		t.Fatal("healthy store reports degraded")
	}
	db.Store().Poison(nil)
	if db.DurabilityErr() == nil {
		t.Fatal("poisoned store reports healthy")
	}
	if err := db.ApplyObjectUpdates(chaosBatch(1, pts)); err == nil {
		t.Fatal("poisoned store accepted a mutation")
	}
	if _, _, err := db.RangeQuery(pts[0], 60); err != nil {
		t.Fatalf("poisoned store refused a query: %v", err)
	}
}
