package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	indoorq "repro"
	"repro/internal/baseline"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/wire"
)

// distTolerance is how far two reported distances for one object may lie
// apart and still count as the same answer.
const distTolerance = 1e-9

// verifier checks a finished run from outside the measured window. Its
// reference is the mirror: an in-process database rebuilt from the fixture
// checkpoint to which exactly the acknowledged mutations are applied.
type verifier struct {
	e      *env
	c      *cluster
	ld     *load
	mirror *indoorq.DB
	// touched lists the objects the acknowledged batches moved.
	touched map[object.ID]bool
	// recovered is the leader's store reopened in-process after the kill.
	recovered *indoorq.DB
}

// newVerifier builds the mirror and folds the acknowledged operations
// into it: topology first, then the object batches, each in commit order.
// The two streams commute — a move stores a position, a topology mutation
// changes which unit holds it — so their interleaving on the leader does
// not matter for the final state.
func newVerifier(e *env, c *cluster, ld *load) (*verifier, error) {
	mirror, err := indoorq.LoadCheckpoint(e.fx.ckpt)
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	v := &verifier{e: e, c: c, ld: ld, mirror: mirror, touched: map[object.ID]bool{}}
	for i, a := range ld.topo.acked {
		var got wire.TopologyResponse
		switch a.req.Op {
		case wire.TopoSetDoorClosed:
			err = mirror.SetDoorClosed(indoor.DoorID(a.req.Door), a.req.Closed)
		case wire.TopoSplit:
			var pa, pb indoor.PartitionID
			pa, pb, err = mirror.SplitPartition(indoor.PartitionID(a.req.Partition), a.req.AlongX, a.req.At)
			got.PartitionA, got.PartitionB = int64(pa), int64(pb)
		case wire.TopoMerge:
			var p indoor.PartitionID
			p, err = mirror.MergePartitions(indoor.PartitionID(a.req.Partition), indoor.PartitionID(a.req.Partition2))
			got.PartitionA = int64(p)
		}
		if err != nil {
			return nil, fmt.Errorf("mirror: topology op %d (%s): %w", i, a.req.Op, err)
		}
		if got != a.resp {
			return nil, fmt.Errorf("mirror: topology op %d (%s) allocated %+v, leader %+v", i, a.req.Op, got, a.resp)
		}
	}
	// Batch b always writes the same values, so the final position of
	// every object is decided within the last lap over the batch pool.
	acked := ld.ackedBatches
	for _, b := range acked {
		for _, up := range e.fx.batches[b] {
			v.touched[up.Object.ID] = true
		}
	}
	if len(acked) > len(e.fx.batches) {
		acked = acked[len(acked)-len(e.fx.batches):]
	}
	for _, b := range acked {
		if err := mirror.ApplyObjectUpdates(e.fx.batches[b]); err != nil {
			return nil, fmt.Errorf("mirror: batch %d: %w", b, err)
		}
	}
	return v, nil
}

func (v *verifier) close() {
	if v.recovered != nil {
		_ = v.recovered.Close() // a scratch store about to be deleted
	}
}

// answer is a query result in comparable form: ids ascending, distances
// where the processor materialised them.
type answer struct {
	ids  []int64
	dist map[int64]float64
}

func answerOfWire(rs []wire.Result) answer {
	a := answer{dist: map[int64]float64{}}
	for _, r := range rs {
		a.ids = append(a.ids, r.ID)
		if r.Dist != nil {
			a.dist[r.ID] = *r.Dist
		}
	}
	sort.Slice(a.ids, func(i, j int) bool { return a.ids[i] < a.ids[j] })
	return a
}

func answerOfDomain(rs []query.Result) answer { return answerOfWire(wire.ResultsOf(rs)) }

// sameAnswer requires equal id sets and, where both sides report an
// object's distance, agreement within distTolerance.
func sameAnswer(a, b answer) error {
	if len(a.ids) != len(b.ids) {
		return fmt.Errorf("%d results against %d", len(a.ids), len(b.ids))
	}
	for i, id := range a.ids {
		if b.ids[i] != id {
			return fmt.Errorf("result sets differ at object %d / %d", id, b.ids[i])
		}
		da, oka := a.dist[id]
		db, okb := b.dist[id]
		if oka && okb && math.Abs(da-db) > distTolerance {
			return fmt.Errorf("object %d at distance %.12g against %.12g", id, da, db)
		}
	}
	return nil
}

// checkAnswers is the correctness gate: for sampled iRQ and ikNN queries
// the leader, the replica and the mirror must give the same answer, and a
// few of the mirror's answers must match the brute-force oracle. Every
// comparison counts as one attempted operation; a mismatch fails it.
func (v *verifier) checkAnswers(rep *report) {
	ln := v.c.newLane()
	oracle := baseline.NewOracle(v.mirror.Index())
	for i := 0; i < 2*verifyQueries; i++ {
		q := v.e.fx.verifyQ[i]
		knn := i >= verifyQueries
		name := fmt.Sprintf("verify iRQ %d", i)
		if knn {
			name = fmt.Sprintf("verify ikNN %d", i-verifyQueries)
		}
		rep.Attempted++
		var want answer
		if knn {
			rs, _, err := v.mirror.KNNQuery(q, knnK)
			if err != nil {
				rep.fail("%s: mirror: %v", name, err)
				continue
			}
			want = answerOfDomain(rs)
		} else {
			rs, _, err := v.mirror.RangeQuery(q, rangeRadius)
			if err != nil {
				rep.fail("%s: mirror: %v", name, err)
				continue
			}
			want = answerOfDomain(rs)
		}
		ok := true
		for role, c := range map[string]*wire.Client{"leader": ln.leader, "replica": ln.replica} {
			var resp wire.BatchResponse
			var err error
			if knn {
				resp, err = c.KNNBatch([]wire.KNNQuery{{Q: wire.PositionOf(q), K: knnK}})
			} else {
				resp, err = c.RangeBatch([]wire.RangeQuery{{Q: wire.PositionOf(q), R: rangeRadius}})
			}
			if err == nil && (len(resp.Responses) != 1 || resp.Responses[0].Err != "") {
				err = fmt.Errorf("unusable reply %+v", resp.Responses)
			}
			if err == nil {
				err = sameAnswer(answerOfWire(resp.Responses[0].Results), want)
			}
			if err != nil {
				rep.fail("%s: %s against mirror: %v", name, role, err)
				ok = false
				break
			}
		}
		if !ok || i%verifyQueries >= oracleQueries {
			continue
		}
		rep.Attempted++
		if err := v.checkOracle(oracle, q, knn, want); err != nil {
			rep.fail("%s: mirror against oracle: %v", name, err)
		}
	}
}

// checkOracle compares one mirror answer with exhaustive evaluation. For
// ikNN the oracle decides by distance, not by id, so a tie at the k-th
// place cannot fail the check.
func (v *verifier) checkOracle(o *baseline.Oracle, q indoor.Position, knn bool, got answer) error {
	if !knn {
		ids, err := o.Range(q, rangeRadius)
		if err != nil {
			return err
		}
		want := answer{}
		for _, id := range ids {
			want.ids = append(want.ids, int64(id))
		}
		return sameAnswer(got, want)
	}
	all, err := o.AllDistances(q)
	if err != nil {
		return err
	}
	if len(got.ids) != min(knnK, len(all)) {
		return fmt.Errorf("%d results, want %d", len(got.ids), min(knnK, len(all)))
	}
	kth := all[len(got.ids)-1].D
	exact := make(map[int64]float64, len(all))
	for _, od := range all {
		exact[int64(od.ID)] = od.D
	}
	for _, id := range got.ids {
		if d := exact[id]; d > kth+distTolerance {
			return fmt.Errorf("object %d at %.12g is beyond the k-th distance %.12g", id, d, kth)
		}
	}
	return nil
}

// checkEventReplay replays each sampled subscription's enter/leave events
// over its initial result set and requires the final membership the
// mirror computes for the same standing query — unless the server
// signalled that its bounded event log overflowed, in which case the
// stream is by contract not a complete replay.
func (v *verifier) checkEventReplay(rep *report, obs *observer, sampled []int) {
	obs.evMu.Lock()
	defer obs.evMu.Unlock()
	rep.Extra["events.chunks"] = float64(obs.chunks)
	if obs.overflow {
		rep.Notes = append(rep.Notes, "event log overflowed; replay check skipped as the protocol allows")
		return
	}
	for _, i := range sampled {
		rep.Attempted++
		sub := v.c.subs[i]
		members := make(map[int64]bool, len(sub.Results))
		for _, id := range sub.Results {
			members[id] = true
		}
		for _, ev := range obs.events[sub.ID] {
			switch ev.Kind {
			case wire.EventEnter:
				members[ev.Object] = true
			case wire.EventLeave:
				delete(members, ev.Object)
			}
		}
		// The membership a standing query must have reached is what the
		// same query answers afresh on the final state.
		spec := v.e.fx.subSpecs[i]
		var final []query.Result
		var err error
		if spec.K > 0 {
			final, _, err = v.mirror.KNNQuery(spec.Q.Domain(), spec.K)
		} else {
			final, _, err = v.mirror.RangeQuery(spec.Q.Domain(), spec.R)
		}
		if err != nil {
			rep.fail("event replay: subscription %d on the mirror: %v", i, err)
			continue
		}
		if len(final) != len(members) {
			rep.fail("event replay: subscription %d ends with %d members, mirror has %d", i, len(members), len(final))
			continue
		}
		for _, r := range final {
			if !members[int64(r.ID)] {
				rep.fail("event replay: subscription %d lacks object %d", i, r.ID)
				break
			}
		}
	}
}

// checkDurability SIGKILLs the leader, reopens its store in this process
// and requires everything acknowledged to be there: the recovered log
// reaches at least the durable LSN observed before the kill (the writers
// had quiesced, so that covers every acknowledged batch) and every moved
// object is where the mirror has it. The flush policy is the daemon's
// default and is not changed: SyncGrouped, 5 ms window, 64 MiB
// CompactBytes. SIGKILL leaves the page cache intact, so this proves the
// log is complete and replayable, not that the device persisted it. It
// returns the recovery time.
func (v *verifier) checkDurability(rep *report, durableLSN uint64) float64 {
	v.c.leader.kill()
	rep.Attempted++
	t0 := time.Now()
	db, err := indoorq.OpenDir(filepath.Join(v.c.dir, "store"), indoorq.DurabilityOptions{})
	recoverS := time.Since(t0).Seconds()
	if err != nil {
		rep.fail("durability: reopen after SIGKILL: %v", err)
		return recoverS
	}
	v.recovered = db
	if got := db.Store().WrittenLSN(); got < durableLSN {
		rep.fail("durability: recovered to LSN %d, the leader had reported %d durable", got, durableLSN)
		return recoverS
	}
	for id := range v.touched {
		if err := sameObject(db.Object(id), v.mirror.Object(id)); err != nil {
			rep.fail("durability: object %d after recovery: %v", id, err)
			return recoverS
		}
	}
	return recoverS
}

func sameObject(a, b *object.Object) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing (%v, %v)", a != nil, b != nil)
	}
	if a.Center != b.Center || len(a.Instances) != len(b.Instances) {
		return fmt.Errorf("centre %v against %v", a.Center, b.Center)
	}
	for i := range a.Instances {
		if a.Instances[i] != b.Instances[i] {
			return fmt.Errorf("instance %d differs", i)
		}
	}
	return nil
}
