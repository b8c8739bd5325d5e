package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	indoorq "repro"
	"repro/internal/distance"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Sample sizes of the in-process replay. It runs after the window, on the
// mirror, so it costs the traced pass a few seconds and the daemons
// nothing.
const (
	replayQueries  = 150 // the first measured queries, in the stream's 2:1 mix
	replayBatches  = 30
	replayDistance = 20
	replayTopoLaps = 3
)

// pinSink keeps the snapshot-pin loop from being optimised away.
var pinSink *index.Snapshot

// replayLayers drives sampled operations of the run through each layer's
// exported API in-process and records a span around every call, so that
// the time a request spends below the HTTP boundary can be attributed
// without instrumenting the program. It fills rep.Layers.
func (v *verifier) replayLayers(rep *report, tr *tracer) error {
	if err := v.replayQueries(rep, tr); err != nil {
		return err
	}
	if err := v.replayUpdateWire(rep, tr); err != nil {
		return err
	}
	if err := v.replayDistance(rep); err != nil {
		return err
	}
	if err := v.replayIndex(rep, tr); err != nil {
		return err
	}
	return v.replayStore(rep, tr)
}

// replayQueries walks the query path below the socket: request JSON out
// and in, one-query batch on the serve pool (whose Stats give the four
// query phases as child spans), response JSON out and in.
func (v *verifier) replayQueries(rep *report, tr *tracer) error {
	var bytes, results []float64
	counts := map[string][]float64{}
	for i := 0; i < replayQueries; i++ {
		q := v.e.fx.queries[i]
		knn := i%3 == 2
		req := tr.request()
		var reqBody, respBody []byte
		var resp indoorq.BatchResponse
		var err error
		root := "replay.irq"
		if knn {
			root = "replay.iknn"
		}
		rootID := tr.add(root, 0, req, time.Now(), 0) // closed by tr.end below
		tr.timed("wire.encode.request", rootID, req, func() {
			if knn {
				reqBody, err = json.Marshal(wire.KNNBatch{Queries: []wire.KNNQuery{{Q: wire.PositionOf(q), K: knnK}}})
			} else {
				reqBody, err = json.Marshal(wire.RangeBatch{Queries: []wire.RangeQuery{{Q: wire.PositionOf(q), R: rangeRadius}}})
			}
		})
		if err != nil {
			return err
		}
		var rq wire.RangeBatch
		var kq wire.KNNBatch
		tr.timed("wire.decode.request", rootID, req, func() {
			if knn {
				err = json.Unmarshal(reqBody, &kq)
			} else {
				err = json.Unmarshal(reqBody, &rq)
			}
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if knn {
			resps, _ := v.mirror.BatchKNNQuery([]indoorq.KNNRequest{{Q: kq.Queries[0].Q.Domain(), K: kq.Queries[0].K}}, indoorq.ServeConfig{})
			resp = resps[0]
		} else {
			resps, _ := v.mirror.BatchRangeQuery([]indoorq.RangeRequest{{Q: rq.Queries[0].Q.Domain(), R: rq.Queries[0].R}}, indoorq.ServeConfig{})
			resp = resps[0]
		}
		batch := time.Since(t0)
		if resp.Err != nil {
			return resp.Err
		}
		st := resp.Stats
		serveID := tr.add("serve.batch", rootID, req, t0, batch)
		at := t0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"query.filtering", st.Filtering}, {"query.subgraph", st.Subgraph}, {"query.pruning", st.Pruning}, {"query.refinement", st.Refinement}} {
			tr.add(ph.name, serveID, req, at, ph.d)
			at = at.Add(ph.d)
		}
		tr.timed("wire.encode.response", rootID, req, func() {
			respBody, err = json.Marshal(wire.BatchResponse{Responses: []wire.QueryResponse{{
				Results: wire.ResultsOf(resp.Results), LatencyMicros: resp.Latency.Microseconds(),
			}}})
		})
		if err != nil {
			return err
		}
		var back wire.BatchResponse
		tr.timed("wire.decode.response", rootID, req, func() { err = json.Unmarshal(respBody, &back) })
		if err != nil {
			return err
		}
		tr.end(rootID)

		bytes = append(bytes, float64(len(reqBody)+len(respBody)))
		results = append(results, float64(len(resp.Results)))
		for name, n := range map[string]int{
			"query.candidates": st.Candidates, "query.accepted_bounds": st.AcceptedBounds,
			"query.rejected_bounds": st.RejectedBounds, "query.refined": st.Refined, "query.full_fallbacks": st.FullFallbacks,
		} {
			counts[name] = append(counts[name], float64(n))
		}
	}
	rep.Layers["wire.encode_ms"] = median(tr.selfMs("wire.encode"))
	rep.Layers["wire.decode_ms"] = median(tr.selfMs("wire.decode"))
	rep.Layers["wire.bytes_per_op"] = median(bytes)
	rep.Layers["serve.batch_ms"] = median(tr.selfMs("serve.batch"))
	for _, ph := range []string{"filtering", "subgraph", "pruning", "refinement"} {
		rep.Layers["query."+ph+"_ms"] = median(tr.selfMs("query." + ph))
	}
	var refined, returned float64
	for name, vals := range counts {
		rep.Layers[name] = mean(vals)
	}
	for i := range results {
		refined += counts["query.refined"][i]
		returned += results[i]
	}
	rep.Layers["query.refined_per_result"] = refined / max(1, returned)
	return nil
}

// replayUpdateWire times the JSON an update batch costs each side: encode
// on the client; decode plus conversion to domain objects on the server.
func (v *verifier) replayUpdateWire(rep *report, tr *tracer) error {
	var bytes []float64
	for i := 0; i < replayBatches; i++ {
		req := tr.request()
		var body []byte
		var err error
		tr.timed("wireupdate.encode", 0, req, func() {
			body, err = json.Marshal(wire.UpdateBatch{Updates: v.e.fx.wireUps[i]})
		})
		if err != nil {
			return err
		}
		tr.timed("wireupdate.decode", 0, req, func() {
			var ub wire.UpdateBatch
			if err = json.Unmarshal(body, &ub); err != nil {
				return
			}
			for _, item := range ub.Updates {
				if _, err = item.Domain(); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		bytes = append(bytes, float64(len(body)))
	}
	rep.Layers["wire.update_encode_ms"] = median(tr.selfMs("wireupdate.encode"))
	rep.Layers["wire.update_decode_ms"] = median(tr.selfMs("wireupdate.decode"))
	rep.Layers["wire.update_bytes_per_op"] = median(bytes)
	return nil
}

// replayDistance times the two batched Eq-8 kernels over the answer sets
// of sampled range queries, against a full-graph engine per query.
func (v *verifier) replayDistance(rep *report) error {
	snap := v.mirror.Index().Current()
	var bounds, bracket []float64
	for i := 0; i < replayDistance; i++ {
		q := v.e.fx.queries[i]
		rs, _, err := v.mirror.RangeQuery(q, rangeRadius)
		if err != nil {
			return err
		}
		ids := make([]object.ID, len(rs))
		for j, r := range rs {
			ids[j] = r.ID
		}
		eng, err := distance.NewFull(snap, q)
		if err != nil {
			return err
		}
		ar := distance.AcquireArena()
		t0 := time.Now()
		eng.ObjectBoundsBatch(ids, rangeRadius, ar)
		t1 := time.Now()
		eng.ExactDistBracketBatch(ids, rangeRadius, ar)
		t2 := time.Now()
		ar.Release()
		eng.Close()
		bounds, bracket = append(bounds, ms(t1.Sub(t0))), append(bracket, ms(t2.Sub(t1)))
	}
	rep.Layers["distance.bounds_batch_ms"] = median(bounds)
	rep.Layers["distance.bracket_batch_ms"] = median(bracket)
	return nil
}

// replayIndex times the index layer on the ephemeral mirror: snapshot
// pin, a 32-move commit, topology commits, and a clone of an R*-tree
// bulk-loaded over the same unit boxes the index's tree tier holds.
func (v *verifier) replayIndex(rep *report, tr *tracer) error {
	idx := v.mirror.Index()
	const pins = 1_000_000
	t0 := time.Now()
	for i := 0; i < pins; i++ {
		pinSink = idx.Current()
	}
	rep.Layers["index.pin_ns"] = float64(time.Since(t0).Nanoseconds()) / pins

	var err error
	for i := 0; i < replayBatches && err == nil; i++ {
		tr.timed("index.object_commit", 0, tr.request(), func() { err = v.mirror.ApplyObjectUpdates(v.e.fx.batches[i]) })
	}
	if err != nil {
		return err
	}
	rep.Layers["index.object_commit_ms"] = median(tr.selfMs("index.object_commit"))

	topo := func(fn func() error) {
		if err == nil {
			tr.timed("index.topo_commit", 0, tr.request(), func() { err = fn() })
		}
	}
	split := func(r splitTarget) (pa, pb indoor.PartitionID) {
		topo(func() (e error) { pa, pb, e = v.mirror.SplitPartition(r.pid, r.alongX, r.at); return e })
		return pa, pb
	}
	for lap := 0; lap < replayTopoLaps; lap++ {
		// From the far end of the seeded lists, away from what the
		// workload itself toggled and split.
		door := v.e.fx.doors[len(v.e.fx.doors)-1-lap]
		room := v.e.fx.rooms[len(v.e.fx.rooms)-1-lap]
		topo(func() error { return v.mirror.SetDoorClosed(door, true) })
		topo(func() error { return v.mirror.SetDoorClosed(door, false) })
		pa, pb := split(room)
		topo(func() error { _, e := v.mirror.MergePartitions(pa, pb); return e })
	}
	if err != nil {
		return err
	}
	rep.Layers["index.topo_commit_ms"] = median(tr.selfMs("index.topo_commit"))

	snap := idx.Current()
	b := snap.Building()
	var entries []rtree.Entry
	snap.SearchTree(func(geom.Rect3) bool { return true }, func(u *index.Unit) {
		entries = append(entries, rtree.Entry{Box: geom.R3(u.Rect, b.Elevation(u.FloorLo), b.Elevation(u.FloorHi)), ID: int(u.ID)})
	})
	tree := rtree.Bulk(idx.Options().Fanout, entries)
	var clones []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		tree = tree.Clone()
		clones = append(clones, ms(time.Since(t0)))
	}
	rep.Layers["rtree.clone_ms"] = median(clones)
	return nil
}

// replayStore makes the mirror durable and repeats the same 32-move
// commits, so that append cost is durable minus ephemeral commit time of
// identical batches on one index; then measures the Sync barrier, the log
// bytes per move, and a cold and a warm AsOf a few records back.
func (v *verifier) replayStore(rep *report, tr *tracer) error {
	dir := filepath.Join(v.c.dir, "mirror-store")
	t0 := time.Now()
	if err := v.mirror.Persist(dir, indoorq.DurabilityOptions{}); err != nil {
		return err
	}
	defer v.mirror.Close()
	rep.Layers["store.checkpoint_s"] = time.Since(t0).Seconds()

	wal0 := v.mirror.WALSize()
	var err error
	var syncs []float64
	moves := 0
	for i := 0; i < replayBatches && err == nil; i++ {
		tr.timed("store.durable_commit", 0, tr.request(), func() { err = v.mirror.ApplyObjectUpdates(v.e.fx.batches[i]) })
		moves += len(v.e.fx.batches[i])
		t0 := time.Now()
		if err == nil {
			err = v.mirror.Sync()
		}
		syncs = append(syncs, ms(time.Since(t0)))
	}
	if err != nil {
		return err
	}
	rep.Layers["store.append_ms"] = median(tr.selfMs("store.durable_commit")) - rep.Layers["index.object_commit_ms"]
	rep.Layers["store.sync_ms"] = median(syncs)
	rep.Layers["store.wal_bytes_per_move"] = float64(v.mirror.WALSize()-wal0) / float64(moves)

	lsn := v.mirror.Store().WrittenLSN() - 5
	for _, name := range []string{"history.asof_cold_ms", "history.asof_warm_ms"} {
		t0 := time.Now()
		if _, err := v.mirror.AsOf(lsn); err != nil {
			return fmt.Errorf("AsOf(%d): %w", lsn, err)
		}
		rep.Layers[name] = ms(time.Since(t0))
	}
	return nil
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
