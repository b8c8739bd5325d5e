package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/indoor"
	"repro/internal/wire"
)

// env is what every workload run of one process shares.
type env struct {
	indoorqd string // path of the built daemon
	scratch  string // this process's scratch directory, inside the checkout
	callers  int    // closed-loop concurrency: nproc
	seconds  int    // measured window
	setups   int    // set-ups per run; setup_s is their median
	traced   bool
	fx       *fixture
}

func (e *env) warmup() time.Duration {
	return time.Duration(max(1, e.seconds/5)) * time.Second
}

func (e *env) window() time.Duration { return time.Duration(e.seconds) * time.Second }

// cluster is one leader + replica pair over a private copy of the fixture
// store, with the workload's standing queries installed.
type cluster struct {
	dir             string
	leader, replica *daemon
	// subs[i] is the handle and initial result set of fixture.subSpecs[i].
	subs []wire.SubscribeResponse
}

// setupTimes splits one set-up; total is what setup_s reports.
type setupTimes struct {
	total, recover, bootstrap, subscribe float64
}

// setup copies the store, launches a leader (recovery) and a replica
// (checkpoint ship + bootstrap) and installs the standing queries.
func (e *env) setup(ctx context.Context, wl workload, n int) (c *cluster, st setupTimes, err error) {
	t0 := time.Now()
	c = &cluster{dir: filepath.Join(e.scratch, fmt.Sprintf("%s-%d", wl.name, n))}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	store := filepath.Join(c.dir, "store")
	if err = os.CopyFS(store, os.DirFS(e.fx.storeDir)); err != nil {
		return c, st, err
	}
	if c.leader, err = startDaemon(e.indoorqd, filepath.Join(c.dir, "leader.log"), "-dir", store); err != nil {
		return c, st, err
	}
	if err = c.leader.waitReady(ctx, time.Minute); err != nil {
		return c, st, err
	}
	st.recover = time.Since(t0).Seconds()

	t1 := time.Now()
	if c.replica, err = startDaemon(e.indoorqd, filepath.Join(c.dir, "replica.log"), "-follow", c.leader.url); err != nil {
		return c, st, err
	}
	if err = c.replica.waitReady(ctx, time.Minute); err != nil {
		return c, st, err
	}
	st.bootstrap = time.Since(t1).Seconds()

	t2 := time.Now()
	c.subs = make([]wire.SubscribeResponse, wl.subs)
	errs := make([]error, e.callers)
	var wg sync.WaitGroup
	for w := 0; w < e.callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := c.newLane()
			for i := w; i < wl.subs && ctx.Err() == nil; i += e.callers {
				resp, err := ln.leader.Subscribe(e.fx.subSpecs[i])
				if err == nil && resp.Err != "" {
					err = errors.New(resp.Err)
				}
				if err != nil {
					errs[w] = fmt.Errorf("subscribe %d: %w", i, err)
					return
				}
				c.subs[i] = resp
			}
		}()
	}
	wg.Wait()
	if err = errors.Join(append(errs, ctx.Err())...); err != nil {
		return c, st, err
	}
	st.subscribe = time.Since(t2).Seconds()
	st.total = time.Since(t0).Seconds()
	return c, st, nil
}

// close stops whatever daemons are still running and removes the store.
func (c *cluster) close() {
	if c.replica != nil {
		c.replica.stop()
	}
	if c.leader != nil {
		c.leader.stop()
	}
	_ = os.RemoveAll(c.dir) // scratch; the whole tree goes at exit anyway
}

// topoAck is one acknowledged topology mutation, kept for the mirror.
type topoAck struct {
	req  wire.TopologyRequest
	resp wire.TopologyResponse
}

// topoDriver produces the topology stream: pairs of operations that each
// return the building to where it was — close a door then open it, or
// split a room then merge the halves. Which pair comes next depends only
// on the fixture's seeded door and room order.
type topoDriver struct {
	doors      []indoor.DoorID
	rooms      []splitTarget
	splitEvery int

	pairs   int
	pending *wire.TopologyRequest // second half of the open pair
	room    int                   // index into rooms of the split in flight
	acked   []topoAck
}

func (t *topoDriver) next() wire.TopologyRequest {
	if t.pending != nil {
		return *t.pending
	}
	if t.splitEvery > 0 && t.pairs%t.splitEvery == t.splitEvery-1 {
		t.room = (t.pairs / t.splitEvery) % len(t.rooms)
		r := t.rooms[t.room]
		return wire.TopologyRequest{Op: wire.TopoSplit, Partition: int64(r.pid), AlongX: r.alongX, At: r.at}
	}
	return wire.TopologyRequest{Op: wire.TopoSetDoorClosed, Door: int64(t.doors[t.pairs%len(t.doors)]), Closed: true}
}

// ack records an acknowledged operation and lines up its counterpart.
func (t *topoDriver) ack(req wire.TopologyRequest, resp wire.TopologyResponse) {
	t.acked = append(t.acked, topoAck{req, resp})
	switch {
	case req.Op == wire.TopoSplit:
		t.pending = &wire.TopologyRequest{Op: wire.TopoMerge, Partition: resp.PartitionA, Partition2: resp.PartitionB}
	case req.Op == wire.TopoSetDoorClosed && req.Closed:
		t.pending = &wire.TopologyRequest{Op: wire.TopoSetDoorClosed, Door: req.Door}
	default:
		if req.Op == wire.TopoMerge {
			// The merged room has a new id; the next lap splits that.
			t.rooms[t.room].pid = indoor.PartitionID(resp.PartitionA)
		}
		t.pending = nil
		t.pairs++
	}
}

// load is the running traffic of one workload: its streams and what they
// acknowledged.
type load struct {
	streams []*stream
	topo    *topoDriver
	// ackedBatches lists, in commit order, the indices of the update
	// batches the leader acknowledged.
	ackedBatches []int
}

func interval(rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / rate)
}

// newLoad builds the workload's streams over the fixture's inputs, each on
// a connection of its own, so no stream's operation waits on the client
// side for another stream's reply. tr is nil in the untraced pass.
func newLoad(e *env, wl workload, c *cluster, tr *tracer) *load {
	fx := e.fx
	ld := &load{topo: &topoDriver{doors: fx.doors, rooms: append([]splitTarget(nil), fx.rooms...), splitEvery: wl.splitEvery}}

	readers := 1
	if wl.queryRate == 0 {
		readers = e.callers
	}
	for j := 0; j < readers; j++ {
		// Each reader walks its own stretch of the query pool.
		offset := j * len(fx.queries) / readers
		ln := c.newLane()
		ld.streams = append(ld.streams, &stream{
			name:     fmt.Sprintf("query-%d", j),
			interval: interval(wl.queryRate),
			op: func(i int) opResult {
				c := ln.leader
				if wl.queryOn == onReplica || (wl.queryOn == alternating && (i+j)%2 == 1) {
					c = ln.replica
				}
				return queryOp(c, tr, wire.PositionOf(fx.queries[(offset+i)%len(fx.queries)]), i%3 == 2)
			},
		})
	}

	writer := c.newLane().leader
	ld.streams = append(ld.streams, &stream{
		name:     "update",
		interval: interval(wl.updateRate),
		op: func(i int) opResult {
			b := i % len(fx.wireUps)
			start := time.Now()
			err := writer.ApplyUpdates(fx.wireUps[b])
			tr.add("client.update", 0, tr.request(), start, time.Since(start))
			if err != nil {
				return opResult{kind: opUpdate, err: err}
			}
			ld.ackedBatches = append(ld.ackedBatches, b)
			return opResult{kind: opUpdate, moves: len(fx.wireUps[b])}
		},
	})

	mutator := c.newLane().leader
	ld.streams = append(ld.streams, &stream{
		name:     "topology",
		interval: interval(wl.topoRate),
		op: func(i int) opResult {
			req := ld.topo.next()
			start := time.Now()
			resp, err := mutator.Topology(req)
			tr.add("client.topology", 0, tr.request(), start, time.Since(start))
			if err == nil && resp.Err != "" {
				err = fmt.Errorf("topology %s: %s", req.Op, resp.Err)
			}
			if err != nil {
				return opResult{kind: opTopo, err: err}
			}
			ld.topo.ack(req, resp)
			return opResult{kind: opTopo}
		},
	})
	return ld
}

// queryOp sends one single-query request and checks the reply is usable.
// Under tracing it records the round trip and, as its child, the
// evaluation time the reply reports: the parent's self time is then what
// the server and the wire added around the query itself.
func queryOp(c *wire.Client, tr *tracer, q wire.Position, knn bool) opResult {
	var (
		resp wire.BatchResponse
		err  error
		res  = opResult{kind: opIRQ}
		name = "client.query.irq"
	)
	start := time.Now()
	if knn {
		res.kind, name = opKNN, "client.query.iknn"
		resp, err = c.KNNBatch([]wire.KNNQuery{{Q: q, K: knnK}})
	} else {
		resp, err = c.RangeBatch([]wire.RangeQuery{{Q: q, R: rangeRadius}})
	}
	rtt := time.Since(start)
	switch {
	case err != nil:
		res.err = err
	case len(resp.Responses) != 1:
		res.err = fmt.Errorf("%s: %d responses to one query", name, len(resp.Responses))
	case resp.Responses[0].Err != "":
		res.err = fmt.Errorf("%s: %s", name, resp.Responses[0].Err)
	}
	if tr != nil && res.err == nil {
		req := tr.request()
		exec := time.Duration(resp.Responses[0].LatencyMicros) * time.Microsecond
		root := tr.add(name, 0, req, start, rtt)
		tr.add("server.exec", root, req, start.Add((rtt-exec)/2), exec)
	}
	return res
}

// observer samples what the load does not see: replica lag at 10 Hz, the
// leader's checkpoint generations, and the event stream.
type observer struct {
	lagRecords  []float64
	generations map[string]bool

	evMu     sync.Mutex
	events   map[int][]wire.Event // by subscription, sampled ones only
	overflow bool
	chunks   int
}

// watch samples until ctx ends. Lag is recorded only inside the window.
func (o *observer) watch(ctx context.Context, c *cluster, warmEnd, end time.Time) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			ls, err1 := c.leader.obs.Stats()
			rs, err2 := c.replica.obs.Stats()
			if err1 != nil || err2 != nil || rs.Replica == nil {
				continue // the daemons are busy; the next tick samples again
			}
			if !now.Before(warmEnd) && now.Before(end) {
				lag := float64(0)
				if ls.WrittenLSN > rs.Replica.AppliedLSN {
					lag = float64(ls.WrittenLSN - rs.Replica.AppliedLSN)
				}
				o.lagRecords = append(o.lagRecords, lag)
			}
			ents, _ := os.ReadDir(filepath.Join(c.dir, "store")) // a listing racing a rename is retried next tick
			for _, ent := range ents {
				if strings.HasSuffix(ent.Name(), ".ckpt") {
					o.generations[ent.Name()] = true
				}
			}
		}
	}
}

// consume reads the leader's event stream, keeping the events of the
// sampled subscriptions, until ctx ends.
func (o *observer) consume(ctx context.Context, c *cluster) {
	_ = c.leader.obs.StreamEvents(ctx, func(ch wire.EventChunk) error { // ends with ctx
		o.evMu.Lock()
		defer o.evMu.Unlock()
		o.chunks++
		o.overflow = o.overflow || ch.Overflow
		for _, ev := range ch.Events {
			if _, sampled := o.events[ev.Sub]; sampled {
				o.events[ev.Sub] = append(o.events[ev.Sub], ev)
			}
		}
		return nil
	})
}

// drainEvents returns once the event stream has been silent for three of
// the server's 25 ms polls: with the writers stopped, nothing more comes.
func (o *observer) drainEvents() {
	for last, quiet := -1, 0; quiet < 3; {
		time.Sleep(25 * time.Millisecond)
		o.evMu.Lock()
		n := o.chunks
		o.evMu.Unlock()
		if n == last {
			quiet++
		} else {
			last, quiet = n, 0
		}
	}
}

// quiesce waits, after the writers have stopped, until the leader's log is
// durable to its end and the replica has applied all of it.
func quiesce(ctx context.Context, c *cluster) (wire.StatsResponse, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ls, err := c.leader.obs.Stats()
		if err != nil {
			return ls, err
		}
		rs, err := c.replica.obs.Stats()
		if err != nil {
			return ls, err
		}
		if ls.DurableLSN == ls.WrittenLSN && rs.Replica != nil && rs.Replica.AppliedLSN >= ls.WrittenLSN {
			return ls, nil
		}
		if time.Now().After(deadline) {
			return ls, fmt.Errorf("no quiescence: leader written %d durable %d, replica %+v", ls.WrittenLSN, ls.DurableLSN, rs.Replica)
		}
		select {
		case <-ctx.Done():
			return ls, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// report is the outcome of one workload run.
type report struct {
	Workload  string             `json:"workload"`
	Digest    string             `json:"workload_digest"`
	Traced    bool               `json:"traced"`
	Seconds   int                `json:"seconds"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	// Extra holds the ungated companions: sample counts, latency tails,
	// scheduling lag, the set-up split.
	Extra  map[string]float64 `json:"extra"`
	Layers map[string]float64 `json:"per_layer,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runWorkload sets the workload up (e.setups times, keeping the last),
// drives it through warm-up and the measured window, verifies the answers
// and the durability of what was acknowledged, and, in the traced pass,
// replays sampled operations through each layer in-process.
func runWorkload(ctx context.Context, e *env, wl workload) (*report, error) {
	rep := &report{
		Workload: wl.name, Digest: e.fx.digest(wl), Traced: e.traced, Seconds: e.seconds,
		EndToEnd: map[string]float64{}, Extra: map[string]float64{},
	}
	var tr *tracer
	if e.traced {
		tr = newTracer()
		rep.Layers = map[string]float64{}
	}

	var c *cluster
	var setups []setupTimes
	for n := 0; n < e.setups; n++ {
		if c != nil {
			c.close()
		}
		var st setupTimes
		var err error
		if c, st, err = e.setup(ctx, wl, n); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, st)
	}
	defer func() { c.close() }()
	pick := func(f func(setupTimes) float64) float64 {
		vals := make([]float64, len(setups))
		for i, st := range setups {
			vals[i] = f(st)
		}
		return median(vals)
	}
	rep.EndToEnd["setup_s"] = pick(func(s setupTimes) float64 { return s.total })
	rep.Extra["setup.recover_s"] = pick(func(s setupTimes) float64 { return s.recover })
	rep.Extra["setup.bootstrap_s"] = pick(func(s setupTimes) float64 { return s.bootstrap })
	rep.Extra["setup.subscribe_s"] = pick(func(s setupTimes) float64 { return s.subscribe })
	rep.Extra["index.build_s"] = e.fx.buildS

	// Observers run beside the load on connections of their own.
	obs := &observer{generations: map[string]bool{}, events: map[int][]wire.Event{}}
	sampled := sampledSubs(wl)
	for _, i := range sampled {
		obs.events[c.subs[i].ID] = nil
	}
	obsCtx, stopObs := context.WithCancel(ctx)
	var obsWG sync.WaitGroup
	defer func() { stopObs(); obsWG.Wait() }()
	start := time.Now().Add(50 * time.Millisecond)
	warmEnd := start.Add(e.warmup())
	end := warmEnd.Add(e.window())
	obsWG.Add(1)
	go func() { defer obsWG.Done(); obs.watch(obsCtx, c, warmEnd, end) }()
	obsWG.Add(1)
	go func() { defer obsWG.Done(); obs.consume(obsCtx, c) }()

	ld := newLoad(e, wl, c, tr)
	var wg sync.WaitGroup
	for _, s := range ld.streams {
		wg.Add(1)
		go func() { defer wg.Done(); s.run(ctx, wallClock{}, start, warmEnd, end) }()
	}
	cpu := func(d *daemon) float64 { v, _ := procCPUSeconds(d.pid()); return v } // 0 if /proc is unreadable
	wallClock{}.SleepUntil(ctx, warmEnd)
	leaderCPU0, replicaCPU0 := cpu(c.leader), cpu(c.replica)
	wallClock{}.SleepUntil(ctx, end)
	leaderCPU, replicaCPU := cpu(c.leader)-leaderCPU0, cpu(c.replica)-replicaCPU0
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var rec recorder
	for _, s := range ld.streams {
		rec.merge(&s.rec)
		if !s.keptUp(e.window()) {
			rep.fail("%s: stream %s fell behind its schedule: %d of %d offered operations still queued when the window closed",
				wl.name, s.name, s.backlog, s.offered(e.window()))
		}
	}
	rep.Attempted, rep.Failed = rec.attempted, rep.Failed+rec.failed
	if rec.firstErr != nil {
		rep.Notes = append(rep.Notes, "first failed operation: "+rec.firstErr.Error())
	}
	e.summarize(rep, &rec)

	final, err := quiesce(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	obs.drainEvents()
	stopObs()
	obsWG.Wait()
	leaderRSS, _ := procRSSMB(c.leader.pid()) // 0 if /proc is unreadable
	replicaRSS, _ := procRSSMB(c.replica.pid())

	v, err := newVerifier(e, c, ld)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	defer v.close()
	v.checkAnswers(rep)
	v.checkEventReplay(rep, obs, sampled)
	recoverS := v.checkDurability(rep, final.DurableLSN)
	c.leader = nil // killed by the durability check

	if e.traced {
		lagSorted := append([]float64(nil), obs.lagRecords...)
		sort.Float64s(lagSorted)
		rep.Layers["server.overhead_ms"] = median(tr.selfMs("client.query"))
		rep.Layers["server.refused"] = float64(rec.refused)
		if rc := final.Reconcile; rc != nil {
			rep.Layers["query.reconcile_ms"] = float64(rc.BatchP50Micros) / 1000
			rep.Layers["query.routed_pairs_per_move"] = float64(rc.RoutedPairs) / float64(max(1, rc.Updates))
		}
		rep.Layers["index.build_s"] = rep.Extra["index.build_s"]
		rep.Layers["store.compactions"] = float64(max(0, len(obs.generations)-1))
		rep.Layers["store.recover_s"] = recoverS
		rep.Layers["replica.bootstrap_s"] = rep.Extra["setup.bootstrap_s"]
		rep.Layers["replica.lag_records_p50"] = percentile(lagSorted, 50)
		rep.Layers["replica.lag_records_max"] = percentile(lagSorted, 100)
		rep.Layers["leader.cpu_s"], rep.Layers["replica.cpu_s"] = leaderCPU, replicaCPU
		rep.Layers["leader.rss_mb"], rep.Layers["replica.rss_mb"] = leaderRSS, replicaRSS
		if err := v.replayLayers(rep, tr); err != nil {
			return nil, fmt.Errorf("%s: layer replay: %w", wl.name, err)
		}
		rep.Layers["trace.spans"] = float64(tr.count())
		if err := tr.write(filepath.Join(outDir, "trace-"+wl.name+".json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// summarize turns the merged samples into the end-to-end metrics and
// their ungated companions.
func (e *env) summarize(rep *report, rec *recorder) {
	for k, name := range map[opKind]string{opIRQ: "irq", opKNN: "iknn", opUpdate: "update_ack", opTopo: "topo_ack"} {
		s := rec.latMs[k]
		sort.Float64s(s)
		rep.EndToEnd[name+"_p50_ms"] = percentile(s, 50)
		rep.Extra[name+"_samples"] = float64(len(s))
		if p, ok := tailPercentile(len(s)); ok {
			rep.Extra[fmt.Sprintf("%s_p%.0f_ms", name, p)] = percentile(s, p)
		}
	}
	rep.EndToEnd["query_qps"] = rec.rate(1, opIRQ, opKNN)
	rep.EndToEnd["moves_per_s"] = rec.rate(batchMoves, opUpdate)
	rep.Extra["queries_done"] = float64(rec.done[opIRQ] + rec.done[opKNN])
	rep.Extra["moves_done"] = float64(rec.moves)
	if len(rec.lagMs) > 0 {
		sort.Float64s(rec.lagMs)
		p, ok := tailPercentile(len(rec.lagMs))
		if !ok {
			p = 100
		}
		rep.Extra[fmt.Sprintf("sched_lag_p%.0f_ms", p)] = percentile(rec.lagMs, p)
	}
}

// sampledSubs picks the subscriptions whose event streams are replayed:
// twenty spread evenly over the installed ones.
func sampledSubs(wl workload) []int {
	var out []int
	for i := 0; i < 20 && i < wl.subs; i++ {
		out = append(out, i*wl.subs/min(20, wl.subs))
	}
	return out
}
