// Package serve is the concurrent query-serving layer: a worker pool that
// fans a batch of iRQ/ikNNQ queries across CPUs against one shared
// composite index. The pool pins ONE index snapshot per batch, so every
// query of the batch observes the same consistent point-in-time state,
// workers evaluate completely lock-free, and concurrent index writers are
// neither blocked by the batch nor able to stall it: a writer publishes
// its successor snapshot and the *next* batch picks it up.
//
// The pool reports per-query results, Stats and latency in request order,
// plus batch-level aggregates (wall time, queries/sec, latency
// percentiles) — the figures a serving deployment watches. The workers
// themselves are query.FanOut, the one fan-out the subscription
// reconciler also shards over.
package serve

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/query"
)

// Config configures a worker pool.
type Config struct {
	// Workers is the number of goroutines evaluating queries; 0 means
	// runtime.GOMAXPROCS(0), the number of CPUs the scheduler uses.
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RangeRequest is one iRQ: objects within expected distance R of Q.
type RangeRequest struct {
	Q indoor.Position
	R float64
}

// KNNRequest is one ikNNQ: the K objects nearest Q by expected distance.
type KNNRequest struct {
	Q indoor.Position
	K int
}

// Response is one query's outcome, at the same slice position as its
// request.
type Response struct {
	Results []query.Result
	Stats   *query.Stats
	Err     error
	// Latency is the query's wall time inside the pool. Queries never
	// wait for locks; under load this is essentially pure evaluation time
	// plus scheduling.
	Latency time.Duration
}

// Metrics aggregates one batch execution.
type Metrics struct {
	Queries int
	Errors  int
	Workers int
	// Wall is the batch's total wall time; Throughput is Queries per
	// second of it.
	Wall       time.Duration
	Throughput float64
	// Latency distribution over the batch's queries.
	Mean time.Duration
	P50  time.Duration
	P99  time.Duration
	Max  time.Duration
}

// Pool evaluates query batches against one index. A Pool is stateless
// between batches and safe for concurrent use; goroutines are spawned per
// batch and exit when the batch drains.
type Pool struct {
	proc *query.Processor
	cfg  Config
}

// NewPool returns a pool over the index.
func NewPool(idx *index.Index, cfg Config) *Pool {
	return &Pool{proc: query.New(idx, query.Options{}), cfg: cfg}
}

// RangeBatch evaluates a batch of range queries, fanning them across the
// configured workers. Responses are in request order regardless of which
// worker served them; with no concurrent index writers a batch is
// byte-for-byte identical to a serial loop over RangeQuery. The batch pins
// one snapshot up front, so even under concurrent updates every query of
// the batch observes the same index state.
func (p *Pool) RangeBatch(reqs []RangeRequest) ([]Response, Metrics) {
	snap := p.proc.Pin()
	return p.run(len(reqs), func(i int) ([]query.Result, *query.Stats, error) {
		return p.proc.RangeQueryOn(snap, reqs[i].Q, reqs[i].R)
	})
}

// KNNBatch evaluates a batch of k-nearest-neighbour queries over one
// pinned snapshot.
func (p *Pool) KNNBatch(reqs []KNNRequest) ([]Response, Metrics) {
	snap := p.proc.Pin()
	return p.run(len(reqs), func(i int) ([]query.Result, *query.Stats, error) {
		return p.proc.KNNQueryOn(snap, reqs[i].Q, reqs[i].K)
	})
}

// run distributes n queries over the workers via query.FanOut, the same
// fan-out the subscription reconciler shards over. The caller bound
// every query to one pinned snapshot, so the fan-out involves no locks at
// all — a worker's only shared writes are its own response slots.
func (p *Pool) run(n int, eval func(int) ([]query.Result, *query.Stats, error)) ([]Response, Metrics) {
	resps := make([]Response, n)
	workers := p.cfg.workers()
	if workers > n {
		workers = n
	}
	start := time.Now()
	query.FanOut(workers, n, func(i int) {
		t0 := time.Now()
		res, st, err := eval(i)
		resps[i] = Response{Results: res, Stats: st, Err: err, Latency: time.Since(t0)}
	})
	return resps, metricsFor(resps, workers, time.Since(start))
}

func metricsFor(resps []Response, workers int, wall time.Duration) Metrics {
	m := Metrics{Queries: len(resps), Workers: workers, Wall: wall}
	if len(resps) == 0 {
		return m
	}
	lats := make([]time.Duration, 0, len(resps))
	var sum time.Duration
	for _, r := range resps {
		if r.Err != nil {
			m.Errors++
		}
		lats = append(lats, r.Latency)
		sum += r.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	m.Mean = sum / time.Duration(len(lats))
	m.P50 = quantile(lats, 0.50)
	m.P99 = quantile(lats, 0.99)
	m.Max = lats[len(lats)-1]
	if s := wall.Seconds(); s > 0 {
		m.Throughput = float64(len(resps)) / s
	}
	return m
}

// quantile returns the q-th latency by the nearest-rank method over the
// sorted slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
