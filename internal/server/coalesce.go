package server

// Query coalescing: concurrently arriving HTTP query batches merge into
// one execution against ONE pinned snapshot. A submitted batch waits up
// to the coalescing window for co-travellers; crossing MaxBatch queries
// executes immediately, in the goroutine of the request that crossed it,
// so a hot endpoint needs no dedicated executor and backpressure lands on
// callers naturally.

import (
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/wire"
)

// call is one HTTP request's share of a coalesced batch.
type call[Q any] struct {
	qs   []Q
	out  []wire.QueryResponse
	done chan wire.BatchResponse
}

// coalescer merges calls of one query kind.
type coalescer[Q any] struct {
	window time.Duration
	max    int
	exec   func([]*call[Q])

	mu    sync.Mutex
	calls []*call[Q]
	total int
	armed bool
}

func newCoalescer[Q any](window time.Duration, max int, exec func([]*call[Q])) *coalescer[Q] {
	return &coalescer[Q]{window: window, max: max, exec: exec}
}

// submit enqueues qs and blocks until its batch has executed, returning
// this call's slice of the results.
func (c *coalescer[Q]) submit(qs []Q) wire.BatchResponse {
	cl := &call[Q]{qs: qs, done: make(chan wire.BatchResponse, 1)}
	if c.window < 0 {
		c.exec([]*call[Q]{cl})
		return <-cl.done
	}
	c.mu.Lock()
	c.calls = append(c.calls, cl)
	c.total += len(qs)
	if c.total >= c.max {
		batch := c.calls
		c.calls, c.total = nil, 0
		c.mu.Unlock()
		c.exec(batch)
		return <-cl.done
	}
	if !c.armed {
		c.armed = true
		time.AfterFunc(c.window, c.flush)
	}
	c.mu.Unlock()
	return <-cl.done
}

func (c *coalescer[Q]) flush() {
	c.mu.Lock()
	batch := c.calls
	c.calls, c.total = nil, 0
	c.armed = false
	c.mu.Unlock()
	if len(batch) > 0 {
		c.exec(batch)
	}
}

// execute is the one query executor. It pins the index's current
// snapshot once, fans the batch's queries over the cores and writes each
// call's responses in place, then hands every call its share. Each call
// also receives the batch's size and error count: they describe the
// execution its queries rode in.
func execute[Q any](idx *index.Index, batch []*call[Q], eval func(*query.Processor, *index.Snapshot, Q) ([]query.Result, error)) {
	p := query.New(idx, query.Options{})
	snap := p.Pin()
	type slot struct {
		q   Q
		out *wire.QueryResponse
	}
	var slots []slot
	for _, cl := range batch {
		cl.out = make([]wire.QueryResponse, len(cl.qs))
		for i, q := range cl.qs {
			slots = append(slots, slot{q: q, out: &cl.out[i]})
		}
	}
	query.FanOut(len(slots), func(i int) {
		t0 := time.Now()
		res, err := eval(p, snap, slots[i].q)
		lat := time.Since(t0)
		*slots[i].out = wire.QueryResponse{Results: wire.ResultsOf(res), LatencyMicros: lat.Microseconds()}
		if err != nil {
			slots[i].out.Err = err.Error()
		}
	})
	m := wire.BatchMetrics{Queries: len(slots)}
	for _, sl := range slots {
		if sl.out.Err != "" {
			m.Errors++
		}
	}
	for _, cl := range batch {
		cl.done <- wire.BatchResponse{Responses: cl.out, Metrics: m}
	}
}

func (s *Server) execRange(batch []*call[wire.RangeQuery]) {
	execute(s.rd.Index(), batch, func(p *query.Processor, snap *index.Snapshot, q wire.RangeQuery) ([]query.Result, error) {
		res, _, err := p.RangeQueryOn(snap, q.Q.Domain(), q.R)
		return res, err
	})
}

func (s *Server) execKNN(batch []*call[wire.KNNQuery]) {
	execute(s.rd.Index(), batch, func(p *query.Processor, snap *index.Snapshot, q wire.KNNQuery) ([]query.Result, error) {
		res, _, err := p.KNNQueryOn(snap, q.Q.Domain(), q.K)
		return res, err
	})
}
