package server

// Query coalescing: concurrently arriving HTTP query batches merge into
// one serve-pool execution against ONE pinned snapshot. A submitted
// batch waits up to the coalescing window for co-travellers; crossing
// MaxBatch queries executes immediately, in the goroutine of the request
// that crossed it, so a hot endpoint needs no dedicated executor and
// backpressure lands on callers naturally.

import (
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// call is one HTTP request's share of a coalesced batch.
type call[Q any] struct {
	qs   []Q
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

// dispatch slices one executed batch's responses back to the calls that
// contributed, in contribution order. Each call receives the whole
// batch's aggregate metrics — they describe the execution its queries
// rode in.
func dispatch[Q any](batch []*call[Q], resps []serve.Response, m serve.Metrics) {
	wm := wire.MetricsOf(m)
	off := 0
	for _, cl := range batch {
		out := wire.BatchResponse{Metrics: wm, Responses: make([]wire.QueryResponse, len(cl.qs))}
		for i, r := range resps[off : off+len(cl.qs)] {
			qr := wire.QueryResponse{Results: wire.ResultsOf(r.Results), LatencyMicros: r.Latency.Microseconds()}
			if r.Err != nil {
				qr.Err = r.Err.Error()
			}
			out.Responses[i] = qr
		}
		off += len(cl.qs)
		cl.done <- out
	}
}

func (s *Server) execRange(batch []*call[wire.RangeQuery]) {
	var reqs []serve.RangeRequest
	for _, cl := range batch {
		for _, q := range cl.qs {
			reqs = append(reqs, serve.RangeRequest{Q: q.Q.Domain(), R: q.R})
		}
	}
	resps, m := serve.NewPool(s.rd.Index(), serve.Config{Workers: s.cfg.Workers}).RangeBatch(reqs)
	dispatch(batch, resps, m)
}

func (s *Server) execKNN(batch []*call[wire.KNNQuery]) {
	var reqs []serve.KNNRequest
	for _, cl := range batch {
		for _, q := range cl.qs {
			reqs = append(reqs, serve.KNNRequest{Q: q.Q.Domain(), K: q.K})
		}
	}
	resps, m := serve.NewPool(s.rd.Index(), serve.Config{Workers: s.cfg.Workers}).KNNBatch(reqs)
	dispatch(batch, resps, m)
}
