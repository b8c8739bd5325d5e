// Package server implements the indoorqd HTTP endpoints over either a
// leader DB or a read replica. The serving model:
//
//   - Query endpoints admit requests under a global in-flight bound and
//     coalesce concurrently arriving point queries into shared
//     serve-pool batches — each coalesced batch pins ONE MVCC snapshot,
//     so every query that rode in it observes the same point-in-time
//     state and the per-snapshot costs (pool spin-up, snapshot pin)
//     amortise across callers.
//   - Mutation endpoints (updates, topology, subscribe/unsubscribe)
//     route through the DB's mutators and are rejected on a
//     replica — replicas are read-only by construction.
//   - The events endpoint streams the subscription engine's ordered
//     event log as NDJSON chunks, surfacing the log's overflow signal so
//     a slow consumer knows to re-fetch full results instead of applying
//     an incomplete delta stream.
//   - The replication endpoints expose the store's checkpoint (bootstrap
//     transfer) and WAL tail (record stream with heartbeats and gap
//     signals) — the feed internal/replica consumes.
//   - Every endpoint feeds per-endpoint latency/QPS counters served at
//     /v1/stats, alongside index, durability and replication gauges.
//   - /healthz (liveness) and /readyz (readiness) run outside admission
//     so probes still answer while the daemon sheds load. A durable
//     leader whose WAL has fail-stopped degrades to read-only: queries,
//     streams and the replication feed keep serving, object/topology
//     mutations are refused with 503 and a machine-readable reason, and
//     /readyz flips to 503 so load balancers drain it.
package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	indoorq "repro"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Config tunes the server. The zero value is serviceable.
type Config struct {
	// CoalesceWindow is how long an arriving query batch waits for
	// co-travellers before executing; 2ms when zero. Negative disables
	// coalescing (every request executes alone, still on one snapshot).
	CoalesceWindow time.Duration
	// MaxBatch caps the queries coalesced into one serve-pool execution;
	// 64 when zero.
	MaxBatch int
	// MaxInFlight is the admission bound on concurrently served
	// non-streaming requests; excess requests are refused with 429
	// rather than queued without bound. 256 when zero.
	MaxInFlight int
	// Workers sizes the serve pool per batch; 0 means GOMAXPROCS.
	Workers int
	// Heartbeat is the replication stream's idle heartbeat interval;
	// 200ms when zero.
	Heartbeat time.Duration
	// EventPoll is the event stream's drain interval; 25ms when zero.
	EventPoll time.Duration
	// ReadyMaxLag is the replica-readiness bound: /readyz reports 503
	// once the replica trails the leader's durable horizon by more than
	// this many records. 4096 when zero; negative disables the lag gate
	// (readiness then tracks stream liveness only).
	ReadyMaxLag int64
}

func (c Config) withDefaults() Config {
	if c.CoalesceWindow == 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 200 * time.Millisecond
	}
	if c.EventPoll <= 0 {
		c.EventPoll = 25 * time.Millisecond
	}
	if c.ReadyMaxLag == 0 {
		c.ReadyMaxLag = 4096
	}
	return c
}

// reader is the state every read endpoint serves from: the index the
// range/kNN batches pin and the provider time travel reads. A leader
// *indoorq.DB and a *replica.Replica both hold it, so both roles share
// one read path.
type reader interface {
	Index() *index.Index
	History() *history.Provider
}

// Server serves the wire protocol for one backend: a leader *indoorq.DB
// (db set) or a read *replica.Replica (rep set). Reads go through rd
// whichever the role.
type Server struct {
	cfg Config
	rd  reader
	db  *indoorq.DB
	rep *replica.Replica
	// feed is the leader's replication feed; nil on a replica and on an
	// ephemeral leader.
	feed *replica.LocalSource

	sem     chan struct{}
	rangeCo *coalescer[wire.RangeQuery]
	knnCo   *coalescer[wire.KNNQuery]
	mux     *http.ServeMux
	eps     map[string]*endpointMetrics

	// eventsMu serialises event-stream consumers: DrainEvents is
	// destructive, so concurrent streams would steal each other's events.
	eventsMu      sync.Mutex
	eventsDropped atomic.Uint64
	replStreams   atomic.Int64

	closed    chan struct{}
	closeOnce sync.Once
}

// NewLeader serves a leader DB: all endpoints, including mutations and
// the replication feed. The feed is built here from the DB's attached
// store, so attach it first (Persist, or open with OpenDir): a DB
// persisted after NewLeader serves no feed.
func NewLeader(db *indoorq.DB, cfg Config) *Server {
	s := newServer(cfg, db)
	s.db = db
	if st := db.Store(); st != nil {
		s.feed = replica.NewLocalSource(st, s.cfg.Heartbeat)
	}
	s.routes()
	return s
}

// NewReplica serves a read replica: query and stats endpoints only;
// mutation and replication-feed requests are refused.
func NewReplica(rep *replica.Replica, cfg Config) *Server {
	s := newServer(cfg, rep)
	s.rep = rep
	s.routes()
	return s
}

func newServer(cfg Config, rd reader) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		rd:     rd,
		sem:    make(chan struct{}, cfg.MaxInFlight),
		eps:    make(map[string]*endpointMetrics),
		closed: make(chan struct{}),
	}
	s.rangeCo = newCoalescer[wire.RangeQuery](cfg.CoalesceWindow, cfg.MaxBatch, s.execRange)
	s.knnCo = newCoalescer[wire.KNNQuery](cfg.CoalesceWindow, cfg.MaxBatch, s.execKNN)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the server-side streaming loops (event streams). In-flight
// point requests finish on their own; the HTTP listener's shutdown is
// the caller's.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
}

// latencyRing is the per-endpoint percentile window.
const latencyRing = 512

// endpointMetrics is one endpoint's cumulative profile: total counts
// plus a latency ring for mean/p50/p99 over the recent window.
type endpointMetrics struct {
	count  atomic.Uint64
	errors atomic.Uint64

	mu   sync.Mutex
	ring [latencyRing]int64 // microseconds
	next int
	n    int
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	m.count.Add(1)
	if failed {
		m.errors.Add(1)
	}
	us := d.Microseconds()
	m.mu.Lock()
	m.ring[m.next] = us
	m.next = (m.next + 1) % latencyRing
	if m.n < latencyRing {
		m.n++
	}
	m.mu.Unlock()
}

func (m *endpointMetrics) snapshot() wire.EndpointStats {
	out := wire.EndpointStats{Count: m.count.Load(), Errors: m.errors.Load()}
	m.mu.Lock()
	lats := make([]int64, m.n)
	copy(lats, m.ring[:m.n])
	m.mu.Unlock()
	if len(lats) == 0 {
		return out
	}
	var sum int64
	for _, v := range lats {
		sum += v
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out.MeanMicros = sum / int64(len(lats))
	out.P50Micros = lats[len(lats)/2]
	out.P99Micros = lats[(len(lats)*99)/100]
	return out
}

func (s *Server) endpoint(path string) *endpointMetrics {
	m := &endpointMetrics{}
	s.eps[path] = m
	return m
}
