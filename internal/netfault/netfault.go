// Package netfault injects network chaos into the serving and
// replication paths: Transport is an http.RoundTripper that can delay
// requests, refuse them with connection-reset-shaped errors, and cut or
// drip-feed response bodies mid-frame (the failure the replication
// stream's frame CRC and the replica's reconnect/backoff machinery must
// absorb); Proxy is a TCP relay that does the same below HTTP, cutting
// live connections after a byte budget. Both are deterministic under a
// seed, so a chaos run that finds a bug is replayable.
package netfault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base cause of every injected network failure.
var ErrInjected = errors.New("netfault: injected network fault")

// Plan is a randomized chaos profile. Probabilities are per request
// (Transport) or per relayed chunk (Proxy); zero values disable that
// fault class. A Plan is immutable once in use.
type Plan struct {
	// Seed makes the chaos deterministic; same seed, same faults.
	Seed int64
	// FailProb is the probability a request is refused outright with a
	// connection-reset error before any bytes move.
	FailProb float64
	// CutBodyProb is the probability a response body is cut after a
	// random prefix of at most CutAfterMax bytes — a mid-frame stream
	// cut. The prefix really reaches the reader.
	CutBodyProb float64
	// CutAfterMax bounds the bytes delivered before a cut; 4 KiB when
	// zero.
	CutAfterMax int64
	// CutPathContains restricts Transport body cuts to requests whose
	// URL path contains this substring (e.g. "/repl/wal" to storm the
	// replication stream while bootstrap transfers survive). Empty cuts
	// everything. The byte-level Proxy cannot see paths and ignores it.
	CutPathContains string
	// MaxLatency adds a uniform random delay in [0, MaxLatency) before
	// each request (Transport) or relayed chunk (Proxy).
	MaxLatency time.Duration
	// ChunkBytes drips response bodies through reads of at most this
	// many bytes, simulating partial reads on a congested link; 0 leaves
	// read sizes alone.
	ChunkBytes int
}

func (p Plan) cutAfterMax() int64 {
	if p.CutAfterMax <= 0 {
		return 4 << 10
	}
	return p.CutAfterMax
}

// Transport is a chaos http.RoundTripper. Wrap a real transport (nil
// uses http.DefaultTransport) and hand it to an http.Client: unary
// calls and streams alike then experience the plan's faults. Disabled
// transports (SetEnabled(false)) pass everything through — chaos tests
// use that to end the storm and let the system converge.
type Transport struct {
	inner http.RoundTripper
	plan  Plan

	mu  sync.Mutex
	rng *rand.Rand

	enabled  atomic.Bool
	injected atomic.Uint64 // faults actually fired
}

// NewTransport returns a chaos transport over inner with the given
// plan, enabled.
func NewTransport(inner http.RoundTripper, plan Plan) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	t := &Transport{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
	t.enabled.Store(true)
	return t
}

// SetEnabled turns fault injection on or off; the transport keeps
// relaying either way.
func (t *Transport) SetEnabled(on bool) { t.enabled.Store(on) }

// Injected returns how many faults have fired.
func (t *Transport) Injected() uint64 { return t.injected.Load() }

// roll draws from the seeded rng under the lock.
func (t *Transport) roll() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64()
}

func (t *Transport) rollInt64(n int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Int63n(n)
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.enabled.Load() {
		return t.inner.RoundTrip(req)
	}
	if d := t.plan.MaxLatency; d > 0 {
		delay := time.Duration(t.rollInt64(int64(d)))
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if p := t.plan.FailProb; p > 0 && t.roll() < p {
		t.injected.Add(1)
		return nil, fmt.Errorf("netfault: %s %s: connection reset: %w", req.Method, req.URL.Path, ErrInjected)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body := resp.Body
	cuttable := t.plan.CutPathContains == "" || strings.Contains(req.URL.Path, t.plan.CutPathContains)
	if p := t.plan.CutBodyProb; cuttable && p > 0 && t.roll() < p {
		t.injected.Add(1)
		body = &cutReader{inner: body, remaining: 1 + t.rollInt64(t.plan.cutAfterMax())}
	}
	if n := t.plan.ChunkBytes; n > 0 {
		body = &chunkReader{inner: body, chunk: n}
	}
	resp.Body = body
	return resp, nil
}

// cutReader delivers a prefix of the body, then fails like a reset
// connection. Close still closes the underlying body so the transport's
// connection accounting stays sane.
type cutReader struct {
	inner     io.ReadCloser
	remaining int64
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, fmt.Errorf("netfault: stream cut: %w", ErrInjected)
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.inner.Read(p)
	c.remaining -= int64(n)
	if err == nil && c.remaining <= 0 {
		err = fmt.Errorf("netfault: stream cut: %w", ErrInjected)
	}
	return n, err
}

func (c *cutReader) Close() error { return c.inner.Close() }

// chunkReader caps each Read at chunk bytes — many small reads instead
// of few large ones, the shape a congested link produces.
type chunkReader struct {
	inner io.ReadCloser
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.inner.Read(p)
}

func (c *chunkReader) Close() error { return c.inner.Close() }

// Proxy is a chaos TCP relay: it listens on a local address and
// forwards every connection to the target, applying the plan's latency
// and cut faults at the byte level — beneath HTTP, so a cut looks to
// both ends like a peer that vanished mid-frame. CutAll severs every
// live connection at once (a network partition); the listener keeps
// accepting, so reconnects succeed (the partition heals).
type Proxy struct {
	target string
	plan   Plan

	ln net.Listener

	mu    sync.Mutex
	rng   *rand.Rand
	conns map[net.Conn]struct{}

	enabled atomic.Bool
	cuts    atomic.Uint64
	closed  atomic.Bool
}

// NewProxy starts a chaos relay to target on a fresh loopback port.
func NewProxy(target string, plan Plan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		plan:   plan,
		ln:     ln,
		rng:    rand.New(rand.NewSource(plan.Seed)),
		conns:  make(map[net.Conn]struct{}),
	}
	p.enabled.Store(true)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address, for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetEnabled turns byte-level fault injection on or off.
func (p *Proxy) SetEnabled(on bool) { p.enabled.Store(on) }

// Cuts returns how many connections the proxy has severed.
func (p *Proxy) Cuts() uint64 { return p.cuts.Load() }

// CutAll severs every live connection — a momentary partition.
func (p *Proxy) CutAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
		delete(p.conns, c)
	}
	p.cuts.Add(1)
}

// Close stops the listener and severs everything.
func (p *Proxy) Close() {
	p.closed.Store(true)
	p.ln.Close()
	p.CutAll()
}

func (p *Proxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.relay(conn)
	}
}

// track registers a connection for CutAll; returns false if the proxy
// is closing.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

func (p *Proxy) relay(client net.Conn) {
	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	if !p.track(client) || !p.track(upstream) {
		client.Close()
		upstream.Close()
		return
	}
	// A cut budget per connection: when the plan cuts, this connection
	// dies after a random relayed byte count.
	var budget int64 = -1
	p.mu.Lock()
	if p.plan.CutBodyProb > 0 && p.rng.Float64() < p.plan.CutBodyProb {
		budget = 1 + p.rng.Int63n(p.plan.cutAfterMax())
	}
	p.mu.Unlock()
	var once sync.Once
	closeBoth := func() {
		once.Do(func() {
			p.untrack(client)
			p.untrack(upstream)
			client.Close()
			upstream.Close()
		})
	}
	var relayed atomic.Int64
	copy := func(dst, src net.Conn) {
		defer closeBoth()
		buf := make([]byte, 16<<10)
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				if p.enabled.Load() {
					if d := p.plan.MaxLatency; d > 0 {
						p.mu.Lock()
						delay := time.Duration(p.rng.Int63n(int64(d)))
						p.mu.Unlock()
						time.Sleep(delay)
					}
					if budget >= 0 && relayed.Add(int64(n)) > budget {
						p.cuts.Add(1)
						return
					}
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if rerr != nil {
				return
			}
		}
	}
	go copy(upstream, client)
	go copy(client, upstream)
}
