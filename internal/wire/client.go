package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/store"
)

// Client is the HTTP side of the protocol: one method per endpoint,
// translating between wire types and transport. Domain failures
// (a query against a removed partition, a fail-stop store) travel inside
// the response bodies; Client methods surface transport and protocol
// failures as errors. A Client is safe for concurrent use.
//
// Every unary call carries a per-request deadline (DefaultRequestTimeout
// unless SetRequestTimeout changed it), so a stalled or partitioned
// daemon fails the call instead of hanging it forever. The streaming
// methods (StreamWAL, StreamEvents) are deliberately unbounded — they
// are long-lived by design and end with their context.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// DefaultRequestTimeout bounds each unary call unless SetRequestTimeout
// overrides it.
const DefaultRequestTimeout = 30 * time.Second

// NewClient returns a client for a daemon at base (e.g.
// "http://127.0.0.1:7070"). A nil http.Client uses the default.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: hc, timeout: DefaultRequestTimeout}
}

// SetRequestTimeout changes the per-request deadline applied to unary
// calls; d <= 0 disables the bound. Call before sharing the client
// between goroutines.
func (c *Client) SetRequestTimeout(d time.Duration) { c.timeout = d }

// unaryCtx derives the per-request context for a unary call.
func (c *Client) unaryCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, c.timeout)
}

// post sends req as JSON under the unary deadline and decodes the
// response body into resp.
func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := c.unaryCtx(context.Background())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	r, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return fmt.Errorf("wire: %s: %s: %s", path, r.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// RangeBatch evaluates a batch of range queries.
func (c *Client) RangeBatch(qs []RangeQuery) (BatchResponse, error) {
	var out BatchResponse
	err := c.post(PathRangeQuery, RangeBatch{Queries: qs}, &out)
	return out, err
}

// KNNBatch evaluates a batch of kNN queries.
func (c *Client) KNNBatch(qs []KNNQuery) (BatchResponse, error) {
	var out BatchResponse
	err := c.post(PathKNNQuery, KNNBatch{Queries: qs}, &out)
	return out, err
}

// ApplyUpdates commits an object-update batch (one snapshot swap on the
// server). A non-nil error may follow a committed batch — same contract
// as the facade's ApplyObjectUpdates.
func (c *Client) ApplyUpdates(ups []UpdateItem) error {
	var ack Ack
	if err := c.post(PathUpdates, UpdateBatch{Updates: ups}, &ack); err != nil {
		return err
	}
	if ack.Err != "" {
		return fmt.Errorf("wire: updates: %s", ack.Err)
	}
	return nil
}

// Topology applies one topology mutation.
func (c *Client) Topology(req TopologyRequest) (TopologyResponse, error) {
	var out TopologyResponse
	err := c.post(PathTopology, req, &out)
	return out, err
}

// Subscribe installs a standing query. Both the returned response's ID
// and Err can be meaningful at once — see SubscribeResponse.
func (c *Client) Subscribe(req SubscribeRequest) (SubscribeResponse, error) {
	var out SubscribeResponse
	err := c.post(PathSubscribe, req, &out)
	return out, err
}

// Unsubscribe removes a standing query, reporting whether it existed.
func (c *Client) Unsubscribe(id int) (bool, error) {
	var out UnsubscribeResponse
	err := c.post(PathUnsubscribe, UnsubscribeRequest{ID: id}, &out)
	return out.Existed, err
}

// HistoryRange evaluates a range query against the state as of a past
// LSN.
func (c *Client) HistoryRange(req HistoryRangeRequest) (HistoryQueryResponse, error) {
	var out HistoryQueryResponse
	err := c.post(PathHistoryRange, req, &out)
	return out, err
}

// HistoryKNN evaluates a kNN query against the state as of a past LSN.
func (c *Client) HistoryKNN(req HistoryKNNRequest) (HistoryQueryResponse, error) {
	var out HistoryQueryResponse
	err := c.post(PathHistoryKNN, req, &out)
	return out, err
}

// HistoryTrajectory fetches one object's partition visits over an LSN
// window.
func (c *Client) HistoryTrajectory(req HistoryTrajectoryRequest) (HistoryTrajectoryResponse, error) {
	var out HistoryTrajectoryResponse
	err := c.post(PathHistoryTrajectory, req, &out)
	return out, err
}

// HistoryOccupancy fetches a partition's enter/leave accounting over an
// LSN window.
func (c *Client) HistoryOccupancy(req HistoryOccupancyRequest) (HistoryOccupancyResponse, error) {
	var out HistoryOccupancyResponse
	err := c.post(PathHistoryOccupancy, req, &out)
	return out, err
}

// Stats fetches the daemon's observability snapshot.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	ctx, cancel := c.unaryCtx(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathStats, nil)
	if err != nil {
		return out, err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return out, fmt.Errorf("wire: stats: %s", r.Status)
	}
	err = json.NewDecoder(r.Body).Decode(&out)
	return out, err
}

// Healthz probes liveness, returning the decoded body and HTTP status.
func (c *Client) Healthz() (HealthResponse, int, error) { return c.health(PathHealthz) }

// Readyz probes readiness: status 200 means "send traffic here", 503
// means the daemon is up but degraded — the response's Reason says why.
func (c *Client) Readyz() (HealthResponse, int, error) { return c.health(PathReadyz) }

func (c *Client) health(path string) (HealthResponse, int, error) {
	var out HealthResponse
	ctx, cancel := c.unaryCtx(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return out, 0, err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return out, 0, err
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		return out, r.StatusCode, fmt.Errorf("wire: %s: %w", path, err)
	}
	return out, r.StatusCode, nil
}

// FetchCheckpoint downloads the leader's newest checkpoint — the
// replica-bootstrap payload — returning the raw validated-on-decode
// bytes and the LSN the checkpoint covers. The unary deadline applies
// on top of the caller's context: a stalled leader fails the bootstrap
// (which then retries with backoff) instead of wedging it forever.
func (c *Client) FetchCheckpoint(ctx context.Context) ([]byte, uint64, error) {
	ctx, cancel := c.unaryCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathReplCheckpoint, nil)
	if err != nil {
		return nil, 0, err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("wire: checkpoint fetch: %s", r.Status)
	}
	lsn, err := strconv.ParseUint(r.Header.Get(LSNHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: checkpoint fetch: bad %s header %q", LSNHeader, r.Header.Get(LSNHeader))
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, 0, err
	}
	return raw, lsn, nil
}

// StreamWAL subscribes to the leader's record stream from just after
// afterLSN, invoking fn for every frame (records, heartbeats and the gap
// signal; store.ReadFrame validates each) until the context cancels, the
// stream ends, or fn errors. A clean server-side close returns nil; fn's
// error is returned verbatim so the consumer can carry typed signals
// (e.g. a resync decision) out of the loop.
func (c *Client) StreamWAL(ctx context.Context, afterLSN uint64, fn func(store.Record) error) error {
	url := fmt.Sprintf("%s%s?after=%d", c.base, PathReplWAL, afterLSN)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 512))
		return fmt.Errorf("wire: wal stream: %s: %s", r.Status, bytes.TrimSpace(msg))
	}
	br := bufio.NewReaderSize(r.Body, 64<<10)
	for {
		rec, err := store.ReadFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// StreamEvents subscribes to the daemon's subscription-event stream
// (NDJSON chunks), invoking fn per chunk until the context cancels, the
// stream ends, or fn errors.
func (c *Client) StreamEvents(ctx context.Context, fn func(EventChunk) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathEvents, nil)
	if err != nil {
		return err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("wire: event stream: %s", r.Status)
	}
	dec := json.NewDecoder(r.Body)
	for {
		var chunk EventChunk
		if err := dec.Decode(&chunk); err != nil {
			if err == io.EOF {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
}
