package server

// The endpoint handlers. Non-streaming endpoints run under admission
// (MaxInFlight) and per-endpoint latency accounting; the two streaming
// endpoints (events, WAL shipping) run outside admission — they are
// long-lived by design and must not starve point traffic's slots.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	indoorq "repro"
	"repro/internal/store"
	"repro/internal/wire"
)

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.handle(wire.PathRangeQuery, s.handleRange)
	s.handle(wire.PathKNNQuery, s.handleKNN)
	s.handle(wire.PathUpdates, s.leaderOnly(s.notDegraded(s.handleUpdates)))
	s.handle(wire.PathTopology, s.leaderOnly(s.notDegraded(s.handleTopology)))
	s.handle(wire.PathSubscribe, s.leaderOnly(s.handleSubscribe))
	s.handle(wire.PathUnsubscribe, s.leaderOnly(s.handleUnsubscribe))
	s.handle(wire.PathStats, s.handleStats)
	// History endpoints serve both roles and deliberately skip the
	// degradation gate: a fail-stopped leader's log is still fully
	// reconstructable, and that is exactly when forensics wants it.
	s.handle(wire.PathHistoryRange, s.handleHistoryRange)
	s.handle(wire.PathHistoryKNN, s.handleHistoryKNN)
	s.handle(wire.PathHistoryTrajectory, s.handleHistoryTrajectory)
	s.handle(wire.PathHistoryOccupancy, s.handleHistoryOccupancy)
	s.stream(wire.PathEvents, s.leaderOnly(s.handleEvents))
	s.stream(wire.PathReplCheckpoint, s.leaderOnly(s.withFeed(s.handleReplCheckpoint)))
	s.stream(wire.PathReplWAL, s.leaderOnly(s.withFeed(s.handleReplWAL)))
	// Health probes run outside admission: a daemon shedding load with
	// 429s must still tell its balancer it is alive.
	s.mux.HandleFunc(wire.PathHealthz, s.handleHealthz)
	s.mux.HandleFunc(wire.PathReadyz, s.handleReadyz)
}

// statusWriter records the response code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the streaming endpoints still
// see a Flusher through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers an admitted, instrumented endpoint.
func (s *Server) handle(path string, h http.HandlerFunc) {
	m := s.endpoint(path)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			m.observe(0, true)
			http.Error(w, "server at max in-flight requests", http.StatusTooManyRequests)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		m.observe(time.Since(start), sw.status >= 400)
	})
}

// stream registers a long-lived endpoint: instrumented (latency = stream
// lifetime) but not admission-bounded.
func (s *Server) stream(path string, h http.HandlerFunc) {
	m := s.endpoint(path)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		m.observe(time.Since(start), sw.status >= 400)
	})
}

// leaderOnly refuses mutation and replication-feed requests on a replica.
func (s *Server) leaderOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.db == nil {
			http.Error(w, "read replica: mutations and the replication feed are served by the leader", http.StatusForbidden)
			return
		}
		h(w, r)
	}
}

// withFeed refuses replication-feed requests on a leader without one
// (an ephemeral leader has no log to ship).
func (s *Server) withFeed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.feed == nil {
			http.Error(w, "ephemeral leader: no replication feed", http.StatusNotFound)
			return
		}
		h(w, r)
	}
}

// degraded reports the leader's read-only state: a non-empty reason code
// (and the underlying error) once the attached store has fail-stopped.
// Ephemeral leaders are never degraded. Leader only.
func (s *Server) degraded() (reason, detail string) {
	if err := s.db.DurabilityErr(); err != nil {
		return wire.ReasonWALFailStop, err.Error()
	}
	return "", ""
}

// notDegraded gates object and topology mutations on durability: once
// the WAL has fail-stopped the leader is read-only, and these requests
// are refused up front with 503 and the machine-readable reason —
// retrying them could never succeed and would only burn the engine's
// time re-discovering the same sticky error. Subscription registration
// is deliberately NOT gated: its fail-stop contract is in-band (handle
// and error both cross the wire, see wire.SubscribeResponse), because a
// registration can land in memory even when its log append fails.
func (s *Server) notDegraded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reason, detail := s.degraded(); reason != "" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(wire.ErrorBody{
				Err:    "leader is degraded read-only: " + detail,
				Reason: reason,
			})
			return
		}
		h(w, r)
	}
}

// handleHealthz is liveness: 200 whenever the process answers HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, wire.HealthResponse{Status: "ok", Role: s.role()})
}

// handleReadyz is readiness: 200 only while this daemon should receive
// traffic. A leader is ready until its store fail-stops; a replica is
// ready while its stream is connected and within the lag bound.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := wire.HealthResponse{Status: "ok", Role: s.role()}
	if s.db != nil {
		resp.Reason, resp.Detail = s.degraded()
	} else {
		rs := s.rep.Stats()
		switch {
		case !rs.Connected:
			resp.Reason = wire.ReasonReplicaDisconnected
			resp.Detail = fmt.Sprintf("stream down (reconnects=%d, backoff=%dms); serving last applied lsn %d", rs.Reconnects, rs.BackoffMillis, rs.AppliedLSN)
		case s.cfg.ReadyMaxLag > 0 && rs.LagRecords > uint64(s.cfg.ReadyMaxLag):
			resp.Reason = wire.ReasonReplicaLagging
			resp.Detail = fmt.Sprintf("%d records behind the leader's durable horizon (bound %d)", rs.LagRecords, s.cfg.ReadyMaxLag)
		}
	}
	if resp.Reason != "" {
		resp.Status = "unavailable"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) role() string {
	if s.db != nil {
		return "leader"
	}
	return "replica"
}

// maxRequestBytes bounds a request body; a batch of this size is
// malformed or hostile, not a workload.
const maxRequestBytes = 64 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON encodes v before writing anything, so a value JSON cannot
// represent (an infinite distance, say) answers 500 with the encode
// error — counted by the endpoint's error counter — instead of 200 with
// an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req wire.RangeBatch
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, wire.BatchResponse{})
		return
	}
	writeJSON(w, s.rangeCo.submit(req.Queries))
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req wire.KNNBatch
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeJSON(w, wire.BatchResponse{})
		return
	}
	writeJSON(w, s.knnCo.submit(req.Queries))
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	var req wire.UpdateBatch
	if !decodeJSON(w, r, &req) {
		return
	}
	ups := make([]indoorq.ObjectUpdate, len(req.Updates))
	for i, item := range req.Updates {
		up, err := item.Domain()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ups[i] = up
	}
	// The whole batch commits as one snapshot swap; an error can follow a
	// committed batch (reconciliation, or a refused durability log) —
	// that is the facade's documented contract and it crosses the wire
	// inside the Ack, not as an HTTP failure.
	writeJSON(w, wire.Ack{Err: errString(s.db.ApplyObjectUpdates(ups))})
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	var req wire.TopologyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m, err := req.Mutation()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, wire.TopologyResponseOf(s.db.Apply(m)))
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req wire.SubscribeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	id, members, err := s.db.Subscribe(indoorq.SubscriptionSpec{Q: req.Q.Domain(), R: req.R, K: req.K})
	// id and err travel together: a fail-stop log append leaves a live
	// in-memory registration whose handle the client must receive (see
	// wire.SubscribeResponse).
	resp := wire.SubscribeResponse{ID: id, Err: errString(err), Results: make([]int64, len(members))}
	for i, m := range members {
		resp.Results[i] = int64(m)
	}
	writeJSON(w, resp)
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	var req wire.UnsubscribeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	writeJSON(w, wire.UnsubscribeResponse{Existed: s.db.Unsubscribe(req.ID)})
}

// handleEvents streams the subscription event log as NDJSON chunks. One
// consumer at a time: the drain is destructive, so a second stream
// queues behind the first rather than silently splitting the log.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by transport", http.StatusNotImplemented)
		return
	}
	s.eventsMu.Lock()
	defer s.eventsMu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	// An immediate empty chunk confirms the stream is live.
	if enc.Encode(wire.EventChunk{}) != nil {
		return
	}
	fl.Flush()
	tick := time.NewTicker(s.cfg.EventPoll)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		case <-tick.C:
		}
		evs, overflow := s.db.DrainEvents()
		if overflow {
			s.eventsDropped.Add(1)
		}
		if len(evs) == 0 && !overflow {
			continue
		}
		chunk := wire.EventChunk{Overflow: overflow, Events: make([]wire.Event, len(evs))}
		for i, e := range evs {
			chunk.Events[i] = wire.EventOf(e)
		}
		if enc.Encode(chunk) != nil {
			return
		}
		fl.Flush()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := wire.StatsResponse{Endpoints: make(map[string]wire.EndpointStats, len(s.eps))}
	for path, m := range s.eps {
		resp.Endpoints[path] = m.snapshot()
	}
	resp.EventsDropped = s.eventsDropped.Load()
	resp.ReplStreams = int(s.replStreams.Load())
	idx := s.rd.Index()
	resp.NumObjects = idx.Current().Objects().Len()
	resp.SnapshotSwaps = idx.SnapshotSwaps()
	if s.db != nil {
		resp.Subscriptions = s.db.NumSubscriptions()
		ss := s.db.SubscriptionStatsSnapshot()
		resp.Reconcile = &wire.ReconcileStats{
			Batches:         ss.Batches,
			Updates:         ss.Updates,
			RoutedPairs:     ss.RoutedPairs,
			AffectedSubs:    ss.AffectedSubs,
			Refreshes:       ss.Refreshes,
			TopoAdmitted:    ss.TopoAdmitted,
			TopoCarried:     ss.TopoCarried,
			TopoPartial:     ss.TopoPartial,
			BatchMeanMicros: ss.ReconcileBatchMean.Microseconds(),
			BatchP50Micros:  ss.ReconcileBatchP50.Microseconds(),
			BatchP99Micros:  ss.ReconcileBatchP99.Microseconds(),
		}
		if st := s.db.Store(); st != nil {
			resp.WrittenLSN = st.WrittenLSN()
			resp.DurableLSN = st.DurableLSN()
			resp.WALSize = s.db.WALSize()
		}
		if reason, detail := s.degraded(); reason != "" {
			resp.Degraded = true
			resp.DegradedReason = reason
			resp.DegradedDetail = detail
		}
	} else {
		rs := s.rep.Stats()
		resp.Replica = &rs
	}
	if hp := s.rd.History(); hp != nil {
		hs := hp.Stats()
		resp.History = &wire.HistoryStats{
			AsOf:             hs.AsOf,
			ViewHits:         hs.ViewHits,
			Materializations: hs.Materializations,
			Advances:         hs.Advances,
			ReplayedRecords:  hs.ReplayedRecords,
			Trajectories:     hs.Trajectories,
			Occupancies:      hs.Occupancies,
			ScannedRecords:   hs.ScannedRecords,
		}
	}
	writeJSON(w, resp)
}

// handleReplCheckpoint serves the newest checkpoint for replica
// bootstrap, its covered LSN in the X-Indoorq-Lsn header: the feed's
// FetchCheckpoint, the same Source method the replica calls on its end
// of the wire.
func (s *Server) handleReplCheckpoint(w http.ResponseWriter, r *http.Request) {
	raw, lsn, err := s.feed.FetchCheckpoint(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set(wire.LSNHeader, strconv.FormatUint(lsn, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(raw)
}

// handleReplWAL streams WAL records from ?after=N, with heartbeats and
// the gap signal, until the subscriber goes away or the store closes.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		http.Error(w, "bad ?after= parameter", http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by transport", http.StatusNotImplemented)
		return
	}
	s.replStreams.Add(1)
	defer s.replStreams.Add(-1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// The stream ends when the subscriber goes away, the transport breaks
	// or the store closes; the status is already sent, so its error has
	// nowhere to go.
	var buf []byte
	_ = s.feed.StreamWAL(r.Context(), after, func(rec store.Record) error {
		buf = store.AppendFrame(buf[:0], rec)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		fl.Flush()
		return nil
	})
}
