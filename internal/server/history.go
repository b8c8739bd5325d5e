package server

// The time-travel endpoints. Historical reads are served by both roles
// — a leader answers from its WAL, a replica from the window of records
// it applied itself — and they run under ordinary admission but are
// deliberately NOT gated on degradation: a fail-stopped leader refuses
// new mutations, yet everything already in its log is still perfectly
// reconstructable, and the post-incident forensics these endpoints
// exist for happen exactly then. Bounds violations map to
// machine-readable refusals: 410 history_pruned when compaction
// discarded the requested state (retrying can never succeed), 416
// history_future when the LSN is past the written horizon (retry after
// the log grows).

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/history"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/wire"
)

// writeHistoryErr maps a provider error onto the wire contract.
func writeHistoryErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	reason := ""
	switch {
	case errors.Is(err, history.ErrPruned):
		status, reason = http.StatusGone, wire.ReasonHistoryPruned
	case errors.Is(err, history.ErrFuture):
		status, reason = http.StatusRequestedRangeNotSatisfiable, wire.ReasonHistoryFuture
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrorBody{Err: err.Error(), Reason: reason})
}

// withHistory runs h with the daemon's provider, refusing cleanly when
// none exists (an ephemeral leader has no WAL to read history from).
func (s *Server) withHistory(w http.ResponseWriter, h func(*history.Provider)) {
	hp := s.rd.History()
	if hp == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(wire.ErrorBody{
			Err:    "time travel needs a durable leader (no WAL to read history from)",
			Reason: wire.ReasonHistoryUnavailable,
		})
		return
	}
	h(hp)
}

func (s *Server) handleHistoryRange(w http.ResponseWriter, r *http.Request) {
	var req wire.HistoryRangeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.withHistory(w, func(hp *history.Provider) {
		v, err := hp.AsOf(req.Lsn)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		res, _, err := v.RangeQuery(req.Q.Domain(), req.R)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		writeJSON(w, wire.HistoryQueryResponse{Lsn: v.LSN(), Results: wire.ResultsOf(res)})
	})
}

func (s *Server) handleHistoryKNN(w http.ResponseWriter, r *http.Request) {
	var req wire.HistoryKNNRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.withHistory(w, func(hp *history.Provider) {
		v, err := hp.AsOf(req.Lsn)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		res, _, err := v.KNNQuery(req.Q.Domain(), req.K)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		writeJSON(w, wire.HistoryQueryResponse{Lsn: v.LSN(), Results: wire.ResultsOf(res)})
	})
}

func (s *Server) handleHistoryTrajectory(w http.ResponseWriter, r *http.Request) {
	var req wire.HistoryTrajectoryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.withHistory(w, func(hp *history.Provider) {
		visits, err := hp.Trajectory(object.ID(req.Object), req.From, req.To)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		out := wire.HistoryTrajectoryResponse{Visits: make([]wire.HistoryVisit, len(visits))}
		for i, v := range visits {
			out.Visits[i] = wire.HistoryVisit{
				Partition: int64(v.Partition),
				EnterLsn:  v.EnterLSN,
				LastLsn:   v.LastLSN,
			}
		}
		writeJSON(w, out)
	})
}

func (s *Server) handleHistoryOccupancy(w http.ResponseWriter, r *http.Request) {
	var req wire.HistoryOccupancyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.withHistory(w, func(hp *history.Provider) {
		occ, err := hp.OccupancyOf(indoor.PartitionID(req.Partition), req.From, req.To)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		writeJSON(w, wire.HistoryOccupancyResponse{
			Initial: occ.Initial,
			Enters:  occ.Enters,
			Leaves:  occ.Leaves,
			Final:   occ.Final,
		})
	})
}
