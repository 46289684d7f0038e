package server

import (
	"net/http"

	"vaq/internal/api"
	"vaq/internal/explain"
	"vaq/internal/infer"
	"vaq/internal/resilience"
)

// EXPLAIN glue: the engines feed their collectors directly (svaq clip
// and predicate hooks, rvaq top-k hooks); the shared-inference and
// resilience layers expose only cumulative Stats, so their per-query
// attribution is the delta between a snapshot at query start and one
// at finish. Under shared inference several sessions drive one backend
// stack, so a session's delta includes rounds its co-tenants issued in
// the same span — the per-domain totals stay exact, the per-session
// split is an upper bound (noted in docs/EXPLAIN.md).

// inferDelta converts a start/end pair of infer.Stats snapshots into
// the query's InferProfile.
func inferDelta(end, start infer.Stats) explain.InferProfile {
	return explain.InferProfile{
		CacheHits:    end.CacheHits - start.CacheHits,
		CacheMisses:  end.CacheMisses - start.CacheMisses,
		Leaders:      end.Leaders - start.Leaders,
		Coalesced:    end.Coalesced - start.Coalesced,
		Batches:      end.Batches - start.Batches,
		BatchedUnits: end.BatchedUnits - start.BatchedUnits,
	}
}

// resilienceDelta converts a start/end pair of resilience.Stats
// snapshots into the query's ResilienceProfile.
func resilienceDelta(end, start resilience.Stats) explain.ResilienceProfile {
	d := explain.ResilienceProfile{
		Calls:            end.Calls - start.Calls,
		Errors:           end.Errors - start.Errors,
		Retries:          end.Retries - start.Retries,
		Hedges:           end.Hedges - start.Hedges,
		HedgeWins:        end.HedgeWins - start.HedgeWins,
		DeadlineExceeded: end.DeadlineExceeded - start.DeadlineExceeded,
		BreakerRejects:   end.BreakerRejects - start.BreakerRejects,
		LabelRejects:     end.LabelRejects - start.LabelRejects,
		Fallbacks:        end.Fallbacks - start.Fallbacks,
		DegradedUnits:    end.DegradedUnits - start.DegradedUnits,
	}
	for i, n := range end.FallbackHops {
		var base int64
		if i < len(start.FallbackHops) {
			base = start.FallbackHops[i]
		}
		d.FallbackHops = append(d.FallbackHops, n-base)
	}
	return d
}

// handleExplainz serves the ring of recent query profiles, newest
// first.
func (s *Server) handleExplainz(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		api.WriteErr(w, http.StatusNotFound, "explain_disabled",
			"EXPLAIN collection is disabled (-explain-ring negative)", nil)
		return
	}
	profiles := s.ring.Snapshot()
	api.WriteJSON(w, http.StatusOK, ExplainzResponse{
		Total:    s.ring.Total(),
		Retained: len(profiles),
		Profiles: profiles,
	})
}
