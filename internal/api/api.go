// Package api holds the JSON wire contract of the vaqd serving tier:
// the request/response shapes of the HTTP endpoints served by a single
// vaqd (package server) and by the scatter-gather coordinator (package
// shard). It is a leaf package — both tiers and the CLIs' -json modes
// speak these types, so a coordinator can decode exactly what a shard
// encoded without importing the server implementation.
package api

import (
	"vaq/internal/explain"
	"vaq/internal/interval"
	"vaq/internal/trace"
)

// Range is one result sequence: an inclusive clip-id interval. It is
// the JSON shape shared by the HTTP API and the -json mode of the CLIs.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Ranges converts engine result sequences to the wire shape.
func Ranges(s interval.Set) []Range {
	out := make([]Range, 0, len(s))
	for _, iv := range s {
		out = append(out, Range{Lo: iv.Lo, Hi: iv.Hi})
	}
	return out
}

// CreateSessionRequest registers a standing online query.
type CreateSessionRequest struct {
	// Query is the VQL statement to evaluate online.
	Query string `json:"query"`
	// Workload names the synthetic stream (q1..q12 or a Table 2 movie
	// name) the session runs against.
	Workload string `json:"workload"`
	// Scale resizes the workload (0 < Scale <= 4; default 1).
	Scale float64 `json:"scale,omitempty"`
	// Model picks the detector profile: maskrcnn (default), yolov3,
	// ideal.
	Model string `json:"model,omitempty"`
	// Dynamic selects SVAQD (default true).
	Dynamic *bool `json:"dynamic,omitempty"`
	// MaxClips bounds the clips processed; 0 means the whole workload.
	// Values beyond the workload length keep streaming background-only
	// clips (a standing query over a quiet feed).
	MaxClips int `json:"max_clips,omitempty"`
	// PaceMS throttles the stream to one clip per PaceMS milliseconds,
	// simulating a live feed; 0 processes as fast as the pool allows.
	PaceMS int `json:"pace_ms,omitempty"`
}

// CriticalValues reports the scan statistic's current thresholds.
type CriticalValues struct {
	Objects map[string]int `json:"objects,omitempty"`
	Action  int            `json:"action,omitempty"`
}

// SessionInfo is the status of one session.
type SessionInfo struct {
	ID             string          `json:"id"`
	Query          string          `json:"query"`
	Workload       string          `json:"workload"`
	State          string          `json:"state"` // running, done, cancelled, failed
	ClipsTotal     int             `json:"clips_total"`
	ClipsProcessed int             `json:"clips_processed"`
	Invocations    int             `json:"invocations"`
	Sequences      int             `json:"sequences"`
	CriticalValues *CriticalValues `json:"critical_values,omitempty"`
	// Degraded marks a session whose detection backends fell back at
	// least once: some frames/shots were scored by the degradation prior
	// (or fallback profile), not the primary model. DegradedUnits counts
	// them; Retries/Fallbacks/BreakerState expose the resilience layer.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedUnits int    `json:"degraded_units,omitempty"`
	Retries       int64  `json:"retries,omitempty"`
	Fallbacks     int64  `json:"fallbacks,omitempty"`
	BreakerState  string `json:"breaker_state,omitempty"`
	// Hedges counts hedge replicas the session's backends launched
	// against tail latency; FallbackHops breaks Fallbacks down by
	// degradation-chain hop (last entry is the prior sampler).
	Hedges       int64   `json:"hedges,omitempty"`
	FallbackHops []int64 `json:"fallback_hops,omitempty"`
	// BrownoutLevel is the degradation ladder's active level on a
	// server running the brownout controller (full, no-hedge,
	// cheap-profile, prior-only, shed); empty when unarmed.
	BrownoutLevel string `json:"brownout_level,omitempty"`
	Error         string `json:"error,omitempty"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// ResultsResponse carries the result sequences found so far. The CLI
// vaqquery -json emits the same shape (with ID left empty).
type ResultsResponse struct {
	ID             string  `json:"id,omitempty"`
	State          string  `json:"state"`
	ClipsProcessed int     `json:"clips_processed"`
	Sequences      []Range `json:"sequences"`
	// Degraded marks results computed partly through the resilience
	// fallback (see SessionInfo.Degraded); DegradedUnits counts the
	// affected frames/shots.
	Degraded      bool `json:"degraded,omitempty"`
	DegradedUnits int  `json:"degraded_units,omitempty"`
	// Explain carries the session's EXPLAIN profile so far when the
	// request asked for it (?explain=true) and the server collects
	// profiles (-explain-ring not negative).
	Explain *explain.Profile `json:"explain,omitempty"`
}

// TopKRequest is an offline ranked query. Either give Action/Objects
// directly, or a ranked VQL statement in Query (ORDER BY RANK ... LIMIT
// K), which also fixes K.
type TopKRequest struct {
	// Video names one repository video; empty runs the query globally
	// across the repository with a merged clip-id namespace.
	Video   string   `json:"video,omitempty"`
	Query   string   `json:"query,omitempty"`
	Action  string   `json:"action,omitempty"`
	Objects []string `json:"objects,omitempty"`
	K       int      `json:"k,omitempty"`
	// TimeoutMS bounds this query tighter than the server's request
	// timeout (it can only shorten it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Partial asks for the best-so-far ranking (flagged Incomplete)
	// instead of a 504 when the deadline fires mid-run. On the
	// coordinator it additionally tolerates failed shards: survivors'
	// merged results come back flagged Incomplete instead of a 502.
	Partial bool `json:"partial,omitempty"`
	// HopDiscounts down-weights clips the repository marked degraded at
	// ingest time and flags matching results: entry h−1 (in [0, 1])
	// discounts clips whose worst degraded unit was served by fallback
	// hop h; hops past the table clamp to the last entry, units with no
	// recorded hop take the worst entry, so [d] is a flat discount.
	// Empty scores them as ingested.
	HopDiscounts []float64 `json:"hop_discounts,omitempty"`
	// Explain asks for the query's EXPLAIN profile inline in the
	// response (the profile also lands in the /explainz ring whenever
	// the ring is enabled, whether or not Explain is set).
	Explain bool `json:"explain,omitempty"`
	// BoundQuery joins this query to a cross-process B_lo^K bound
	// exchange under the given id (see docs/SHARDING.md): the serving
	// shard registers the id so POST /v1/shard/bound broadcasts from a
	// coordinator can tighten the run's pruning floor mid-flight.
	// Broadcast bounds are conservative — they may only change work
	// counts, never results. Empty (the default) runs standalone.
	BoundQuery string `json:"bound_query,omitempty"`
}

// TopKEntry is one ranked result.
type TopKEntry struct {
	Video string  `json:"video,omitempty"`
	Seq   Range   `json:"seq"`
	Score float64 `json:"score"`
	// Degraded marks a sequence touching at least one clip whose
	// ingest-time model outputs came from the resilience fallback
	// chain (set only when the request armed hop_discounts).
	Degraded bool `json:"degraded,omitempty"`
}

// TopKResponse is the POST /v1/topk response; vaqtopk -json emits the
// same shape.
type TopKResponse struct {
	Results []TopKEntry `json:"results"`
	// RuntimeUS is the engine-side wall-clock runtime in microseconds;
	// CPURuntimeUS sums the per-video runtimes, so their ratio is the
	// effective fan-out speedup.
	RuntimeUS    int64 `json:"runtime_us"`
	CPURuntimeUS int64 `json:"cpu_runtime_us,omitempty"`
	// RandomAccesses counts score-table random accesses (the paper's
	// primary cost metric); Candidates is |Pq|.
	RandomAccesses int64 `json:"random_accesses"`
	Candidates     int   `json:"candidates"`
	// Incomplete marks a partial answer: the request's deadline fired
	// before the stopping condition and TopKRequest.Partial asked for
	// the best-so-far ranking (lower-bound scores) instead of a 504 —
	// or, on the coordinator, at least one shard failed or shed and
	// the merged ranking covers only the surviving shards.
	Incomplete bool `json:"incomplete,omitempty"`
	// DegradedClips counts degraded clips inside the query's candidate
	// sequences (populated when hop_discounts was armed).
	DegradedClips int `json:"degraded_clips,omitempty"`
	// Explain is the query's EXPLAIN profile, present when the request
	// set explain=true.
	Explain *explain.Profile `json:"explain,omitempty"`
}

// BoundExchangeRequest is the POST /v1/shard/bound body: one round of
// the coordinator's cross-shard B_lo^K broadcast against the in-flight
// query registered under Query (TopKRequest.BoundQuery). Bound, when
// present, is a sound global lower bound on the k-th best score that
// the receiving shard folds into its pruning floor (monotone max).
type BoundExchangeRequest struct {
	Query string   `json:"query"`
	Bound *float64 `json:"bound,omitempty"`
}

// BoundExchangeResponse reports the shard's side of a broadcast round.
// Found is false when no in-flight query is registered under the id
// (it already finished, or never reached this shard); Bound is the
// shard's current B_lo^K after folding the request's bound in, absent
// while the shard has no finite floor yet.
type BoundExchangeResponse struct {
	Found bool     `json:"found"`
	Bound *float64 `json:"bound,omitempty"`
}

// ShardHealth is one backend's entry in the coordinator's /healthz:
// the consistent-hash identity, the probe outcome, and the scatter
// client's circuit-breaker state.
type ShardHealth struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	OK   bool   `json:"ok"`
	// Breaker is the coordinator-side circuit breaker guarding this
	// shard (closed, open, half-open).
	Breaker string `json:"breaker"`
	// Status / BrownoutLevel echo the shard's own /healthz when the
	// probe succeeded; Error carries the probe failure otherwise.
	Status        string `json:"status,omitempty"`
	BrownoutLevel string `json:"brownout_level,omitempty"`
	Error         string `json:"error,omitempty"`
}

// CoordHealthzResponse is the coordinator's GET /healthz payload.
type CoordHealthzResponse struct {
	// Status is "ok" when every shard probe succeeded, "degraded" when
	// some (but not all) failed, "unavailable" when none answered.
	Status string        `json:"status"`
	Shards []ShardHealth `json:"shards"`
}

// CoordShardMetrics is one backend's row in the coordinator /metricsz.
type CoordShardMetrics struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Calls    int64  `json:"calls"`
	Failures int64  `json:"failures,omitempty"`
	Hedges   int64  `json:"hedges,omitempty"`
	Breaker  string `json:"breaker"`
	// BreakerOpens counts closed→open transitions of this shard's
	// breaker since the coordinator started.
	BreakerOpens int64 `json:"breaker_opens,omitempty"`
}

// CoordMetricszResponse is the coordinator's GET /metricsz payload.
type CoordMetricszResponse struct {
	// Scatters counts global top-k queries fanned out to every shard;
	// Routed counts single-shard proxied calls (video-pinned top-k and
	// session traffic); Partials counts scatter responses that came
	// back Incomplete because a shard was down, shedding or timed out.
	Scatters int64 `json:"scatters"`
	Routed   int64 `json:"routed"`
	Partials int64 `json:"partials,omitempty"`
	// BoundRounds counts completed cross-shard bound broadcast rounds.
	BoundRounds int64               `json:"bound_rounds,omitempty"`
	Shards      []CoordShardMetrics `json:"shards"`
}

// ExplainzResponse is the GET /explainz payload: the most recent
// query profiles, newest first. Total counts every profile ever
// collected (the ring retains the last N).
type ExplainzResponse struct {
	Total    int64             `json:"total"`
	Retained int               `json:"retained"`
	Profiles []explain.Profile `json:"profiles"`
}

// HealthzSnapshot is one periodic metrics-history sample: cumulative
// totals plus the tracer counter snapshot at that moment, so deltas
// between samples give windowed rates.
type HealthzSnapshot struct {
	UnixMS   int64            `json:"unix_ms"`
	Requests int64            `json:"requests"`
	Errors   int64            `json:"errors"` // responses with status >= 500
	Sheds    int64            `json:"sheds"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// HealthzResponse is the GET /healthz payload: liveness plus the
// rolling health windows computed from the metrics-history ring.
type HealthzResponse struct {
	Status string `json:"status"` // "ok" or "overloaded"
	// WindowS is the span (seconds) the windowed rates cover: the age
	// of the oldest history sample still inside the rolling window, or
	// 0 when the history is empty (rates are then lifetime totals).
	WindowS float64 `json:"window_s"`
	// Requests / Errors / ErrorRate are windowed: the delta between now
	// and the window's oldest sample.
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// QueueWaitP90MS is the p90 worker-pool queue wait over the shed
	// window's recent samples (0 until enough samples accrue).
	QueueWaitP90MS float64 `json:"queue_wait_p90_ms"`
	ShedRequests   int64   `json:"shed_requests,omitempty"`
	// Overloaded is set while the brownout ladder sits at its shed
	// level (requires -brownout to be armed).
	Overloaded bool `json:"overloaded,omitempty"`
	// BrownoutLevel is the degradation ladder's active level (empty
	// when -brownout is unarmed).
	BrownoutLevel string `json:"brownout_level,omitempty"`
	// Snapshots counts retained history samples; History lists them
	// (newest first) when the request asked with ?history=true.
	Snapshots int               `json:"snapshots"`
	History   []HealthzSnapshot `json:"history,omitempty"`
}

// TracezResponse is the GET /tracez payload: the tracer's retained
// spans as trees plus the pipeline counter snapshot taken in the same
// request (so trees and counters describe one moment).
type TracezResponse struct {
	// TotalSpans counts every span ever ended; Retained is how many the
	// bounded ring still holds.
	TotalSpans uint64           `json:"total_spans"`
	Retained   int              `json:"retained"`
	Counters   map[string]int64 `json:"counters"`
	Trees      []*trace.Node    `json:"trees"`
}

// ErrorBody is the structured error payload of every non-2xx response.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Pos is the byte offset of the offending token for VQL errors.
	Pos *int `json:"pos,omitempty"`
}

// ErrorResponse wraps ErrorBody.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}
