// Package server is the query-serving daemon behind cmd/vaqd: a
// stdlib-only HTTP layer hosting many concurrent online query sessions
// over the SVAQ/SVAQD engines plus offline RVAQ top-k requests against
// repositories opened at startup.
//
// An online session registers a VQL query against a synthetic workload
// (or, via the facade, any stream) and a per-session goroutine drives
// the engine clip by clip through a bounded shared worker pool. Clients
// poll results (optionally long-polling), read status, and cancel. The
// serving vocabulary follows the standing-query deployment of the
// related video-monitoring work (Koudas et al.): queries are resident,
// results accrete, the daemon drains gracefully on shutdown.
//
//	POST   /v1/sessions               create a session
//	GET    /v1/sessions               list sessions
//	GET    /v1/sessions/{id}          status (clips, invocations, critical values)
//	GET    /v1/sessions/{id}/results  result sequences so far (?wait= long-poll)
//	DELETE /v1/sessions/{id}          cancel and remove
//	POST   /v1/topk                   offline RVAQ top-k against a repository
//	POST   /v1/shard/bound            cross-shard B_lo^K bound exchange (shard tier)
//	GET    /healthz                   liveness + rolling error-rate / queue-wait windows
//	GET    /metricsz                  per-endpoint counts and latency quantiles
//	GET    /tracez                    recent spans as JSON trees, plus counters
//	GET    /varz                      Prometheus-style counter/stage exposition
//	GET    /explainz                  EXPLAIN profiles of the last N queries
//
// The JSON wire shapes live in the leaf package internal/api, shared
// with the scatter-gather coordinator tier (package shard) and the
// CLIs' -json modes; the aliases below keep this package's historical
// vocabulary.
package server

import (
	"vaq"
	"vaq/internal/api"
)

// Wire-shape aliases; see package internal/api for the definitions.
type (
	Range                 = api.Range
	CreateSessionRequest  = api.CreateSessionRequest
	CriticalValues        = api.CriticalValues
	SessionInfo           = api.SessionInfo
	SessionList           = api.SessionList
	ResultsResponse       = api.ResultsResponse
	TopKRequest           = api.TopKRequest
	TopKEntry             = api.TopKEntry
	TopKResponse          = api.TopKResponse
	BoundExchangeRequest  = api.BoundExchangeRequest
	BoundExchangeResponse = api.BoundExchangeResponse
	ExplainzResponse      = api.ExplainzResponse
	HealthzSnapshot       = api.HealthzSnapshot
	HealthzResponse       = api.HealthzResponse
	TracezResponse        = api.TracezResponse
)

// Ranges converts engine result sequences to the wire shape.
func Ranges(s vaq.Sequences) []Range { return api.Ranges(s) }
