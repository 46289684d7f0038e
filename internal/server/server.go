package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vaq"
	"vaq/internal/brownout"
	"vaq/internal/detect"
	"vaq/internal/explain"
	"vaq/internal/fault"
	"vaq/internal/infer"
	"vaq/internal/ingest"
	"vaq/internal/resilience"
	"vaq/internal/synth"
	"vaq/internal/trace"
	"vaq/internal/vql"
)

// httpStatusClientClosedRequest is nginx's non-standard 499: the client
// went away before the offline query finished.
const httpStatusClientClosedRequest = 499

// Config tunes a Server. The zero value serves sessions with defaults
// and rejects top-k requests (no repository).
type Config struct {
	// Repo answers POST /v1/topk; nil returns 503 for that endpoint.
	// It is opened once at startup and shared read-only across requests.
	Repo *vaq.Repository
	// MaxSessions caps concurrently running sessions (default 64).
	MaxSessions int
	// Workers bounds concurrent clip evaluations across all sessions
	// (default GOMAXPROCS).
	Workers int
	// RequestTimeout bounds session-create and top-k handlers
	// (default 30s).
	RequestTimeout time.Duration
	// MaxWait caps the ?wait= long-poll duration (default 60s).
	MaxWait time.Duration
	// Tracer records spans, pipeline counters and stage latencies for
	// GET /tracez and GET /varz. Nil gets a default tracer; vaqd passes
	// one built with a slow-query log when -slow-query is set.
	Tracer *trace.Tracer
	// FaultSchedule injects deterministic faults into every session's
	// detection backends (chaos testing, vaqd -fault); the zero schedule
	// injects nothing.
	FaultSchedule fault.Schedule
	// Resilience is the retry/deadline/breaker policy wrapped around
	// session detectors; nil uses resilience.DefaultPolicy.
	Resilience *resilience.Policy
	// Brownout arms the load-regulated degradation ladder (High > 0):
	// the same p90 queue-wait signal walks the levels
	// full → no-hedge → cheap-profile → prior-only → shed with
	// hysteresis (step up at High, down at Low, at most one step per
	// Dwell), and each level reconfigures every session's resilience
	// posture in place. At the shed level, session-create and top-k
	// requests are rejected with 503 + Retry-After instead of queuing
	// unboundedly; unarmed, nothing sheds.
	Brownout brownout.Config
	// HedgeQuantile arms hedged requests on session backends: an
	// attempt outliving this observed latency quantile races a second
	// call, first result wins (see resilience.Policy.HedgeQuantile).
	// 0 leaves the policy's own setting.
	HedgeQuantile float64
	// LabelBreaker adds per-(backend, label) circuit breakers inside
	// the per-backend one, so a single broken label sheds only itself.
	LabelBreaker bool
	// AdaptiveRetries arms the adaptive retry budget: as the p90
	// worker-pool queue wait warms toward this threshold, session
	// retry budgets shrink linearly to zero (retries are poison under
	// overload). 0 disables.
	AdaptiveRetries time.Duration
	// FallbackChain names cheaper detector profiles (maskrcnn, yolov3,
	// ideal) tried in order for units the primary cannot serve; the
	// bgprob prior stays the implicit final hop. Validate with
	// ValidateFallbackChain before serving.
	FallbackChain []string
	// SharedInference turns on the cross-session shared-inference layer
	// (package infer): sessions of the same (workload, scale, model)
	// share one resilient backend stack fronted by singleflight dedup,
	// with the memo cache and micro-batcher below the fault injector.
	SharedInference bool
	// InferCache bounds the shared score cache in entries; 0 picks the
	// default (65536), negative disables caching (dedup only). Only
	// meaningful with SharedInference.
	InferCache int
	// BatchWindow holds the first invocation of a micro-batch open
	// waiting for same-label-set companions; 0 disables batching. Only
	// meaningful with SharedInference.
	BatchWindow time.Duration
	// BatchMax caps units per vectorized call (default 16).
	BatchMax int
	// PlanRate arms the coarse-to-fine adaptive sampling planner on
	// every session's stream: predicates are first evaluated on one
	// unit in PlanRate and only undecided clips densify (vaqd
	// -plan-rate). 0 disables planning; 1 runs the planner's single
	// dense rung (byte-identical results).
	PlanRate int
	// PlanLevels caps the densification ladder length (vaqd
	// -plan-levels); 0 means the full ladder down to stride 1.
	PlanLevels int
	// ExplainRing sizes the GET /explainz ring of recent query EXPLAIN
	// profiles: 0 picks the default (64), negative disables collection
	// entirely (sessions and top-k requests then run without
	// collectors, and explain=true requests get no profile).
	ExplainRing int
}

// DefaultExplainRing is the /explainz retention when Config.ExplainRing
// is 0.
const DefaultExplainRing = 64

// DefaultInferCache is the shared score cache capacity when
// Config.InferCache is 0.
const DefaultInferCache = 65536

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 60 * time.Second
	}
	if c.Tracer == nil {
		c.Tracer = trace.New()
	}
	if c.InferCache == 0 {
		c.InferCache = DefaultInferCache
	}
	if c.ExplainRing == 0 {
		c.ExplainRing = DefaultExplainRing
	}
	return c
}

// Server hosts the HTTP API. Build with New, mount Handler, and call
// Shutdown to drain.
type Server struct {
	cfg    Config
	reg    *Registry
	met    *metrics
	mux    *http.ServeMux
	shed   *shedWindow
	bo     *brownout.Controller       // nil unless Brownout armed
	mode   *resilience.ModeVar        // shared by every session's backends
	budget *resilience.AdaptiveBudget // nil unless AdaptiveRetries armed
	hub    *inferHub                  // nil unless SharedInference armed
	ring   *explain.Ring              // nil when ExplainRing is negative
	hist   *healthHistory
	bounds *boundRegistry // cross-process B_lo^K exchanges (shard tier)
	qseq   atomic.Int64   // top-k query id mint (q1, q2, ...)
}

// New builds a server and its routes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    NewRegistry(cfg.MaxSessions, cfg.Workers),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
		shed:   newShedWindow(),
		ring:   explain.NewRing(cfg.ExplainRing),
		hist:   newHealthHistory(),
		bounds: newBoundRegistry(),
	}
	s.reg.SetTracer(cfg.Tracer)
	s.reg.SetExplainRing(s.ring)
	if cfg.Brownout.High > 0 {
		s.mode = &resilience.ModeVar{}
		bo, err := brownout.New(cfg.Brownout, brownout.Options{
			Tracer: cfg.Tracer,
			// Level changes flip the shared mode var, so every session's
			// backends — including the shared-inference stacks — adopt
			// the new posture on their next call.
			OnChange: func(_, to brownout.Level) { s.mode.Set(modeFor(to)) },
		})
		if err != nil {
			// vaqd validates the flag family at startup; reaching here is
			// a programming error, not an operational condition.
			panic(err)
		}
		s.bo = bo
		s.reg.SetLevelFunc(func() string { return bo.Level().String() })
	}
	if cfg.SharedInference {
		s.hub = newInferHub(infer.Config{
			CacheCapacity: cfg.InferCache,
			BatchWindow:   cfg.BatchWindow,
			BatchMax:      cfg.BatchMax,
			Tracer:        cfg.Tracer,
		})
	}
	if cfg.AdaptiveRetries > 0 {
		// The budget rides the same queue-wait signal as the shed
		// window: one pool observer feeds both.
		s.budget = resilience.NewAdaptiveBudget(cfg.AdaptiveRetries)
		s.reg.Pool().SetObserver(func(w time.Duration) {
			s.shed.observe(w)
			s.budget.Observe(w)
			s.evalBrownout()
		})
	} else {
		s.reg.Pool().SetObserver(func(w time.Duration) {
			s.shed.observe(w)
			s.evalBrownout()
		})
	}
	route := func(pattern string, h http.HandlerFunc) {
		wrapped := s.met.instrument(pattern, h)
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			wrapped(w, r)
			// Opportunistic, time-gated metrics-history sampling: no
			// background goroutine, one cheap clock read per request.
			s.hist.maybeSnapshot(s.healthSample)
		})
	}
	route("POST /v1/sessions", s.timed(s.handleCreateSession))
	route("GET /v1/sessions", s.handleListSessions)
	route("GET /v1/sessions/{id}", s.handleSessionStatus)
	route("GET /v1/sessions/{id}/results", s.timed(s.handleSessionResults))
	route("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	route("POST /v1/topk", s.timed(s.handleTopK))
	route("POST /v1/shard/bound", s.handleShardBound)
	route("GET /healthz", s.handleHealthz)
	route("GET /metricsz", s.handleMetricsz)
	route("GET /tracez", s.handleTracez)
	route("GET /varz", s.handleVarz)
	route("GET /explainz", s.handleExplainz)
	return s
}

// Tracer returns the server's tracer (never nil after New).
func (s *Server) Tracer() *trace.Tracer { return s.cfg.Tracer }

// Handler returns the routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains in-flight sessions (see Registry.Shutdown). Callers
// shut the http.Server down first so no new requests arrive mid-drain.
func (s *Server) Shutdown(ctx context.Context) error { return s.reg.Shutdown(ctx) }

// Registry exposes the session registry (status endpoints, tests).
func (s *Server) Registry() *Registry { return s.reg }

// timed attaches the request-scoped timeout to non-poll handlers.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeCtxErr maps a context failure onto HTTP semantics: a server-side
// deadline is 504 (the server gave up on its own timeout — the client
// should know the work was cut short), while a client that went away is
// the non-standard 499 (nobody is listening; the code only feeds
// metrics). err may wrap the pool's queue sentinels — errors.Is sees
// through them.
func writeCtxErr(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeErr(w, http.StatusGatewayTimeout, "deadline", err.Error(), nil)
		return
	}
	writeErr(w, httpStatusClientClosedRequest, "cancelled", err.Error(), nil)
}

// modeFor maps a brownout ladder level onto the resilience posture it
// imposes on the wrapped backends. LevelShed maps to ModePrior: new
// requests are rejected at the door, but sessions already in flight
// keep draining at the cheapest answer-bearing posture.
func modeFor(l brownout.Level) resilience.Mode {
	switch {
	case l >= brownout.LevelPrior:
		return resilience.ModePrior
	case l == brownout.LevelCheap:
		return resilience.ModeCheap
	case l == brownout.LevelNoHedge:
		return resilience.ModeNoHedge
	}
	return resilience.ModeFull
}

// evalBrownout feeds the ladder one fresh p90 reading. It runs on
// every pool observation (load rising with traffic) and on every
// admission check (so a daemon gone quiet — no pool activity — still
// steps back down as its samples age out).
func (s *Server) evalBrownout() {
	if s.bo == nil {
		return
	}
	p90, ok := s.shed.waitP90()
	s.bo.Observe(p90, ok)
}

// shedIfOverloaded applies admission control: when the brownout ladder
// sits at its shed level, answer 503 with a Retry-After hint and report
// true so the handler returns without doing any work.
func (s *Server) shedIfOverloaded(w http.ResponseWriter) bool {
	s.evalBrownout()
	if s.bo.Level() != brownout.LevelShed {
		return false
	}
	s.bo.Shed()
	w.Header().Set("Retry-After", strconv.Itoa(s.shed.shedRetry(s.cfg.Brownout.High)))
	writeErr(w, http.StatusServiceUnavailable, "overloaded",
		"brownout ladder at level shed; retry later", nil)
	return true
}

// writeErr emits the structured error envelope. Query errors carry the
// byte offset of the offending token when the vql layer provides one.
func writeErr(w http.ResponseWriter, status int, code, msg string, queryErr error) {
	body := ErrorBody{Code: code, Message: msg}
	if queryErr != nil {
		if pos, ok := vql.ErrPosition(queryErr); ok {
			body.Pos = &pos
		}
	}
	writeJSON(w, status, ErrorResponse{Error: body})
}

// loadWorkload resolves a synthetic workload name (q1..q12 or a movie)
// exactly as the CLIs do.
func loadWorkload(name string, scale float64) (*synth.QuerySet, error) {
	for _, id := range synth.YouTubeIDs() {
		if id == name {
			return synth.YouTubeScaled(id, vaq.DefaultGeometry(), scale)
		}
	}
	for _, m := range synth.MovieNames() {
		if m == name {
			return synth.MovieScaled(name, scale)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want q1..q12 or one of %v)", name, synth.MovieNames())
}

// ValidateFallbackChain rejects unknown profile names in a configured
// fallback chain, so vaqd fails at startup instead of per session.
func ValidateFallbackChain(names []string) error {
	for _, m := range names {
		if _, _, err := modelProfiles(m); err != nil {
			return fmt.Errorf("fallback chain: %w", err)
		}
	}
	return nil
}

func modelProfiles(model string) (detect.Profile, detect.Profile, error) {
	switch model {
	case "", "maskrcnn":
		return detect.MaskRCNN, detect.I3D, nil
	case "yolov3":
		return detect.YOLOv3, detect.I3D, nil
	case "ideal":
		return detect.IdealObject, detect.IdealAction, nil
	}
	return detect.Profile{}, detect.Profile{}, fmt.Errorf("unknown model %q (want maskrcnn, yolov3 or ideal)", model)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.shedIfOverloaded(w) {
		return
	}
	var req CreateSessionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields() // a misspelled option is an error, not silently ignored
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error(), nil)
		return
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if req.Scale < 0 || req.Scale > 4 {
		writeErr(w, http.StatusBadRequest, "bad_scale", "scale must be in (0, 4]", nil)
		return
	}
	if req.MaxClips < 0 || req.PaceMS < 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "max_clips and pace_ms must be non-negative", nil)
		return
	}
	qs, err := loadWorkload(req.Workload, req.Scale)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_workload", err.Error(), nil)
		return
	}
	objP, actP, err := modelProfiles(req.Model)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_model", err.Error(), nil)
		return
	}
	// The query (when given) parses before any backend is built, so the
	// common validation failures never construct a model stack.
	var plan *vaq.Plan
	if req.Query != "" {
		plan, err = vaq.ParseQuery(req.Query)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid_query", err.Error(), err)
			return
		}
		if plan.Ranked {
			writeErr(w, http.StatusBadRequest, "ranked_query",
				"ORDER BY RANK queries are offline; use POST /v1/topk", nil)
			return
		}
	} else {
		// No query: run the workload's own Table 1/2 query, and echo the
		// resolved query in the session status.
		req.Query = qs.Query.String()
	}

	pol := resilience.DefaultPolicy()
	if s.cfg.Resilience != nil {
		pol = *s.cfg.Resilience
	}
	if s.cfg.HedgeQuantile > 0 {
		pol.HedgeQuantile = s.cfg.HedgeQuantile
	}
	if s.cfg.LabelBreaker {
		pol.LabelBreaker = true
	}
	var chainProfiles [][2]detect.Profile
	for _, m := range s.cfg.FallbackChain {
		objFB, actFB, err := modelProfiles(m)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "bad_fallback_chain", err.Error(), nil)
			return
		}
		chainProfiles = append(chainProfiles, [2]detect.Profile{objFB, actFB})
	}

	// Every session's backends go through the resilience layer; with the
	// default policy and no fault schedule the wrapper is transparent
	// (byte-identical results) and nearly free. The injector slots in
	// between only when vaqd -fault armed a schedule. buildModels stacks
	// one backend set bottom-up: raw sims → (infer cache/batcher when sh
	// is non-nil) → fault injector → resilience. The fallback chain hops
	// are independent cheaper backends over the same scene; the fault
	// schedule stays on the primary only.
	scene := qs.World.Scene()
	buildModels := func(sh *infer.Shared) *resilience.Models {
		fdet := detect.AsFallibleObject(detect.NewSimObjectDetector(scene, objP, nil))
		frec := detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, actP, nil))
		if sh != nil {
			fdet = sh.Object(fdet)
			frec = sh.Action(frec)
		}
		if fs := s.cfg.FaultSchedule; !fs.Empty() {
			fdet = fault.NewObject(fdet, fs)
			frec = fault.NewAction(frec, fs)
		}
		ropt := resilience.Options{Tracer: s.cfg.Tracer, Budget: s.budget, Mode: s.mode}
		for _, fb := range chainProfiles {
			ropt.FallbackObjects = append(ropt.FallbackObjects,
				detect.AsFallibleObject(detect.NewSimObjectDetector(scene, fb[0], nil)))
			ropt.FallbackActions = append(ropt.FallbackActions,
				detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, fb[1], nil)))
		}
		return resilience.WrapFallible(fdet, frec, pol, ropt)
	}

	meta := qs.World.Truth.Meta
	total := meta.Clips()
	if req.MaxClips > 0 {
		total = req.MaxClips
	}
	dynamic := true
	if req.Dynamic != nil {
		dynamic = *req.Dynamic
	}
	cfg := vaq.StreamConfig{
		Dynamic:      dynamic,
		HorizonClips: max(total, meta.Clips()),
		Plan:         vaq.PlanConfig{Rate: s.cfg.PlanRate, Levels: s.cfg.PlanLevels},
	}
	mkStream := func(det vaq.ObjectDetector, rec vaq.ActionRecognizer) (*vaq.Stream, error) {
		if plan != nil {
			return vaq.NewStream(plan, det, rec, meta.Geom, cfg)
		}
		return vaq.NewStreamQuery(qs.Query, det, rec, meta.Geom, cfg)
	}

	var build func(ctx context.Context) (*vaq.Stream, *resilience.Models, func() infer.Stats, error)
	if s.hub != nil {
		// Shared inference: one backend stack per (workload, scale,
		// model), fronted by the cross-session flights. Binding the
		// flights to the session context makes a deleted session abandon
		// its waits without cancelling calls other sessions share.
		entry := s.hub.entry(inferKey{req.Workload, req.Scale, req.Model}, buildModels)
		build = func(ctx context.Context) (*vaq.Stream, *resilience.Models, func() infer.Stats, error) {
			stream, err := mkStream(entry.objFlight.Bind(ctx), entry.actFlight.Bind(ctx))
			return stream, entry.models, entry.shared.Stats, err
		}
	} else {
		models := buildModels(nil)
		build = func(context.Context) (*vaq.Stream, *resilience.Models, func() infer.Stats, error) {
			stream, err := mkStream(models.Det, models.Rec)
			return stream, models, nil, err
		}
	}

	sess, err := s.reg.CreateWith(req, total, build)
	switch {
	case errors.Is(err, errTooManySessions):
		writeErr(w, http.StatusTooManyRequests, "too_many_sessions", err.Error(), nil)
		return
	case errors.Is(err, errShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, "shutting_down", err.Error(), nil)
		return
	case err != nil && plan != nil:
		// A parsed plan that still fails stream construction (e.g. an
		// unsupported relation inside a disjunction) is the client's
		// query, not a server fault.
		writeErr(w, http.StatusBadRequest, "invalid_query", err.Error(), err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), nil)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SessionList{Sessions: s.reg.List()})
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.reg.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", fmt.Sprintf("no session %q", id), nil)
		return nil, false
	}
	return sess, true
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.session(w, r); ok {
		writeJSON(w, http.StatusOK, sess.Info())
	}
}

func (s *Server) handleSessionResults(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			writeErr(w, http.StatusBadRequest, "bad_wait", "wait must be a non-negative duration (e.g. 5s)", nil)
			return
		}
		wait = min(d, s.cfg.MaxWait)
	}
	since := -1 // default: any processed clip satisfies the poll
	if ss := r.URL.Query().Get("since"); ss != "" {
		n, err := strconv.Atoi(ss)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad_since", "since must be a non-negative clip count", nil)
			return
		}
		since = n
	}
	snap, err := sess.WaitResults(r.Context(), since, wait)
	if err != nil {
		// The poll was cut short by the request context, not satisfied:
		// distinguish the server's own timeout (504) from a client that
		// hung up (499) instead of writing a snapshot nobody asked for.
		writeCtxErr(w, err)
		return
	}
	if r.URL.Query().Get("explain") == "true" {
		snap.Explain = sess.ExplainProfile()
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.reg.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", fmt.Sprintf("no session %q", id), nil)
		return
	}
	info := sess.Info()
	s.reg.Delete(id)
	if info.State == StateRunning {
		info.State = StateCancelled
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Repo == nil {
		writeErr(w, http.StatusServiceUnavailable, "no_repository",
			"server started without -repo; offline top-k is unavailable", nil)
		return
	}
	if s.shedIfOverloaded(w) {
		return
	}
	var req TopKRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields() // a misspelled option is an error, not silently ignored
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error(), nil)
		return
	}
	q := vaq.Query{Action: vaq.Label(req.Action)}
	for _, o := range req.Objects {
		q.Objects = append(q.Objects, vaq.Label(o))
	}
	k := req.K
	if req.Query != "" {
		plan, err := vaq.ParseQuery(req.Query)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid_query", err.Error(), err)
			return
		}
		sq, ok := plan.SimpleQuery()
		if !ok {
			writeErr(w, http.StatusBadRequest, "invalid_query",
				"top-k requires a conjunctive query (one action, object predicates)", nil)
			return
		}
		q = sq
		if plan.K > 0 {
			k = plan.K
		}
	}
	if k <= 0 {
		k = 5
	}
	if err := q.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_query", err.Error(), nil)
		return
	}
	if req.TimeoutMS < 0 {
		writeErr(w, http.StatusBadRequest, "bad_timeout", "timeout_ms must be non-negative", nil)
		return
	}
	for _, d := range req.HopDiscounts {
		if d < 0 || d > 1 {
			writeErr(w, http.StatusBadRequest, "bad_discount", "hop_discounts entries must be in [0, 1]", nil)
			return
		}
	}

	// Offline queries honour the request context and draw worker slots
	// from the registry's session pool, so online and offline work
	// compete for the same concurrency budget. The context carries the
	// server tracer: the whole run records under one "http.topk" span,
	// tagged with a minted query id so /tracez trees and the slow-query
	// log correlate with /explainz.
	qid := fmt.Sprintf("q%d", s.qseq.Add(1))
	ctx := trace.NewContext(r.Context(), s.cfg.Tracer)
	ctx, qspan := trace.Start(ctx, "http.topk")
	qspan.SetAttr("id", qid)
	qspan.SetAttr("video", req.Video)
	qspan.SetInt("k", int64(k))
	defer qspan.End()
	// Collection runs whenever the ring is enabled — explain=true only
	// gates the inline copy in the response.
	var ex *explain.Collector
	if s.ring != nil {
		ex = explain.NewCollector("topk")
		ex.SetID(qid)
		ex.SetWorkload(req.Video)
		ex.SetQuery(q.String())
	}
	qstart := time.Now()
	if ex != nil && s.bo != nil {
		ex.SetBrownout(s.bo.Level().String())
	}
	eo := vaq.ExecOptions{Ctx: ctx, Pool: s.reg.Pool(), Partial: req.Partial, HopDiscounts: req.HopDiscounts, Explain: ex}
	if req.BoundQuery != "" {
		// The query joins the cross-process bound exchange a coordinator
		// scattered it under: remote shards' progress, broadcast via
		// POST /v1/shard/bound, tightens this run's pruning floor.
		eo.Bound = s.bounds.acquire(req.BoundQuery, k)
		defer s.bounds.release(req.BoundQuery)
		qspan.SetAttr("bound_query", req.BoundQuery)
	}
	if req.TimeoutMS > 0 {
		// The per-request deadline layers inside the handler's
		// RequestTimeout context, so it can only shorten it.
		eo.Deadline = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	resp := TopKResponse{Results: []TopKEntry{}}
	if req.Video != "" {
		results, stats, err := s.cfg.Repo.TopKOpts(req.Video, q, k, eo)
		if err != nil {
			switch {
			case errors.Is(err, ingest.ErrNotIngested):
				writeErr(w, http.StatusBadRequest, "unknown_label", err.Error(), nil)
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				writeCtxErr(w, err)
			default:
				writeErr(w, http.StatusNotFound, "unknown_video", err.Error(), nil)
			}
			return
		}
		for _, res := range results {
			resp.Results = append(resp.Results, TopKEntry{
				Seq: Range{Lo: res.Seq.Lo, Hi: res.Seq.Hi}, Score: res.Score, Degraded: res.Degraded,
			})
		}
		resp.RuntimeUS = stats.Runtime.Microseconds()
		resp.CPURuntimeUS = stats.CPURuntime.Microseconds()
		resp.RandomAccesses = stats.Accesses.Random
		resp.Candidates = stats.Candidates
		resp.Incomplete = stats.Incomplete
		resp.DegradedClips = stats.DegradedClips
		s.met.observeCPU("POST /v1/topk", cpuOrWall(stats))
	} else {
		results, stats, err := s.cfg.Repo.TopKGlobalOpts(q, k, eo)
		if err != nil {
			switch {
			case errors.Is(err, ingest.ErrNotIngested):
				writeErr(w, http.StatusBadRequest, "unknown_label", err.Error(), nil)
			case errors.Is(err, vaq.ErrVideoNotFound):
				writeErr(w, http.StatusNotFound, "unknown_video", err.Error(), nil)
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				writeCtxErr(w, err)
			default:
				writeErr(w, http.StatusInternalServerError, "topk_failed", err.Error(), nil)
			}
			return
		}
		for _, res := range results {
			resp.Results = append(resp.Results, TopKEntry{
				Video: res.Video, Seq: Range{Lo: res.Seq.Lo, Hi: res.Seq.Hi}, Score: res.Score, Degraded: res.Degraded,
			})
		}
		resp.RuntimeUS = stats.Runtime.Microseconds()
		resp.CPURuntimeUS = stats.CPURuntime.Microseconds()
		resp.RandomAccesses = stats.Accesses.Random
		resp.Candidates = stats.Candidates
		resp.Incomplete = stats.Incomplete
		resp.DegradedClips = stats.DegradedClips
		s.met.observeCPU("POST /v1/topk", cpuOrWall(stats))
	}
	if ex != nil {
		ex.SetDurUS(time.Since(qstart).Microseconds())
		s.ring.Add(ex.Profile())
		if req.Explain {
			p := ex.Profile()
			resp.Explain = &p
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// cpuOrWall picks the engine CPU time when the run fanned out, falling
// back to the wall clock for single-shard runs (where they coincide).
func cpuOrWall(stats vaq.TopKStats) time.Duration {
	if stats.CPURuntime > 0 {
		return stats.CPURuntime
	}
	return stats.Runtime
}

// healthSample takes one metrics-history snapshot: cumulative request
// and 5xx totals, the shed counter, and the tracer counter catalogue.
func (s *Server) healthSample() HealthzSnapshot {
	requests, errors := s.met.totals()
	return HealthzSnapshot{
		Requests: requests,
		Errors:   errors,
		Sheds:    s.shed.Sheds(),
		Counters: s.cfg.Tracer.Counters(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Health probes also feed the history, so a quiet daemon scraped by
	// a monitor still accrues samples.
	s.hist.maybeSnapshot(s.healthSample)
	requests, errors := s.met.totals()
	resp := HealthzResponse{
		Status:       "ok",
		Requests:     requests,
		Errors:       errors,
		ShedRequests: s.shed.Sheds(),
	}
	// Windowed rates: subtract the oldest history sample still inside
	// the rolling window; before any sample exists the rates cover the
	// daemon's lifetime (WindowS 0 says so).
	if base, ok := s.hist.windowBase(); ok {
		resp.WindowS = float64(s.hist.now().UnixMilli()-base.UnixMS) / 1000
		resp.Requests = requests - base.Requests
		resp.Errors = errors - base.Errors
	}
	if resp.Requests > 0 {
		resp.ErrorRate = float64(resp.Errors) / float64(resp.Requests)
	}
	if p90, ok := s.shed.waitP90(); ok {
		resp.QueueWaitP90MS = float64(p90) / float64(time.Millisecond)
	}
	if s.bo != nil {
		s.evalBrownout()
		resp.BrownoutLevel = s.bo.Level().String()
		if s.bo.Level() == brownout.LevelShed {
			resp.Overloaded = true
			resp.Status = "overloaded"
		}
	}
	hist := s.hist.snapshots()
	resp.Snapshots = len(hist)
	if r.URL.Query().Get("history") == "true" {
		resp.History = hist
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, MetricsResponse{
		Routes:         s.met.snapshot(),
		ActiveSessions: s.reg.Active(),
		TotalSessions:  s.reg.Total(),
		Resilience:     s.reg.Resilience(),
		ShedRequests:   s.shed.Sheds(),
		Brownout:       s.bo.Stats(),
		Inference:      s.hub.stats(),
		HedgeLatencies: hedgeLatencies(s.cfg.Tracer),
	})
}

// hedgeLatencies filters the tracer's stage snapshot down to the
// per-backend latency sketches the hedge delay is derived from
// (resilience.latency.<obj|act>.<backend>); nil when hedging never
// observed a round.
func hedgeLatencies(tr *trace.Tracer) map[string]trace.StageStats {
	var out map[string]trace.StageStats
	for name, st := range tr.Stages() {
		if strings.HasPrefix(name, "resilience.latency.") {
			if out == nil {
				out = map[string]trace.StageStats{}
			}
			out[name] = st
		}
	}
	return out
}

// handleTracez dumps the tracer's retained spans as parent-linked trees,
// newest-rooted last (ring order), plus the counter snapshot so a tree
// and the numbers it explains come from one endpoint.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	tr := s.cfg.Tracer
	writeJSON(w, http.StatusOK, TracezResponse{
		TotalSpans: tr.TotalSpans(),
		Retained:   len(tr.Spans()),
		Counters:   tr.Counters(),
		Trees:      tr.Trees(),
	})
}

// handleVarz emits the Prometheus-style text exposition of every
// counter and stage sketch.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Tracer.WriteVarz(w)
	if s.bo != nil {
		// The active ladder level as a gauge (the brownout.* counters in
		// the tracer exposition above only count transitions).
		fmt.Fprintf(w, "vaq_brownout_level %d\n", int(s.bo.Level()))
	}
}
