package shard

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/api"
	"vaq/internal/explain"
	"vaq/internal/ingest"
	"vaq/internal/resilience"
	"vaq/internal/rvaq"
	"vaq/internal/trace"
	"vaq/internal/vql"
)

// Config tunes the coordinator.
type Config struct {
	// Backends are the shard processes, in ring order.
	Backends []Backend
	// Replicas is the consistent-hash points per shard (0 picks
	// DefaultReplicas).
	Replicas int
	// RequestTimeout bounds each proxied or scattered call (default
	// 60s).
	RequestTimeout time.Duration
	// HedgeDelay launches a hedge replica for idempotent shard reads
	// that have not answered within the delay; 0 disables hedging.
	HedgeDelay time.Duration
	// BreakerFailures consecutive failures open a shard's circuit
	// breaker for BreakerCooldown (0 failures disables the breakers).
	BreakerFailures int
	BreakerCooldown time.Duration
	// BroadcastEvery is the period of the cross-shard B_lo^K bound
	// broadcast during a scatter; 0 disables it (shards then prune on
	// local progress only — same results, more work).
	BroadcastEvery time.Duration
	// ProbeTimeout bounds /healthz probes and bound-broadcast pushes
	// (default 2s).
	ProbeTimeout time.Duration
	// Tracer collects the shard.* counter family (one is created when
	// nil).
	Tracer *trace.Tracer
	// ExplainRing sizes the /explainz ring of coordinator query
	// profiles: 0 picks server.DefaultExplainRing's value (64),
	// negative disables collection.
	ExplainRing int
}

// defaultExplainRing mirrors server.DefaultExplainRing (the package
// cannot import server — server imports the vaq facade whose tests
// exercise this package).
const defaultExplainRing = 64

// defaultK mirrors the single-process server's default when neither K
// nor a LIMIT clause picks one.
const defaultK = 5

// Coordinator fronts a fleet of vaqd shard processes: global top-k
// queries scatter to every shard and merge deterministically;
// video-pinned top-k and session traffic route to the consistent-hash
// owner. See the package comment and docs/SHARDING.md.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	clients []*client
	mux     *http.ServeMux
	tracer  *trace.Tracer
	exRing  *explain.Ring

	qseq atomic.Int64
	salt string // per-process prefix keeping bound-exchange ids distinct across coordinators

	cScatters     *trace.Counter // shard.scatters — global top-k fan-outs
	cRouted       *trace.Counter // shard.routed — single-shard proxied calls
	cCalls        *trace.Counter // shard.calls — shard HTTP calls issued
	cHedges       *trace.Counter // shard.hedges — hedge replicas launched
	cFailures     *trace.Counter // shard.failures — calls failed (transport or 5xx)
	cBreakerSkips *trace.Counter // shard.breaker_skips — calls rejected by an open breaker
	cBoundRounds  *trace.Counter // shard.bound_rounds — completed bound broadcast rounds
	cPartials     *trace.Counter // shard.partials — scatters answered Incomplete
}

// New builds a coordinator over the given backends. The shard.* counter
// family is registered immediately so /varz shows it at zero.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one backend")
	}
	names := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		names[i] = b.Name
	}
	ring, err := NewRing(names, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.New()
	}
	ringSize := cfg.ExplainRing
	if ringSize == 0 {
		ringSize = defaultExplainRing
	}
	co := &Coordinator{
		cfg:    cfg,
		ring:   ring,
		tracer: cfg.Tracer,
		exRing: explain.NewRing(ringSize),
		salt:   fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()),
	}
	co.cScatters = cfg.Tracer.Counter("shard.scatters")
	co.cRouted = cfg.Tracer.Counter("shard.routed")
	co.cCalls = cfg.Tracer.Counter("shard.calls")
	co.cHedges = cfg.Tracer.Counter("shard.hedges")
	co.cFailures = cfg.Tracer.Counter("shard.failures")
	co.cBreakerSkips = cfg.Tracer.Counter("shard.breaker_skips")
	co.cBoundRounds = cfg.Tracer.Counter("shard.bound_rounds")
	co.cPartials = cfg.Tracer.Counter("shard.partials")

	hc := &http.Client{} // per-call deadlines come from contexts
	co.clients = make([]*client, len(cfg.Backends))
	for i, b := range cfg.Backends {
		br := resilience.NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)
		co.clients[i] = newClient(b, hc, br, cfg.HedgeDelay, co.cHedges)
	}

	co.mux = http.NewServeMux()
	co.mux.HandleFunc("POST /v1/topk", co.handleTopK)
	co.mux.HandleFunc("POST /v1/sessions", co.handleCreateSession)
	co.mux.HandleFunc("GET /v1/sessions", co.handleListSessions)
	co.mux.HandleFunc("GET /v1/sessions/{id}", co.handleSession)
	co.mux.HandleFunc("GET /v1/sessions/{id}/results", co.handleSessionResults)
	co.mux.HandleFunc("DELETE /v1/sessions/{id}", co.handleSession)
	co.mux.HandleFunc("GET /healthz", co.handleHealthz)
	co.mux.HandleFunc("GET /metricsz", co.handleMetricsz)
	co.mux.HandleFunc("GET /explainz", co.handleExplainz)
	co.mux.HandleFunc("GET /varz", co.handleVarz)
	return co, nil
}

// Handler returns the coordinator's HTTP surface.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// Ring exposes the partition for out-of-band placement (tests, ingest
// tooling).
func (co *Coordinator) Ring() *Ring { return co.ring }

// copyResponse relays a shard's response verbatim (status + JSON body).
func copyResponse(w http.ResponseWriter, res callResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// forward runs one call routed to a single shard under RequestTimeout.
// A failed call (transport error, open breaker) is answered here with
// the gateway error and reported as false.
func (co *Coordinator) forward(w http.ResponseWriter, r *http.Request, cl *client, method, path string, body []byte, hedged bool) (callResult, bool) {
	co.cRouted.Add(1)
	co.cCalls.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	res, err := cl.call(ctx, method, path, body, hedged)
	if err == nil {
		return res, true
	}
	co.cFailures.Add(1)
	if err == errBreakerOpen {
		co.cBreakerSkips.Add(1)
	}
	api.WriteErr(w, http.StatusBadGateway, "shard_unavailable",
		fmt.Sprintf("shard %s (%s): %v", cl.backend.Name, cl.backend.Addr, err), nil)
	return res, false
}

// ---- top-k ----

func (co *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req api.TopKRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields() // a misspelled option is an error, not silently ignored
	if err := dec.Decode(&req); err != nil {
		api.WriteErr(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error(), nil)
		return
	}
	if req.BoundQuery != "" {
		api.WriteErr(w, http.StatusBadRequest, "bad_request",
			"bound_query is shard-internal; the coordinator mints its own exchange ids", nil)
		return
	}
	if req.Video != "" {
		co.routeTopK(w, r, req)
		return
	}
	co.scatterTopK(w, r, req)
}

// routeTopK proxies a video-pinned query to the owning shard.
func (co *Coordinator) routeTopK(w http.ResponseWriter, r *http.Request, req api.TopKRequest) {
	body, _ := json.Marshal(req) // a decoded request re-encodes without error
	if res, ok := co.forward(w, r, co.clients[co.ring.OwnerIndex(req.Video)], http.MethodPost, "/v1/topk", body, true); ok {
		copyResponse(w, res)
	}
}

// scatterTopK runs a global top-k as one remote leg per shard of
// rvaq.Scatter, whose merge is the single-process one: a scatter over
// any partition of the repository is byte-identical to the union run.
func (co *Coordinator) scatterTopK(w http.ResponseWriter, r *http.Request, req api.TopKRequest) {
	co.cScatters.Add(1)
	start := time.Now()

	k := req.K
	if req.Query != "" {
		// Parse here only to learn K for the merge truncation (and to
		// fail malformed queries before burning a scatter); full
		// validation stays shard-side.
		plan, err := vql.ParseAndCompile(req.Query)
		if err != nil {
			var pos *int
			if p, ok := vql.ErrPosition(err); ok {
				pos = &p
			}
			api.WriteErr(w, http.StatusBadRequest, "invalid_query", err.Error(), pos)
			return
		}
		if plan.K > 0 {
			k = plan.K
		}
	}
	if k <= 0 {
		k = defaultK
	}

	qid := fmt.Sprintf("c%d", co.qseq.Add(1))
	shardReq := req
	shardReq.Video = ""
	// Ask shards for their inline EXPLAIN profile so the merged profile
	// attributes engine counters per shard exactly; stripped from the
	// client response unless it asked.
	shardReq.Explain = true
	if co.cfg.BroadcastEvery > 0 && len(co.clients) > 1 {
		shardReq.BoundQuery = co.salt + "-" + qid
	}
	body, _ := json.Marshal(shardReq) // a decoded request re-encodes without error

	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	n := len(co.clients)
	calls, resps := make([]callResult, n), make([]api.TopKResponse, n)
	legs := make([]rvaq.Leg[api.TopKEntry], n)
	for i, cl := range co.clients {
		legs[i] = co.topkLeg(cl, body, shardReq.BoundQuery, &calls[i], &resps[i])
	}
	m, err := rvaq.Scatter(ctx, rvaq.NewGlobalBound(k), k, req.Partial, entryRank, legs)
	switch {
	case m.Failed == n:
		api.WriteErr(w, http.StatusBadGateway, "shards_unavailable",
			fmt.Sprintf("no shard answered (%d of %d failed)", m.Failed, n), nil)
		return
	case errors.Is(err, rvaq.ErrLegFailed):
		api.WriteErr(w, http.StatusBadGateway, "shard_failed",
			fmt.Sprintf("%d of %d shards failed; set partial=true to accept the survivors' merged results", m.Failed, n), nil)
		return
	case err != nil:
		// A 4xx the request itself earned, or unknown_label from every
		// shard: relay the deciding shard's answer verbatim.
		copyResponse(w, calls[slices.Index(m.Errs, err)])
		return
	}

	resp := api.TopKResponse{Results: m.Results, Incomplete: m.Failed > 0}
	for i, lr := range resps {
		if m.Errs[i] == nil {
			resp.RandomAccesses += lr.RandomAccesses
			resp.Candidates += lr.Candidates
			resp.DegradedClips += lr.DegradedClips
			resp.CPURuntimeUS += cmp.Or(lr.CPURuntimeUS, lr.RuntimeUS)
			resp.Incomplete = resp.Incomplete || lr.Incomplete
		}
	}
	if m.Failed > 0 {
		co.cPartials.Add(1)
	}
	resp.RuntimeUS = time.Since(start).Microseconds()
	if co.exRing != nil || req.Explain {
		p := co.assembleExplain(req, k, qid, calls, resps, m.Errs, start)
		co.exRing.Add(p)
		if req.Explain {
			resp.Explain = &p
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// entryRank places an entry in the engine's total order (rvaq.Scatter).
func entryRank(e api.TopKEntry) (float64, string, int) { return e.Score, e.Video, e.Seq.Lo }

// topkLeg is one shard's leg of a global top-k: the hedged,
// breaker-guarded call, trading bounds while in flight when boundID is
// set, with the exchange kept in *res and the answer in *resp. Its
// error classifies it: unknown_label is ingest.ErrNotIngested; a
// transport failure, 5xx or malformed body is rvaq.ErrLegFailed; any
// other 4xx is fatal.
func (co *Coordinator) topkLeg(cl *client, body []byte, boundID string, res *callResult, resp *api.TopKResponse) rvaq.Leg[api.TopKEntry] {
	return func(ctx context.Context, gb *rvaq.GlobalBound) ([]api.TopKEntry, error) {
		if boundID != "" {
			defer co.tradeBounds(ctx, cl, boundID, gb)()
		}
		co.cCalls.Add(1)
		var err error
		if *res, err = cl.call(ctx, http.MethodPost, "/v1/topk", body, true); err != nil {
			if err == errBreakerOpen {
				co.cBreakerSkips.Add(1)
			}
			co.cFailures.Add(1)
			return nil, fmt.Errorf("%w: %w", rvaq.ErrLegFailed, err)
		}
		if res.status == http.StatusOK {
			if err := json.Unmarshal(res.body, resp); err != nil {
				co.cFailures.Add(1)
				return nil, fmt.Errorf("%w: decoding shard response: %w", rvaq.ErrLegFailed, err)
			}
			return resp.Results, nil
		}
		var eresp api.ErrorResponse
		_ = json.Unmarshal(res.body, &eresp)
		reason := cmp.Or(eresp.Error.Code, fmt.Sprintf("http %d", res.status))
		switch {
		case res.status == http.StatusBadRequest && reason == "unknown_label":
			return nil, fmt.Errorf("%s: %w", reason, ingest.ErrNotIngested)
		case res.status >= 400 && res.status < 500:
			return nil, errors.New(reason)
		case res.status >= 500:
			co.cFailures.Add(1)
		}
		return nil, fmt.Errorf("%w: %s", rvaq.ErrLegFailed, reason)
	}
}

// tradeBounds runs one leg's side of the cross-shard B_lo^K exchange:
// every BroadcastEvery it pushes the scatter's shared bound to the
// shard and raises the reply into it (a monotone max of sound bounds,
// so it changes work counts, never results; see docs/SHARDING.md).
// Pushes are best-effort and bypass the breaker. The returned stop
// cancels a push in flight and waits for the exchange to end.
func (co *Coordinator) tradeBounds(ctx context.Context, cl *client, id string, gb *rvaq.GlobalBound) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(co.cfg.BroadcastEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			breq := api.BoundExchangeRequest{Query: id}
			if b := gb.Bound(); !math.IsInf(b, -1) {
				breq.Bound = &b
			}
			pbody, _ := json.Marshal(breq) // a string and a finite float
			pctx, pcancel := context.WithTimeout(ctx, co.cfg.ProbeTimeout)
			res := cl.attempt(pctx, http.MethodPost, "/v1/shard/bound", pbody)
			pcancel()
			var br api.BoundExchangeResponse
			if res.err != nil || res.status != http.StatusOK || json.Unmarshal(res.body, &br) != nil {
				continue
			}
			if br.Bound != nil {
				gb.Raise(*br.Bound)
			}
			co.cBoundRounds.Add(1)
		}
	}()
	return func() { cancel(); <-done }
}

// assembleExplain builds the coordinator's EXPLAIN profile: one
// ShardProfile per leg, whose fold (explain.Collector.AddShard) keeps
// the merged TopK section the exact field-wise sum of the per-shard
// engine counters — the cross-process reconciliation invariant.
func (co *Coordinator) assembleExplain(req api.TopKRequest, k int, qid string, calls []callResult, resps []api.TopKResponse, errs []error, start time.Time) explain.Profile {
	col := explain.NewCollector("coordinator")
	col.SetID(qid)
	col.SetQuery(req.Query)
	col.SetWorkload("global")
	col.TopKConfigure(k)
	for i, cl := range co.clients {
		col.AddShard(shardProfile(cl, calls[i], &resps[i], errs[i]))
	}
	col.SetDurUS(time.Since(start).Microseconds())
	return col.Profile()
}

// shardProfile converts one leg into its EXPLAIN attribution row.
// Failed legs carry the reason and zero cost; healthy legs prefer the
// shard's inline profile (exact engine counters) over the response
// aggregates.
func shardProfile(cl *client, res callResult, resp *api.TopKResponse, err error) explain.ShardProfile {
	sp := explain.ShardProfile{
		Shard:  cl.backend.Name,
		Addr:   cl.backend.Addr,
		DurUS:  res.dur.Microseconds(),
		Hedged: res.hedged,
	}
	if err != nil {
		sp.Failed, sp.Error = true, err.Error()
		return sp
	}
	sp.Results = len(resp.Results)
	sp.Candidates = resp.Candidates
	sp.RandomAccesses = resp.RandomAccesses
	sp.Incomplete = resp.Incomplete
	if ex := resp.Explain; ex != nil && ex.TopK != nil {
		tk := ex.TopK
		sp.Candidates = tk.Candidates
		sp.Iterations = tk.Iterations
		sp.RandomAccesses = tk.RandomAccesses
		sp.SortedAccesses = tk.SortedAccesses
		sp.SeqsPruned = tk.SeqsPruned
		sp.ClipsPruned = tk.ClipsPruned
	}
	return sp
}

// ---- sessions ----

// Session ids are namespaced "<shardIdx>~<shardLocalID>" so routing a
// follow-up call needs no coordinator state: the id itself says which
// shard owns the session (and survives a coordinator restart).
const sessionIDSep = "~"

func publicID(idx int, id string) string {
	return strconv.Itoa(idx) + sessionIDSep + id
}

func parsePublicID(pub string) (int, string, error) {
	head, rest, ok := strings.Cut(pub, sessionIDSep)
	if !ok {
		return 0, "", fmt.Errorf("no %q separator", sessionIDSep)
	}
	idx, err := strconv.Atoi(head)
	if err != nil {
		return 0, "", err
	}
	return idx, rest, nil
}

func (co *Coordinator) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields() // a misspelled option is an error, not silently ignored
	if err := dec.Decode(&req); err != nil {
		api.WriteErr(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error(), nil)
		return
	}
	if req.Workload == "" {
		api.WriteErr(w, http.StatusBadRequest, "bad_request", "workload is required", nil)
		return
	}
	idx := co.ring.OwnerIndex(req.Workload)
	body, _ := json.Marshal(req) // a decoded request re-encodes without error
	res, ok := co.forward(w, r, co.clients[idx], http.MethodPost, "/v1/sessions", body, false)
	if !ok {
		return
	}
	if res.status != http.StatusCreated {
		copyResponse(w, res)
		return
	}
	var info api.SessionInfo
	if err := json.Unmarshal(res.body, &info); err != nil {
		api.WriteErr(w, http.StatusBadGateway, "bad_shard_response", err.Error(), nil)
		return
	}
	info.ID = publicID(idx, info.ID)
	api.WriteJSON(w, http.StatusCreated, info)
}

func (co *Coordinator) handleListSessions(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	lists := make([][]api.SessionInfo, len(co.clients))
	var wg sync.WaitGroup
	for i, cl := range co.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co.cCalls.Add(1)
			res, err := cl.call(ctx, http.MethodGet, "/v1/sessions", nil, false)
			if err != nil || res.status != http.StatusOK {
				// A down shard's sessions are invisible until it heals;
				// /healthz reports the outage.
				co.cFailures.Add(1)
				return
			}
			var list api.SessionList
			if json.Unmarshal(res.body, &list) == nil {
				for _, s := range list.Sessions {
					s.ID = publicID(i, s.ID)
					lists[i] = append(lists[i], s)
				}
			}
		}()
	}
	wg.Wait()
	merged := api.SessionList{Sessions: []api.SessionInfo{}}
	for _, l := range lists {
		merged.Sessions = append(merged.Sessions, l...)
	}
	sort.Slice(merged.Sessions, func(a, b int) bool { return merged.Sessions[a].ID < merged.Sessions[b].ID })
	api.WriteJSON(w, http.StatusOK, merged)
}

// sessionShard resolves a namespaced session id to its owning shard.
func (co *Coordinator) sessionShard(w http.ResponseWriter, pub string) (*client, int, string, bool) {
	idx, id, err := parsePublicID(pub)
	if err != nil || idx < 0 || idx >= len(co.clients) || id == "" {
		api.WriteErr(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("%q is not a coordinator session id (want <shard>%s<id>)", pub, sessionIDSep), nil)
		return nil, 0, "", false
	}
	return co.clients[idx], idx, id, true
}

// proxySession forwards one session call to the owning shard,
// re-namespacing the id fields in the known response shapes.
func (co *Coordinator) proxySession(w http.ResponseWriter, r *http.Request, method, path string, idx int, cl *client) {
	res, ok := co.forward(w, r, cl, method, path, nil, false)
	if !ok {
		return
	}
	if res.status != http.StatusOK {
		copyResponse(w, res)
		return
	}
	if strings.HasSuffix(strings.SplitN(path, "?", 2)[0], "/results") {
		var rr api.ResultsResponse
		if json.Unmarshal(res.body, &rr) == nil {
			if rr.ID != "" {
				rr.ID = publicID(idx, rr.ID)
			}
			api.WriteJSON(w, http.StatusOK, rr)
			return
		}
	} else {
		var info api.SessionInfo
		if json.Unmarshal(res.body, &info) == nil {
			info.ID = publicID(idx, info.ID)
			api.WriteJSON(w, http.StatusOK, info)
			return
		}
	}
	copyResponse(w, res)
}

// handleSession serves GET (status) and DELETE (cancel) of one session.
func (co *Coordinator) handleSession(w http.ResponseWriter, r *http.Request) {
	cl, idx, id, ok := co.sessionShard(w, r.PathValue("id"))
	if !ok {
		return
	}
	co.proxySession(w, r, r.Method, "/v1/sessions/"+url.PathEscape(id), idx, cl)
}

func (co *Coordinator) handleSessionResults(w http.ResponseWriter, r *http.Request) {
	cl, idx, id, ok := co.sessionShard(w, r.PathValue("id"))
	if !ok {
		return
	}
	path := "/v1/sessions/" + url.PathEscape(id) + "/results"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	co.proxySession(w, r, http.MethodGet, path, idx, cl)
}

// ---- observability ----

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.ProbeTimeout)
	defer cancel()
	resp := api.CoordHealthzResponse{Shards: make([]api.ShardHealth, len(co.clients))}
	var up atomic.Int32
	var wg sync.WaitGroup
	for i, cl := range co.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			sh := api.ShardHealth{
				Name:    cl.backend.Name,
				Addr:    cl.backend.Addr,
				Breaker: cl.breaker.State().String(),
			}
			// Probes bypass the breaker on purpose: they are how an open
			// shard is observed healing.
			res := cl.attempt(ctx, http.MethodGet, "/healthz", nil)
			switch {
			case res.err != nil:
				sh.Error = res.err.Error()
			case res.status != http.StatusOK:
				sh.Error = fmt.Sprintf("http %d", res.status)
			default:
				var hz api.HealthzResponse
				if err := json.Unmarshal(res.body, &hz); err != nil {
					sh.Error = err.Error()
				} else {
					sh.OK = true
					sh.Status = hz.Status
					sh.BrownoutLevel = hz.BrownoutLevel
					up.Add(1)
				}
			}
			resp.Shards[i] = sh
		}(i, cl)
	}
	wg.Wait()
	status := http.StatusOK
	switch up := int(up.Load()); {
	case up == len(resp.Shards):
		resp.Status = "ok"
	case up > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, resp)
}

func (co *Coordinator) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	resp := api.CoordMetricszResponse{
		Scatters:    co.cScatters.Value(),
		Routed:      co.cRouted.Value(),
		Partials:    co.cPartials.Value(),
		BoundRounds: co.cBoundRounds.Value(),
		Shards:      make([]api.CoordShardMetrics, len(co.clients)),
	}
	for i, cl := range co.clients {
		resp.Shards[i] = api.CoordShardMetrics{
			Name:         cl.backend.Name,
			Addr:         cl.backend.Addr,
			Calls:        cl.calls.Load(),
			Failures:     cl.failures.Load(),
			Hedges:       cl.hedges.Load(),
			Breaker:      cl.breaker.State().String(),
			BreakerOpens: cl.breaker.Opens(),
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (co *Coordinator) handleExplainz(w http.ResponseWriter, r *http.Request) {
	if co.exRing == nil {
		api.WriteErr(w, http.StatusNotFound, "explain_disabled",
			"EXPLAIN collection is disabled (-explain-ring negative)", nil)
		return
	}
	profiles := co.exRing.Snapshot()
	api.WriteJSON(w, http.StatusOK, api.ExplainzResponse{
		Total:    co.exRing.Total(),
		Retained: len(profiles),
		Profiles: profiles,
	})
}

func (co *Coordinator) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	co.tracer.WriteVarz(w)
}
