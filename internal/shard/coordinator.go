package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/api"
	"vaq/internal/explain"
	"vaq/internal/resilience"
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
	co.mux.HandleFunc("GET /v1/sessions/{id}", co.handleSessionGet)
	co.mux.HandleFunc("GET /v1/sessions/{id}/results", co.handleSessionResults)
	co.mux.HandleFunc("DELETE /v1/sessions/{id}", co.handleSessionDelete)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string, pos *int) {
	writeJSON(w, status, api.ErrorResponse{Error: api.ErrorBody{Code: code, Message: msg, Pos: pos}})
}

// copyResponse relays a shard's response verbatim (status + JSON body).
func copyResponse(w http.ResponseWriter, res callResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// writeShardFailure maps a failed single-shard call onto the gateway
// error vocabulary.
func (co *Coordinator) writeShardFailure(w http.ResponseWriter, cl *client, err error) {
	if err == errBreakerOpen {
		co.cBreakerSkips.Add(1)
	}
	writeErr(w, http.StatusBadGateway, "shard_unavailable",
		fmt.Sprintf("shard %s (%s): %v", cl.backend.Name, cl.backend.Addr, err), nil)
}

// ---- top-k ----

func (co *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req api.TopKRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields() // a misspelled option is an error, not silently ignored
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error(), nil)
		return
	}
	if req.BoundQuery != "" {
		writeErr(w, http.StatusBadRequest, "bad_request",
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
	co.cRouted.Add(1)
	co.cCalls.Add(1)
	cl := co.clients[co.ring.OwnerIndex(req.Video)]
	body, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", err.Error(), nil)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	res, err := cl.call(ctx, http.MethodPost, "/v1/topk", body, true)
	if err != nil {
		co.cFailures.Add(1)
		co.writeShardFailure(w, cl, err)
		return
	}
	copyResponse(w, res)
}

// legResult is one shard's answer to a scattered top-k.
type legResult struct {
	resp    api.TopKResponse
	ok      bool
	status  int
	errBody *api.ErrorBody
	err     error
	hedged  bool
	dur     time.Duration
}

// scatterTopK fans a global top-k out to every shard, runs the bound
// broadcast while the legs are in flight, and merges the survivors'
// rankings deterministically (score desc, then video, then start clip
// — the same total order the single-process merge uses, so a scatter
// over any partition of the repository is byte-identical to the union
// run).
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
			writeErr(w, http.StatusBadRequest, "invalid_query", err.Error(), pos)
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
	broadcast := co.cfg.BroadcastEvery > 0 && len(co.clients) > 1
	if broadcast {
		shardReq.BoundQuery = co.salt + "-" + qid
	}
	body, err := json.Marshal(shardReq)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", err.Error(), nil)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	legs := make([]legResult, len(co.clients))
	var wg sync.WaitGroup
	for i, cl := range co.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			legs[i] = co.topkLeg(ctx, cl, body)
		}(i, cl)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if broadcast {
		co.broadcastBounds(ctx, shardReq.BoundQuery, done)
	}
	<-done

	co.mergeTopK(w, req, k, qid, legs, start)
}

// topkLeg runs one scatter leg against one shard.
func (co *Coordinator) topkLeg(ctx context.Context, cl *client, body []byte) legResult {
	co.cCalls.Add(1)
	legStart := time.Now()
	res, err := cl.call(ctx, http.MethodPost, "/v1/topk", body, true)
	lr := legResult{err: err, status: res.status, hedged: res.hedged, dur: time.Since(legStart)}
	if err != nil {
		if err == errBreakerOpen {
			co.cBreakerSkips.Add(1)
		}
		co.cFailures.Add(1)
		return lr
	}
	if res.status != http.StatusOK {
		if res.status >= 500 {
			co.cFailures.Add(1)
		}
		var eresp api.ErrorResponse
		if json.Unmarshal(res.body, &eresp) == nil && eresp.Error.Code != "" {
			lr.errBody = &eresp.Error
		}
		return lr
	}
	if err := json.Unmarshal(res.body, &lr.resp); err != nil {
		lr.err = fmt.Errorf("decoding shard response: %w", err)
		co.cFailures.Add(1)
		return lr
	}
	lr.ok = true
	return lr
}

// broadcastBounds drives the cross-shard B_lo^K exchange for one
// scatter: every BroadcastEvery it walks the shards, pushing the best
// bound seen so far and folding each shard's reply into the running
// maximum, until every leg has finished. A shard's exported bound is a
// sound global lower bound on the k-th best score (its candidate set is
// a subset of the fleet's — see rvaq.GlobalBound), and the fold is a
// monotone max, so the broadcast can only tighten pruning: it changes
// work counts, never results. Pushes are best-effort and bypass the
// breakers — a missed round costs pruning opportunity, nothing else.
func (co *Coordinator) broadcastBounds(ctx context.Context, id string, done <-chan struct{}) {
	ticker := time.NewTicker(co.cfg.BroadcastEvery)
	defer ticker.Stop()
	best := math.Inf(-1)
	for {
		select {
		case <-done:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
			for _, cl := range co.clients {
				breq := api.BoundExchangeRequest{Query: id}
				if !math.IsInf(best, -1) {
					b := best
					breq.Bound = &b
				}
				pbody, err := json.Marshal(breq)
				if err != nil {
					continue
				}
				pctx, cancel := context.WithTimeout(ctx, co.cfg.ProbeTimeout)
				res := cl.attempt(pctx, http.MethodPost, "/v1/shard/bound", pbody)
				cancel()
				if res.err != nil || res.status != http.StatusOK {
					continue
				}
				var br api.BoundExchangeResponse
				if json.Unmarshal(res.body, &br) != nil {
					continue
				}
				if br.Bound != nil && *br.Bound > best {
					best = *br.Bound
				}
			}
			co.cBoundRounds.Add(1)
		}
	}
}

// mergeTopK classifies the legs and writes the merged response.
func (co *Coordinator) mergeTopK(w http.ResponseWriter, req api.TopKRequest, k int, qid string, legs []legResult, start time.Time) {
	var (
		entries      []api.TopKEntry
		resp         api.TopKResponse
		okCount      int
		failedCount  int
		notIngested  int
		clientErr    *legResult
		unknownLabel *api.ErrorBody
	)
	for i := range legs {
		lr := &legs[i]
		switch {
		case lr.ok:
			okCount++
			entries = append(entries, lr.resp.Results...)
			resp.RandomAccesses += lr.resp.RandomAccesses
			resp.Candidates += lr.resp.Candidates
			resp.DegradedClips += lr.resp.DegradedClips
			if lr.resp.CPURuntimeUS > 0 {
				resp.CPURuntimeUS += lr.resp.CPURuntimeUS
			} else {
				resp.CPURuntimeUS += lr.resp.RuntimeUS
			}
			resp.Incomplete = resp.Incomplete || lr.resp.Incomplete
		case lr.err != nil:
			failedCount++
		case lr.status == http.StatusBadRequest && lr.errBody != nil && lr.errBody.Code == "unknown_label":
			// This shard's partition simply has no clips under the
			// label — a no-contribution answer, not a failure, unless
			// every shard says so.
			notIngested++
			if unknownLabel == nil {
				unknownLabel = lr.errBody
			}
		case lr.status >= 400 && lr.status < 500:
			// The request itself is bad; every healthy shard would give
			// the same verdict. Relay the first one.
			if clientErr == nil {
				clientErr = lr
			}
		default:
			failedCount++ // 5xx (shed, deadline, crash) or malformed
		}
	}

	switch {
	case clientErr != nil:
		var pos *int
		code, msg := "shard_error", fmt.Sprintf("shard returned http %d", clientErr.status)
		if clientErr.errBody != nil {
			code, msg, pos = clientErr.errBody.Code, clientErr.errBody.Message, clientErr.errBody.Pos
		}
		writeErr(w, clientErr.status, code, msg, pos)
		return
	case okCount == 0 && notIngested == 0:
		writeErr(w, http.StatusBadGateway, "shards_unavailable",
			fmt.Sprintf("no shard answered (%d of %d failed)", failedCount, len(co.clients)), nil)
		return
	case failedCount > 0 && !req.Partial:
		writeErr(w, http.StatusBadGateway, "shard_failed",
			fmt.Sprintf("%d of %d shards failed; set partial=true to accept the survivors' merged results", failedCount, len(co.clients)), nil)
		return
	case okCount == 0 && failedCount == 0:
		// Every shard answered unknown_label: the label genuinely is not
		// ingested anywhere.
		writeErr(w, http.StatusBadRequest, unknownLabel.Code, unknownLabel.Message, nil)
		return
	}
	if failedCount > 0 {
		resp.Incomplete = true
		co.cPartials.Add(1)
	}

	// The same total order the single-process global merge uses — with
	// it, the scatter is byte-identical to the union run.
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a], entries[b]
		if ea.Score != eb.Score {
			return ea.Score > eb.Score
		}
		if ea.Video != eb.Video {
			return ea.Video < eb.Video
		}
		return ea.Seq.Lo < eb.Seq.Lo
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	if entries == nil {
		entries = []api.TopKEntry{}
	}
	resp.Results = entries
	resp.RuntimeUS = time.Since(start).Microseconds()

	if co.exRing != nil || req.Explain {
		p := co.assembleExplain(req, k, qid, legs, start)
		co.exRing.Add(p)
		if req.Explain {
			resp.Explain = &p
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// assembleExplain builds the coordinator's EXPLAIN profile: one
// ShardProfile per leg, whose fold (explain.Collector.AddShard) keeps
// the merged TopK section the exact field-wise sum of the per-shard
// engine counters — the cross-process reconciliation invariant.
func (co *Coordinator) assembleExplain(req api.TopKRequest, k int, qid string, legs []legResult, start time.Time) explain.Profile {
	col := explain.NewCollector("coordinator")
	col.SetID(qid)
	col.SetQuery(req.Query)
	col.SetWorkload("global")
	col.TopKConfigure(k)
	for i := range legs {
		col.AddShard(shardProfile(co.clients[i], &legs[i]))
	}
	col.SetDurUS(time.Since(start).Microseconds())
	return col.Profile()
}

// shardProfile converts one leg into its EXPLAIN attribution row.
// Failed legs carry the reason and zero cost; healthy legs prefer the
// shard's inline profile (exact engine counters) over the response
// aggregates.
func shardProfile(cl *client, lr *legResult) explain.ShardProfile {
	sp := explain.ShardProfile{
		Shard:  cl.backend.Name,
		Addr:   cl.backend.Addr,
		DurUS:  lr.dur.Microseconds(),
		Hedged: lr.hedged,
	}
	if !lr.ok {
		sp.Failed = true
		switch {
		case lr.err != nil:
			sp.Error = lr.err.Error()
		case lr.errBody != nil:
			sp.Error = lr.errBody.Code
		default:
			sp.Error = fmt.Sprintf("http %d", lr.status)
		}
		return sp
	}
	sp.Results = len(lr.resp.Results)
	sp.Candidates = lr.resp.Candidates
	sp.RandomAccesses = lr.resp.RandomAccesses
	sp.Incomplete = lr.resp.Incomplete
	if ex := lr.resp.Explain; ex != nil && ex.TopK != nil {
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
		writeErr(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error(), nil)
		return
	}
	if req.Workload == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "workload is required", nil)
		return
	}
	co.cRouted.Add(1)
	co.cCalls.Add(1)
	idx := co.ring.OwnerIndex(req.Workload)
	cl := co.clients[idx]
	body, err := json.Marshal(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_json", err.Error(), nil)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	res, cerr := cl.call(ctx, http.MethodPost, "/v1/sessions", body, false)
	if cerr != nil {
		co.cFailures.Add(1)
		co.writeShardFailure(w, cl, cerr)
		return
	}
	if res.status != http.StatusCreated {
		copyResponse(w, res)
		return
	}
	var info api.SessionInfo
	if err := json.Unmarshal(res.body, &info); err != nil {
		writeErr(w, http.StatusBadGateway, "bad_shard_response", err.Error(), nil)
		return
	}
	info.ID = publicID(idx, info.ID)
	writeJSON(w, http.StatusCreated, info)
}

func (co *Coordinator) handleListSessions(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	type shardList struct {
		list api.SessionList
		ok   bool
	}
	lists := make([]shardList, len(co.clients))
	var wg sync.WaitGroup
	for i, cl := range co.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			co.cCalls.Add(1)
			res, err := cl.call(ctx, http.MethodGet, "/v1/sessions", nil, false)
			if err != nil || res.status != http.StatusOK {
				// A down shard's sessions are invisible until it heals;
				// /healthz reports the outage.
				co.cFailures.Add(1)
				return
			}
			if json.Unmarshal(res.body, &lists[i].list) == nil {
				lists[i].ok = true
			}
		}(i, cl)
	}
	wg.Wait()
	merged := api.SessionList{Sessions: []api.SessionInfo{}}
	for i := range lists {
		if !lists[i].ok {
			continue
		}
		for _, s := range lists[i].list.Sessions {
			s.ID = publicID(i, s.ID)
			merged.Sessions = append(merged.Sessions, s)
		}
	}
	sort.Slice(merged.Sessions, func(a, b int) bool { return merged.Sessions[a].ID < merged.Sessions[b].ID })
	writeJSON(w, http.StatusOK, merged)
}

// sessionShard resolves a namespaced session id to its owning shard.
func (co *Coordinator) sessionShard(w http.ResponseWriter, pub string) (*client, int, string, bool) {
	idx, id, err := parsePublicID(pub)
	if err != nil || idx < 0 || idx >= len(co.clients) || id == "" {
		writeErr(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("%q is not a coordinator session id (want <shard>%s<id>)", pub, sessionIDSep), nil)
		return nil, 0, "", false
	}
	return co.clients[idx], idx, id, true
}

// proxySession forwards one session call to the owning shard,
// re-namespacing the id fields in the known response shapes.
func (co *Coordinator) proxySession(w http.ResponseWriter, r *http.Request, method, path string, idx int, cl *client) {
	co.cRouted.Add(1)
	co.cCalls.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	res, err := cl.call(ctx, method, path, nil, false)
	if err != nil {
		co.cFailures.Add(1)
		co.writeShardFailure(w, cl, err)
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
			writeJSON(w, http.StatusOK, rr)
			return
		}
	} else {
		var info api.SessionInfo
		if json.Unmarshal(res.body, &info) == nil {
			info.ID = publicID(idx, info.ID)
			writeJSON(w, http.StatusOK, info)
			return
		}
	}
	copyResponse(w, res)
}

func (co *Coordinator) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	cl, idx, id, ok := co.sessionShard(w, r.PathValue("id"))
	if !ok {
		return
	}
	co.proxySession(w, r, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), idx, cl)
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

func (co *Coordinator) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	cl, idx, id, ok := co.sessionShard(w, r.PathValue("id"))
	if !ok {
		return
	}
	co.proxySession(w, r, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), idx, cl)
}

// ---- observability ----

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.ProbeTimeout)
	defer cancel()
	resp := api.CoordHealthzResponse{Shards: make([]api.ShardHealth, len(co.clients))}
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
				}
			}
			resp.Shards[i] = sh
		}(i, cl)
	}
	wg.Wait()
	up := 0
	for _, sh := range resp.Shards {
		if sh.OK {
			up++
		}
	}
	status := http.StatusOK
	switch {
	case up == len(resp.Shards):
		resp.Status = "ok"
	case up > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
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
	writeJSON(w, http.StatusOK, resp)
}

func (co *Coordinator) handleExplainz(w http.ResponseWriter, r *http.Request) {
	if co.exRing == nil {
		writeErr(w, http.StatusNotFound, "explain_disabled",
			"EXPLAIN collection is disabled (-explain-ring negative)", nil)
		return
	}
	profiles := co.exRing.Snapshot()
	writeJSON(w, http.StatusOK, api.ExplainzResponse{
		Total:    co.exRing.Total(),
		Retained: len(profiles),
		Profiles: profiles,
	})
}

func (co *Coordinator) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	co.tracer.WriteVarz(w)
}
