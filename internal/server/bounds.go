package server

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"

	"vaq"
	"vaq/internal/api"
)

// boundRegistry tracks the cross-process B_lo^K exchanges of in-flight
// top-k queries. A coordinator that scatters one logical query across
// many vaqd shard processes stamps every shard's TopKRequest with the
// same BoundQuery id; each shard registers an exchange under that id
// for the duration of its run, and the coordinator's periodic POST
// /v1/shard/bound broadcasts fold the fleet's best bound into it so
// the local iterator prunes against remote progress.
//
// Entries are refcounted: a hedged duplicate of the same query joins
// the existing exchange (the replicas compute identical bounds, so
// sharing is safe), and the entry disappears when the last run
// finishes. Broadcasts for unknown ids are answered found=false and
// fold nothing — the query already finished or never reached this
// shard; the coordinator just moves on.
type boundRegistry struct {
	mu sync.Mutex
	m  map[string]*boundEntry
}

type boundEntry struct {
	gb   *vaq.BoundExchange
	refs int
}

func newBoundRegistry() *boundRegistry {
	return &boundRegistry{m: map[string]*boundEntry{}}
}

// acquire joins (creating on first use) the exchange registered under
// id. Pair with release.
func (r *boundRegistry) acquire(id string, k int) *vaq.BoundExchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[id]
	if !ok {
		e = &boundEntry{gb: vaq.NewBoundExchange(k)}
		r.m[id] = e
	}
	e.refs++
	return e.gb
}

// release drops one reference; the entry is removed when none remain.
func (r *boundRegistry) release(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[id]
	if !ok {
		return
	}
	if e.refs--; e.refs <= 0 {
		delete(r.m, id)
	}
}

// exchange performs one broadcast round: fold the incoming bound (if
// any) into the id's exchange and report its current bound. The second
// return is false when no in-flight query is registered under id.
func (r *boundRegistry) exchange(id string, incoming *float64) (float64, bool) {
	r.mu.Lock()
	e, ok := r.m[id]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	if incoming != nil {
		e.gb.Raise(*incoming)
	}
	return e.gb.Bound(), true
}

// handleShardBound is POST /v1/shard/bound: one round of a
// coordinator's cross-shard bound broadcast (see docs/SHARDING.md).
func (s *Server) handleShardBound(w http.ResponseWriter, r *http.Request) {
	var req BoundExchangeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields() // a misspelled option is an error, not silently ignored
	if err := dec.Decode(&req); err != nil {
		api.WriteErr(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error(), nil)
		return
	}
	if req.Query == "" {
		api.WriteErr(w, http.StatusBadRequest, "bad_request", "query id is required", nil)
		return
	}
	if req.Bound != nil && (math.IsNaN(*req.Bound) || math.IsInf(*req.Bound, 0)) {
		api.WriteErr(w, http.StatusBadRequest, "bad_bound", "bound must be finite", nil)
		return
	}
	resp := BoundExchangeResponse{}
	cur, ok := s.bounds.exchange(req.Query, req.Bound)
	resp.Found = ok
	if ok && !math.IsInf(cur, -1) {
		resp.Bound = &cur
	}
	api.WriteJSON(w, http.StatusOK, resp)
}
