// Package explain builds per-query EXPLAIN profiles: an exact
// cost-attribution record assembled alongside (not from) the
// internal/trace spans. Where trace answers "where did the time go",
// explain answers "why did this query cost what it did": every clip's
// outcome is attributed to the decision machinery that settled it
// (scan-statistic accept/reject, planner accept/prune with its rung
// histogram and Decide reason, cache hit, dedup share, breaker shed,
// fallback hop, degraded prior, deadline partial) and every detector
// invocation to the layer that issued it (dense evaluation, planner
// base-rung probe, densification, hedge replica, retry round,
// micro-batch flush), plus the τ_top / B_lo^K bound trajectory for
// top-k runs.
//
// The discipline mirrors package trace: a nil *Collector is a valid,
// disabled collector — every method no-ops — so instrumented engine
// code guards nothing and the disabled path pays only nil checks
// (the benchmark's `explain.topk_overhead_ratio` measures the on/off
// ratio). Profiles are exact, not sampled: the engine-issued layers
// reconcile to the unit with the engines' own accounting —
//
//	dense_eval + plan_probe + densify == svaq Engine.Invocations()
//
// — which the reconciliation tests assert. The hedge / retry /
// batch_flush layers count *additional* backend rounds the resilience
// and shared-inference stacks issued on top of the engine's units and
// are deliberately outside that invariant.
//
// The package is a leaf (stdlib-only): the infer and resilience
// attributions arrive as deltas of their Stats snapshots, taken by the
// caller at query start and finish, via SetInfer / SetResilience.
package explain

import "sync"

// Invocation layers: which machinery issued a detector invocation.
const (
	// LayerDense is an unplanned dense evaluation unit (every frame /
	// shot of the predicate window, the paper's baseline cost).
	LayerDense = "dense_eval"
	// LayerProbe is a planner base-rung unit (the sparse first look).
	LayerProbe = "plan_probe"
	// LayerDensify is a planner unit beyond the base rung (the ladder
	// descending on an undecided clip), or an offline densify-on-demand
	// unit for top-k runs.
	LayerDensify = "densify"
	// LayerHedge counts hedge replicas launched by the resilience layer
	// (extra backend rounds beyond the engine's units).
	LayerHedge = "hedge"
	// LayerRetry counts retry rounds beyond the first attempt.
	LayerRetry = "retry"
	// LayerBatch counts units served through micro-batch flushes.
	LayerBatch = "batch_flush"
)

// Clip decision sources: which machinery settled a clip's outcome.
const (
	// ClipScanAccept / ClipScanReject: the scan-statistic tracker over a
	// densely evaluated pipeline settled the clip.
	ClipScanAccept = "scan_accept"
	ClipScanReject = "scan_reject"
	// ClipPlanAccept / ClipPlanPrune: the adaptive-sampling planner's
	// decision rules settled the clip before (or at) full density.
	ClipPlanAccept = "plan_accept"
	ClipPlanPrune  = "plan_prune"
)

// DefaultTrajectoryCap bounds the retained τ_top / B_lo^K trajectory
// points per profile; beyond it points are counted, not stored.
const DefaultTrajectoryCap = 512

// PredicateProfile aggregates one predicate's outcomes across the
// clips it ran on.
type PredicateProfile struct {
	Name      string `json:"name"`
	Planned   bool   `json:"planned,omitempty"`
	Evaluated int64  `json:"evaluated"` // clips the predicate ran on
	Positive  int64  `json:"positive"`  // clips it judged positive
	Units     int64  `json:"units"`     // detector units charged
	// BaseUnits is the planner base-rung share of Units; Units −
	// BaseUnits went to densification. Zero for dense predicates.
	BaseUnits int64 `json:"base_units,omitempty"`
	// Reasons histograms the planner Decide reason per evaluation.
	Reasons map[string]int64 `json:"reasons,omitempty"`
	// Rungs[r] counts evaluations settled after r+1 ladder rungs.
	Rungs []int64 `json:"rungs,omitempty"`
}

// PlanProfile aggregates the planner across all planned predicates.
type PlanProfile struct {
	Evaluations int64 `json:"evaluations"`
	Accepted    int64 `json:"accepted"`
	Pruned      int64 `json:"pruned"`
	// Densified counts evaluations that went past the base rung.
	Densified int64            `json:"densified"`
	Units     int64            `json:"units"`
	BaseUnits int64            `json:"base_units"`
	Reasons   map[string]int64 `json:"reasons,omitempty"`
	Rungs     []int64          `json:"rungs,omitempty"`
}

// InferProfile is the shared-inference attribution: the delta of
// infer.Stats between query start and finish. Dedup shares are
// attributed to the query whose flight led (leader attribution).
type InferProfile struct {
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Leaders      int64 `json:"leaders"`
	Coalesced    int64 `json:"coalesced"` // dedup ride-alongs
	Batches      int64 `json:"batches"`
	BatchedUnits int64 `json:"batched_units"`
}

// ResilienceProfile is the resilience attribution: the delta of
// resilience.Stats between query start and finish.
type ResilienceProfile struct {
	Calls            int64   `json:"calls"`
	Errors           int64   `json:"errors"`
	Retries          int64   `json:"retries"`
	Hedges           int64   `json:"hedges"`
	HedgeWins        int64   `json:"hedge_wins"`
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	BreakerRejects   int64   `json:"breaker_rejects"` // shed by the backend breaker
	LabelRejects     int64   `json:"label_rejects"`   // shed by per-label breakers
	Fallbacks        int64   `json:"fallbacks"`       // units served degraded
	DegradedUnits    int     `json:"degraded_units"`
	FallbackHops     []int64 `json:"fallback_hops,omitempty"` // serves per chain hop; last is the prior
}

// TrajPoint is one τ_top / B_lo^K observation of the top-k loop.
type TrajPoint struct {
	Shard  int     `json:"shard,omitempty"`
	Iter   int     `json:"iter"`
	TauTop float64 `json:"tau_top"`
	BLoK   float64 `json:"b_lo_k"`
}

// TopKProfile is the offline top-k section of a profile.
type TopKProfile struct {
	K               int         `json:"k,omitempty"`
	Candidates      int         `json:"candidates"`
	Iterations      int         `json:"iterations"`
	SeqsPruned      int64       `json:"seqs_pruned"`
	ClipsPruned     int64       `json:"clips_pruned"` // clip scores the pruning saved
	ScoreCacheHits  int64       `json:"score_cache_hits"`
	Densified       int64       `json:"densified"` // clips densified on demand
	RandomAccesses  int64       `json:"random_accesses"`
	SortedAccesses  int64       `json:"sorted_accesses"`
	DeadlinePartial bool        `json:"deadline_partial,omitempty"`
	Trajectory      []TrajPoint `json:"trajectory,omitempty"`
	// TrajectoryDropped counts points beyond the retention cap — the
	// trajectory is truncated loudly, never silently.
	TrajectoryDropped int64 `json:"trajectory_dropped,omitempty"`
}

// ShardProfile is one shard process's contribution to a coordinator
// query: the cost attribution of the scatter leg the coordinator sent
// it, taken from the shard's own response (and, when the shard returned
// its EXPLAIN profile inline, its top-k section). The coordinator's
// merged TopK section equals the field-wise sum over these entries
// exactly — the cross-process extension of the engine-counter
// reconciliation invariant.
type ShardProfile struct {
	// Shard is the backend's consistent-hash identity; Addr where the
	// call went.
	Shard string `json:"shard"`
	Addr  string `json:"addr,omitempty"`
	DurUS int64  `json:"dur_us,omitempty"`
	// Hedged marks a leg whose winning response came from a hedge
	// replica; Failed one that returned no results (shard down, shed or
	// breaker-skipped) — its Error says why, and its cost fields are
	// zero (failed legs contribute nothing to the merged totals).
	Hedged bool   `json:"hedged,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// Results is how many ranked entries the shard contributed to the
	// merge (before the global truncation to k).
	Results        int   `json:"results"`
	Candidates     int   `json:"candidates"`
	Iterations     int   `json:"iterations,omitempty"`
	RandomAccesses int64 `json:"random_accesses"`
	SortedAccesses int64 `json:"sorted_accesses,omitempty"`
	SeqsPruned     int64 `json:"seqs_pruned,omitempty"`
	ClipsPruned    int64 `json:"clips_pruned,omitempty"`
	Incomplete     bool  `json:"incomplete,omitempty"`
}

// Profile is one query's assembled EXPLAIN record.
type Profile struct {
	ID       string `json:"id,omitempty"`
	Kind     string `json:"kind"` // "online" | "topk"
	Query    string `json:"query,omitempty"`
	Workload string `json:"workload,omitempty"`
	DurUS    int64  `json:"dur_us,omitempty"`
	// Brownout is the degradation-ladder level in force when the query
	// finished (empty when the server runs without a brownout
	// controller).
	Brownout string `json:"brownout,omitempty"`

	// Clips attributes each settled clip to its decision source.
	Clips map[string]int64 `json:"clips,omitempty"`
	// Invocations attributes detector invocations to layers.
	Invocations map[string]int64 `json:"invocations,omitempty"`

	Predicates []PredicateProfile `json:"predicates,omitempty"`
	Plan       *PlanProfile       `json:"plan,omitempty"`
	Infer      *InferProfile      `json:"infer,omitempty"`
	Resilience *ResilienceProfile `json:"resilience,omitempty"`
	TopK       *TopKProfile       `json:"topk,omitempty"`
	// Shards attributes a coordinator query's cost per shard process
	// (kind "coordinator" only); the TopK section holds the merged
	// totals, which equal the sum over these entries exactly.
	Shards []ShardProfile `json:"shards,omitempty"`
}

// EngineInvocations sums the engine-issued layers — the side of the
// ledger that must equal the engine's own Invocations() exactly.
func (p Profile) EngineInvocations() int64 {
	return p.Invocations[LayerDense] + p.Invocations[LayerProbe] + p.Invocations[LayerDensify]
}

// PredObservation reports one predicate evaluation on one clip.
type PredObservation struct {
	Name     string
	Positive bool
	Planned  bool
	// Units is the detector units charged; BaseUnits the planner
	// base-rung share (0 for dense evaluations).
	Units     int
	BaseUnits int
	// Rungs and Reason describe the planner decision (planned only).
	Rungs  int
	Reason string
}

// Collector accumulates one query's profile. All methods are nil-safe
// no-ops on a nil receiver, and safe for concurrent use (sharded top-k
// runs share one collector across shard goroutines).
type Collector struct {
	mu      sync.Mutex
	p       Profile
	preds   map[string]*PredicateProfile
	order   []string
	trajCap int
}

// NewCollector builds an enabled collector for one query of the given
// kind ("online" or "topk").
func NewCollector(kind string) *Collector {
	return &Collector{
		p: Profile{
			Kind:        kind,
			Clips:       map[string]int64{},
			Invocations: map[string]int64{},
		},
		preds:   map[string]*PredicateProfile{},
		trajCap: DefaultTrajectoryCap,
	}
}

// SetID records the query/session id (correlates /explainz with the
// slow-query log and /tracez root spans).
func (c *Collector) SetID(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.p.ID = id
	c.mu.Unlock()
}

// SetQuery records the query text.
func (c *Collector) SetQuery(q string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.p.Query = q
	c.mu.Unlock()
}

// SetWorkload records the workload / video name.
func (c *Collector) SetWorkload(w string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.p.Workload = w
	c.mu.Unlock()
}

// SetBrownout records the brownout ladder level in force at finish.
func (c *Collector) SetBrownout(level string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.p.Brownout = level
	c.mu.Unlock()
}

// SetDurUS records the query wall-clock duration in microseconds.
func (c *Collector) SetDurUS(us int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.p.DurUS = us
	c.mu.Unlock()
}

// ClipOutcome attributes one settled clip to a decision source.
func (c *Collector) ClipOutcome(source string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.p.Clips[source]++
	c.mu.Unlock()
}

// ObservePredicate folds one predicate evaluation into the profile:
// the per-predicate aggregate, the invocation layers, and — for
// planned evaluations — the planner aggregate.
func (c *Collector) ObservePredicate(o PredObservation) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pp := c.preds[o.Name]
	if pp == nil {
		pp = &PredicateProfile{Name: o.Name, Planned: o.Planned}
		c.preds[o.Name] = pp
		c.order = append(c.order, o.Name)
	}
	pp.Evaluated++
	if o.Positive {
		pp.Positive++
	}
	pp.Units += int64(o.Units)
	if !o.Planned {
		c.p.Invocations[LayerDense] += int64(o.Units)
		return
	}
	pp.BaseUnits += int64(o.BaseUnits)
	if o.Reason != "" {
		if pp.Reasons == nil {
			pp.Reasons = map[string]int64{}
		}
		pp.Reasons[o.Reason]++
	}
	if o.Rungs > 0 {
		for len(pp.Rungs) < o.Rungs {
			pp.Rungs = append(pp.Rungs, 0)
		}
		pp.Rungs[o.Rungs-1]++
	}
	c.p.Invocations[LayerProbe] += int64(o.BaseUnits)
	c.p.Invocations[LayerDensify] += int64(o.Units - o.BaseUnits)
	if c.p.Plan == nil {
		c.p.Plan = &PlanProfile{}
	}
	pl := c.p.Plan
	pl.Evaluations++
	pl.Units += int64(o.Units)
	pl.BaseUnits += int64(o.BaseUnits)
	if o.Units > o.BaseUnits {
		pl.Densified++
	}
	if o.Positive {
		pl.Accepted++
	} else {
		pl.Pruned++
	}
	if o.Reason != "" {
		if pl.Reasons == nil {
			pl.Reasons = map[string]int64{}
		}
		pl.Reasons[o.Reason]++
	}
	if o.Rungs > 0 {
		for len(pl.Rungs) < o.Rungs {
			pl.Rungs = append(pl.Rungs, 0)
		}
		pl.Rungs[o.Rungs-1]++
	}
}

// SetInfer records the shared-inference delta for this query and
// attributes the batched units to the batch_flush layer. Call once,
// at query finish.
func (c *Collector) SetInfer(d InferProfile) {
	if c == nil {
		return
	}
	c.mu.Lock()
	cp := d
	c.p.Infer = &cp
	if d.BatchedUnits > 0 {
		c.p.Invocations[LayerBatch] += d.BatchedUnits
	}
	c.mu.Unlock()
}

// SetResilience records the resilience delta for this query and
// attributes hedge replicas and retry rounds to their layers. Call
// once, at query finish.
func (c *Collector) SetResilience(d ResilienceProfile) {
	if c == nil {
		return
	}
	c.mu.Lock()
	cp := d
	cp.FallbackHops = append([]int64(nil), d.FallbackHops...)
	c.p.Resilience = &cp
	if d.Hedges > 0 {
		c.p.Invocations[LayerHedge] += d.Hedges
	}
	if d.Retries > 0 {
		c.p.Invocations[LayerRetry] += d.Retries
	}
	c.mu.Unlock()
}

// topk returns the top-k section, creating it on first use. Callers
// hold c.mu.
func (c *Collector) topk() *TopKProfile {
	if c.p.TopK == nil {
		c.p.TopK = &TopKProfile{}
	}
	return c.p.TopK
}

// TopKConfigure records the requested k.
func (c *Collector) TopKConfigure(k int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.topk().K = k
	c.mu.Unlock()
}

// TopKIteration appends one τ_top / B_lo^K trajectory point, up to the
// retention cap; points beyond it are counted in TrajectoryDropped.
func (c *Collector) TopKIteration(shard, iter int, tauTop, bLoK float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	tk := c.topk()
	if len(tk.Trajectory) < c.trajCap {
		tk.Trajectory = append(tk.Trajectory, TrajPoint{Shard: shard, Iter: iter, TauTop: tauTop, BLoK: bLoK})
	} else {
		tk.TrajectoryDropped++
	}
	c.mu.Unlock()
}

// TopKSeqPruned records one candidate sequence pruned by the B_lo^K
// bound, saving clips clip scores.
func (c *Collector) TopKSeqPruned(clips int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	tk := c.topk()
	tk.SeqsPruned++
	tk.ClipsPruned += int64(clips)
	c.mu.Unlock()
}

// TopKScoreCacheHit records one random access served from the
// clip-score cache.
func (c *Collector) TopKScoreCacheHit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.topk().ScoreCacheHits++
	c.mu.Unlock()
}

// TopKDensified records one clip densified on demand.
func (c *Collector) TopKDensified() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.topk().Densified++
	c.mu.Unlock()
}

// TopKPartial marks the run as cut short by its deadline.
func (c *Collector) TopKPartial() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.topk().DeadlinePartial = true
	c.mu.Unlock()
}

// TopKFinish folds one top-k execution's totals in (called once per
// shard; sharded runs accumulate, mirroring rvaq.Stats.Merge).
func (c *Collector) TopKFinish(candidates, iterations int, randomAccesses, sortedAccesses int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	tk := c.topk()
	tk.Candidates += candidates
	tk.Iterations += iterations
	tk.RandomAccesses += randomAccesses
	tk.SortedAccesses += sortedAccesses
	c.mu.Unlock()
}

// AddShard appends one shard's attribution to a coordinator profile
// and folds its cost fields into the merged TopK section, so the
// section stays the exact field-wise sum over the shard entries.
// Failed legs are recorded but contribute no cost.
func (c *Collector) AddShard(sp ShardProfile) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.p.Shards = append(c.p.Shards, sp)
	tk := c.topk()
	tk.Candidates += sp.Candidates
	tk.Iterations += sp.Iterations
	tk.RandomAccesses += sp.RandomAccesses
	tk.SortedAccesses += sp.SortedAccesses
	tk.SeqsPruned += sp.SeqsPruned
	tk.ClipsPruned += sp.ClipsPruned
	c.mu.Unlock()
}

// Profile snapshots the collected profile. The returned value shares
// nothing with the collector and is safe to retain and serialize.
func (c *Collector) Profile() Profile {
	if c == nil {
		return Profile{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.p
	p.Clips = copyMap(c.p.Clips)
	p.Invocations = copyMap(c.p.Invocations)
	if len(c.order) > 0 {
		p.Predicates = make([]PredicateProfile, 0, len(c.order))
		for _, name := range c.order {
			pp := *c.preds[name]
			pp.Reasons = copyMap(pp.Reasons)
			pp.Rungs = append([]int64(nil), pp.Rungs...)
			p.Predicates = append(p.Predicates, pp)
		}
	}
	if c.p.Plan != nil {
		pl := *c.p.Plan
		pl.Reasons = copyMap(pl.Reasons)
		pl.Rungs = append([]int64(nil), pl.Rungs...)
		p.Plan = &pl
	}
	if c.p.Infer != nil {
		in := *c.p.Infer
		p.Infer = &in
	}
	if c.p.Resilience != nil {
		rs := *c.p.Resilience
		rs.FallbackHops = append([]int64(nil), rs.FallbackHops...)
		p.Resilience = &rs
	}
	if c.p.TopK != nil {
		tk := *c.p.TopK
		tk.Trajectory = append([]TrajPoint(nil), tk.Trajectory...)
		p.TopK = &tk
	}
	p.Shards = append([]ShardProfile(nil), c.p.Shards...)
	return p
}

// copyMap clones a counter map, mapping empty to nil so omitempty
// drops untouched sections from the JSON.
func copyMap(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
