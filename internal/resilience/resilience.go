// Package resilience is the policy layer between the query engines and
// fallible detection backends: per-invocation deadlines, bounded retry
// with exponential backoff and decorrelated jitter, hedged requests
// against tail latency, per-backend and per-label circuit breakers
// with half-open probing, adaptive retry budgets, and graceful
// degradation down a fallback chain.
//
// One wrapper, generic over the unit and result of detect.Backend
// (which real backends — and the fault injector — implement), serves
// both model kinds; Detector and Recognizer present it through the
// *infallible* interfaces the svaq/rvaq engines and the ingest path
// were written against. Faults are absorbed here: a failing call is
// retried under its deadline; a slow call is raced by a hedge replica
// once it outlives the backend's observed latency quantile; a backend
// (or a single label) that keeps failing trips its breaker so
// subsequent calls shed instantly; and when the budget is exhausted
// the wrapper walks the fallback chain — cheaper profiles first,
// ending at the background-probability prior (sampling detections at
// a fixed low rate p0, the same prior package bgprob starts from) —
// recording exactly which frames/shots were served degraded, and by
// which hop, so results can be flagged instead of silently skewed.
//
// Determinism: with a deterministic backend (the simulators, or the
// fault injector wrapping them) a fixed policy seed makes every output
// byte — including fallback detections and retry/fallback counters —
// identical across runs. Backoff jitter is drawn from the same seeded
// hash and affects only wall-clock time. Hedging preserves this: both
// racers of a retry round carry the same fault.Call attempt coordinate,
// so the injector's decisive draws (error, corrupt, stall) agree
// between them — a hedge can dodge a latency episode (replica-keyed
// draws) but never change result bytes. Breaker state and the hedge /
// adaptive-trim counters are the deliberate exception: they respond to
// wall-clock load, not to coordinates.
package resilience

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/fault"
	"vaq/internal/quantile"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// DefaultFallbackP is the prior event probability used by the
// degradation fallback when none is configured: the same "rare by
// default" prior the bgprob estimator starts from.
const DefaultFallbackP = 1e-4

// DefaultHedgeMinSamples is how many successful rounds a backend must
// show before hedging arms when Policy.HedgeMinSamples is 0: the
// latency quantile is meaningless on a handful of observations.
const DefaultHedgeMinSamples = 50

// hedgeFloor bounds the hedge delay from below. Healthy simulator
// calls finish in single-digit microseconds — below timer granularity
// — so an unfloored sub-timer quantile would launch a replica for
// every call instead of only the slow ones.
const hedgeFloor = 100 * time.Microsecond

// Policy bundles the resilience knobs. The zero value retries nothing,
// sets no deadline, never hedges and never breaks — equivalent to
// calling the backend directly (plus fallback on error).
type Policy struct {
	// Deadline bounds each backend invocation (per attempt, not per
	// unit); 0 means no deadline.
	Deadline time.Duration
	// MaxRetries is how many times a failed invocation is retried
	// (total attempts = MaxRetries + 1).
	MaxRetries int
	// BaseBackoff and MaxBackoff bound the exponential backoff with
	// decorrelated jitter between retries.
	BaseBackoff, MaxBackoff time.Duration
	// Seed drives backoff jitter and fallback sampling; fix it for
	// reproducible runs.
	Seed int64
	// BreakerFailures consecutive failures open the per-backend circuit
	// breaker; 0 disables it (and the per-label breakers with it).
	BreakerFailures int
	// BreakerCooldown is how long an open circuit rejects calls before
	// admitting a half-open probe.
	BreakerCooldown time.Duration
	// FallbackP is the prior event probability of the degradation
	// fallback; 0 means DefaultFallbackP.
	FallbackP float64
	// HedgeQuantile arms hedged requests: once enough successful rounds
	// have been observed, an attempt that outlives this latency
	// quantile (e.g. 0.95) races a second backend call — first result
	// wins, the loser is cancelled. 0 disables hedging. By
	// construction roughly (1 − HedgeQuantile) of healthy calls hedge.
	HedgeQuantile float64
	// HedgeMinSamples successful rounds must be observed before hedging
	// arms; 0 means DefaultHedgeMinSamples.
	HedgeMinSamples int
	// LabelBreaker adds per-(backend, label) circuit breakers inside
	// the per-backend one, sharing BreakerFailures/BreakerCooldown: a
	// single broken label sheds only itself while its siblings keep
	// flowing. Label breakers see one decisive outcome per invocation
	// (the backend breaker counts per attempt).
	LabelBreaker bool
}

// DefaultPolicy returns the production defaults: 250ms per-call
// deadline, 2 retries with 5ms..250ms decorrelated-jitter backoff, and
// a breaker opening after 8 consecutive failures with a 500ms cooldown.
// Hedging and per-label breakers stay opt-in.
func DefaultPolicy() Policy {
	return Policy{
		Deadline:        250 * time.Millisecond,
		MaxRetries:      2,
		BaseBackoff:     5 * time.Millisecond,
		MaxBackoff:      250 * time.Millisecond,
		BreakerFailures: 8,
		BreakerCooldown: 500 * time.Millisecond,
	}
}

func (p Policy) fallbackP() float64 {
	if p.FallbackP > 0 {
		return p.FallbackP
	}
	return DefaultFallbackP
}

func (p Policy) hedgeMinSamples() int64 {
	if p.HedgeMinSamples > 0 {
		return int64(p.HedgeMinSamples)
	}
	return DefaultHedgeMinSamples
}

// Stats is a snapshot of one wrapper's resilience counters.
type Stats struct {
	Calls             int64   `json:"calls"`
	Errors            int64   `json:"errors"`                   // failed rounds (incl. deadline)
	Retries           int64   `json:"retries"`                  // rounds beyond the first
	Fallbacks         int64   `json:"fallbacks"`                // units served degraded
	DeadlineExceeded  int64   `json:"deadline_exceeded"`        // rounds cut by the per-call deadline
	BreakerRejects    int64   `json:"breaker_rejects"`          // calls shed by an open circuit
	BreakerOpens      int64   `json:"breaker_opens"`            // times the backend circuit opened
	BreakerState      string  `json:"breaker_state"`            // closed / open / half-open
	DegradedUnits     int     `json:"degraded_units"`           // distinct frames/shots served degraded
	Hedges            int64   `json:"hedges"`                   // hedge replicas launched
	HedgeWins         int64   `json:"hedge_wins"`               // rounds decided by the hedge replica
	HedgeDelayUS      float64 `json:"hedge_delay_us,omitempty"` // current hedge trigger delay (0 until armed)
	AdaptiveTrims     int64   `json:"adaptive_trims"`           // invocations whose retry budget was trimmed
	LabelRejects      int64   `json:"label_rejects"`            // label-calls shed by per-label breakers
	LabelBreakerOpens int64   `json:"label_breaker_opens"`      // per-label circuit openings
	FallbackHops      []int64 `json:"fallback_hops,omitempty"`  // degraded serves per chain hop; last entry is the prior
}

// Add accumulates other's counters into s and keeps the worse of the
// two breaker states; it is the single aggregation path — the serving
// daemon uses it across sessions for /metricsz, and Models.Stats uses
// it across the detector/recognizer pair — so per-unit counters like
// Fallbacks and FallbackHops cannot drift between the two roll-ups.
func (s *Stats) Add(other Stats) {
	s.Calls += other.Calls
	s.Errors += other.Errors
	s.Retries += other.Retries
	s.Fallbacks += other.Fallbacks
	s.DeadlineExceeded += other.DeadlineExceeded
	s.BreakerRejects += other.BreakerRejects
	s.BreakerOpens += other.BreakerOpens
	s.DegradedUnits += other.DegradedUnits
	s.Hedges += other.Hedges
	s.HedgeWins += other.HedgeWins
	if other.HedgeDelayUS > s.HedgeDelayUS {
		s.HedgeDelayUS = other.HedgeDelayUS
	}
	s.AdaptiveTrims += other.AdaptiveTrims
	s.LabelRejects += other.LabelRejects
	s.LabelBreakerOpens += other.LabelBreakerOpens
	for i, n := range other.FallbackHops {
		for len(s.FallbackHops) <= i {
			s.FallbackHops = append(s.FallbackHops, 0)
		}
		s.FallbackHops[i] += n
	}
	if stateRank(other.BreakerState) > stateRank(s.BreakerState) {
		s.BreakerState = other.BreakerState
	}
}

func stateRank(s string) int {
	switch s {
	case StateOpen.String():
		return 2
	case StateHalfOpen.String():
		return 1
	}
	return 0
}

// invoker is the retry/hedge/breaker/degraded-unit core of a wrapper;
// nothing in it depends on the model kind but the salt.
type invoker struct {
	policy  Policy
	breaker *Breaker
	budget  *AdaptiveBudget
	mode    *ModeVar // host-mutated posture (brownout ladder); nil = ModeFull
	salt    string   // the kind's salt: distinguishes obj/act streams under one seed
	fast    bool     // backend is an infallible adapter; see fastPath

	calls, errs, retries, fallbacks, deadlines, rejects atomic.Int64
	hedges, hedgeWins, trims, labelRejects              atomic.Int64

	mu        sync.Mutex
	degraded  map[int]int // unit → chain hop that served it (1-based; last is the prior)
	hopCounts []int64     // degraded serves per hop

	latMu    sync.Mutex
	lat      *quantile.Sketch // successful round durations (ns); nil unless hedging armed
	latStage *trace.Stage     // mirrors lat into /varz and /metricsz; nil without a tracer

	labelMu sync.Mutex
	labels  map[annot.Label]*Breaker

	// trace counter handles; all nil-safe.
	cRetries, cFallbacks, cDeadline, cFaults   *trace.Counter
	cHedges, cHedgeWins, cTrims, cLabelRejects *trace.Counter
}

func newInvoker(p Policy, salt, backend string, opt Options) *invoker {
	tr := opt.Tracer
	in := &invoker{
		policy:     p,
		breaker:    NewBreaker(p.BreakerFailures, p.BreakerCooldown),
		budget:     opt.Budget,
		mode:       opt.Mode,
		salt:       salt,
		degraded:   map[int]int{},
		cRetries:   tr.Counter("resilience.retries"),
		cFallbacks: tr.Counter("resilience.fallbacks"),
		cDeadline:  tr.Counter("resilience.deadline_exceeded"),
		cHedges:    tr.Counter("resilience.hedges"),
		cHedgeWins: tr.Counter("resilience.hedge_wins"),
		cTrims:     tr.Counter("resilience.adaptive_trims"),
		// Counter names are lowercase dotted by convention (the varz
		// exposition folds case, so mixed case would desync /tracez
		// from /varz).
		cLabelRejects: tr.Counter("resilience.label_rejects"),
		cFaults:       tr.Counter("resilience.faults." + strings.ToLower(backend)),
	}
	if p.HedgeQuantile > 0 {
		in.lat = quantile.New(
			quantile.Target{Quantile: 0.5, Epsilon: 0.02},
			quantile.Target{Quantile: p.HedgeQuantile, Epsilon: 0.005},
		)
		// Mirror the hedge-driving sketch into a trace stage so /varz
		// and /metricsz expose the per-backend latency quantiles the
		// hedge delay is derived from — hedge tuning was blind without
		// them. Salted obj/act: both wrappers may front one backend
		// name.
		in.latStage = tr.Stage("resilience.latency." + salt + "." + strings.ToLower(backend))
	}
	if p.LabelBreaker {
		in.labels = map[annot.Label]*Breaker{}
	}
	return in
}

// fastPath reports whether a call may bypass the policy machinery
// entirely: the backend can neither fail nor block (detect's
// infallible adapters), so the deadline context, breaker round-trip
// and backoff loop are dead weight it cannot observe. An armed hedge
// keeps the policy path: it times every round, and its latency sketch
// is what /metricsz reports. The caller still counts the call and must
// fall into invoke if the backend errors after all.
func (in *invoker) fastPath(ctx context.Context) bool {
	return in.fast && in.lat == nil && ctx.Err() == nil
}

// invoke runs call under the policy: deadline and optional hedge per
// round, bounded retries with jittered backoff, breaker gating. It
// reports whether the caller must fall back (all rounds failed,
// circuit open, or ctx done). The payload is returned by value — with
// hedging, two racers may produce results concurrently, so the call
// closure must not write through captured variables.
func invoke[T any](in *invoker, ctx context.Context, unit int, call func(context.Context) (T, error)) (T, bool) {
	var zero T
	maxRetries := in.policy.MaxRetries
	if eff := in.budget.Retries(maxRetries); eff < maxRetries {
		maxRetries = eff
		in.trims.Add(1)
		in.cTrims.Add(1)
	}
	attempts := maxRetries + 1
	prev := in.policy.BaseBackoff
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			break
		}
		if !in.breaker.Allow() {
			in.rejects.Add(1)
			break
		}
		start := time.Now()
		v, err := attemptRound(in, ctx, attempt, call)
		if err == nil {
			in.breaker.Success()
			in.observeLatency(time.Since(start))
			return v, false
		}
		in.breaker.Failure()
		in.errs.Add(1)
		in.cFaults.Add(1)
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			in.deadlines.Add(1)
			in.cDeadline.Add(1)
		}
		if ctx.Err() != nil {
			break // the query itself is being cancelled; don't retry
		}
		if attempt+1 < attempts {
			in.retries.Add(1)
			in.cRetries.Add(1)
			prev = in.backoff(unit, attempt, prev)
			if sleepCtx(ctx, prev) != nil {
				break
			}
		}
	}
	return zero, true
}

// attemptRound runs one retry round: the primary attempt plus — when
// hedging is armed and the primary outlives the observed latency
// quantile — a racing hedge replica. The first completed result
// decides the round and the loser is cancelled. Both racers carry the
// same fault.Call attempt, so the injector's decisive draws agree
// between them: whether the hedge launches (and which racer finishes
// first) moves wall-clock time, never bytes.
func attemptRound[T any](in *invoker, ctx context.Context, attempt int, call func(context.Context) (T, error)) (T, error) {
	delay, hedged := in.hedgeDelay()
	if !hedged {
		return runAttempt(in, ctx, attempt, 0, call)
	}
	type result struct {
		v       T
		err     error
		replica int
	}
	ch := make(chan result, 2)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps the loser
	run := func(replica int) {
		go func() {
			v, err := runAttempt(in, rctx, attempt, replica, call)
			ch <- result{v, err, replica}
		}()
	}
	run(0)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var first result
	launched := false
	select {
	case first = <-ch:
	case <-timer.C:
		launched = true
		in.hedges.Add(1)
		in.cHedges.Add(1)
		run(1)
		first = <-ch
	}
	if launched && first.replica == 1 {
		in.hedgeWins.Add(1)
		in.cHedgeWins.Add(1)
	}
	return first.v, first.err
}

// runAttempt executes one racer of one round under the per-attempt
// deadline, stamping the fault.Call coordinates the injector keys on.
func runAttempt[T any](in *invoker, ctx context.Context, attempt, replica int, call func(context.Context) (T, error)) (T, error) {
	cctx := fault.WithCall(ctx, attempt, replica)
	if in.policy.Deadline > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, in.policy.Deadline)
		defer cancel()
	}
	return call(cctx)
}

// hedgeDelay reports the current hedge trigger: the observed latency
// quantile of successful rounds, floored at hedgeFloor, once enough
// samples exist.
func (in *invoker) hedgeDelay() (time.Duration, bool) {
	if in.lat == nil || in.mode.Get() >= ModeNoHedge {
		return 0, false
	}
	in.latMu.Lock()
	defer in.latMu.Unlock()
	if in.lat.Count() < in.policy.hedgeMinSamples() {
		return 0, false
	}
	d := time.Duration(in.lat.Query(in.policy.HedgeQuantile))
	if d < hedgeFloor {
		d = hedgeFloor
	}
	return d, true
}

func (in *invoker) observeLatency(d time.Duration) {
	if in.lat == nil {
		return
	}
	in.latMu.Lock()
	in.lat.Observe(float64(d))
	in.latMu.Unlock()
	in.latStage.Observe(d)
}

// partition splits labels into those admitted by their per-label
// breakers and those shed (served by the fallback chain instead). With
// the policy's LabelBreaker off, every label is admitted.
func (in *invoker) partition(labels []annot.Label) (allowed, shed []annot.Label) {
	if in.labels == nil {
		return labels, nil
	}
	for _, l := range labels {
		if in.labelBreaker(l).Allow() {
			allowed = append(allowed, l)
		} else {
			shed = append(shed, l)
			in.labelRejects.Add(1)
			in.cLabelRejects.Add(1)
		}
	}
	return allowed, shed
}

func (in *invoker) labelBreaker(l annot.Label) *Breaker {
	in.labelMu.Lock()
	defer in.labelMu.Unlock()
	b := in.labels[l]
	if b == nil {
		b = NewBreaker(in.policy.BreakerFailures, in.policy.BreakerCooldown)
		in.labels[l] = b
	}
	return b
}

// reportLabels feeds the invocation's decisive outcome to every label
// the call carried. Failures are attributed to all of them — exact
// when callers issue single-label calls, conservative for batches —
// and a label whose Allow admitted a half-open probe always hears the
// verdict, so probes cannot wedge.
func (in *invoker) reportLabels(labels []annot.Label, ok bool) {
	if in.labels == nil {
		return
	}
	for _, l := range labels {
		b := in.labelBreaker(l)
		if ok {
			b.Success()
		} else {
			b.Failure()
		}
	}
}

// noteDegraded records one degraded serve: which unit, and which chain
// hop answered (1..len(chain) for configured hops, len(chain)+1 for
// the prior sampler). A unit served twice keeps its worst hop.
func (in *invoker) noteDegraded(unit, hop int) {
	in.fallbacks.Add(1)
	in.cFallbacks.Add(1)
	in.mu.Lock()
	if old, seen := in.degraded[unit]; !seen || hop > old {
		in.degraded[unit] = hop
	}
	for len(in.hopCounts) < hop {
		in.hopCounts = append(in.hopCounts, 0)
	}
	in.hopCounts[hop-1]++
	in.mu.Unlock()
}

// backoff computes the next decorrelated-jitter delay: uniform in
// [base, 3·prev], capped at MaxBackoff. The jitter is a pure hash of
// (seed, stream, unit, attempt) so runs are reproducible.
func (in *invoker) backoff(unit, attempt int, prev time.Duration) time.Duration {
	lo := in.policy.BaseBackoff
	if lo <= 0 {
		return 0
	}
	hi := 3 * prev
	if hi < lo {
		hi = lo
	}
	if max := in.policy.MaxBackoff; max > 0 && hi > max {
		hi = max
	}
	u := detect.UnitRand(detect.HashKey(in.policy.Seed, in.salt+"/backoff", int64(unit)), uint64(attempt))
	return lo + time.Duration(u*float64(hi-lo))
}

func (in *invoker) degradedUnits() []int {
	in.mu.Lock()
	out := make([]int, 0, len(in.degraded))
	for u := range in.degraded {
		out = append(out, u)
	}
	in.mu.Unlock()
	sort.Ints(out)
	return out
}

func (in *invoker) degradedHops() map[int]int {
	in.mu.Lock()
	out := make(map[int]int, len(in.degraded))
	for u, hop := range in.degraded {
		out[u] = hop
	}
	in.mu.Unlock()
	return out
}

func (in *invoker) stats() Stats {
	in.mu.Lock()
	n := len(in.degraded)
	hops := append([]int64(nil), in.hopCounts...)
	in.mu.Unlock()
	var labelOpens int64
	if in.labels != nil {
		in.labelMu.Lock()
		for _, b := range in.labels {
			labelOpens += b.Opens()
		}
		in.labelMu.Unlock()
	}
	var hedgeDelayUS float64
	if d, ok := in.hedgeDelay(); ok {
		hedgeDelayUS = float64(d) / float64(time.Microsecond)
	}
	return Stats{
		Calls:             in.calls.Load(),
		Errors:            in.errs.Load(),
		Retries:           in.retries.Load(),
		Fallbacks:         in.fallbacks.Load(),
		DeadlineExceeded:  in.deadlines.Load(),
		BreakerRejects:    in.rejects.Load(),
		BreakerOpens:      in.breaker.Opens(),
		BreakerState:      in.breaker.State().String(),
		DegradedUnits:     n,
		Hedges:            in.hedges.Load(),
		HedgeWins:         in.hedgeWins.Load(),
		HedgeDelayUS:      hedgeDelayUS,
		AdaptiveTrims:     in.trims.Load(),
		LabelRejects:      in.labelRejects.Load(),
		LabelBreakerOpens: labelOpens,
		FallbackHops:      hops,
	}
}

// Mode is the policy posture a brownout level imposes on the
// wrappers. It orders from full service to maximum degradation; each
// step strictly contains the previous one's restrictions.
type Mode int32

const (
	// ModeFull applies the configured policy unchanged.
	ModeFull Mode = iota
	// ModeNoHedge suppresses hedged duplicate calls.
	ModeNoHedge
	// ModeCheap skips the primary backend: every unit is served by
	// the fallback chain's first surviving hop (the cheaper profile)
	// and recorded as a degraded serve.
	ModeCheap
	// ModePrior skips models entirely: every unit is served by the
	// bgprob prior sampler (the chain's implicit last hop).
	ModePrior
)

// ModeVar is a shared, atomically-updated Mode. One var is consulted
// per call by every wrapper built with it, so the host (the brownout
// controller) flips all sessions' posture at once without walking
// them. The nil ModeVar is pinned at ModeFull.
type ModeVar struct{ v atomic.Int32 }

// Set publishes a new posture.
func (m *ModeVar) Set(md Mode) {
	if m != nil {
		m.v.Store(int32(md))
	}
}

// Get returns the current posture (ModeFull on nil).
func (m *ModeVar) Get() Mode {
	if m == nil {
		return ModeFull
	}
	return Mode(m.v.Load())
}

// Options configures the wrappers beyond the policy.
type Options struct {
	// Ctx is the base context of infallible-interface calls (the
	// session's or ingest run's lifetime); nil means Background.
	Ctx context.Context
	// Tracer receives resilience.* counters; nil is fine.
	Tracer *trace.Tracer
	// Budget, when set, adaptively trims MaxRetries as serving load
	// rises; feed it the worker pool's queue waits
	// (pool.SetObserver → Budget.Observe). Nil keeps the static budget.
	Budget *AdaptiveBudget
	// FallbackObjects / FallbackActions form the degradation chain
	// tried in order for units the primary cannot serve: each hop gets
	// one attempt under the policy deadline, a failing hop passes the
	// unit on, and the bgprob prior sampler is the implicit final hop
	// (it never fails). Wrap infallible profiles with
	// detect.AsFallibleObject / AsFallibleAction.
	FallbackObjects []detect.FallibleObjectDetector
	FallbackActions []detect.FallibleActionRecognizer
	// Thresholds separate above/below-threshold fallback scores;
	// zero means detect.DefaultThresholds.
	Thresholds detect.Thresholds
	// Mode, when set, lets the host degrade the policy in place (the
	// brownout ladder): ModeNoHedge mutes hedging, ModeCheap routes
	// every call straight to the fallback chain, ModePrior straight
	// to the prior sampler — each recorded through the normal
	// degraded-unit accounting so downstream score discounting stays
	// honest. Nil pins ModeFull.
	Mode *ModeVar
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) thresholds() detect.Thresholds {
	if o.Thresholds == (detect.Thresholds{}) {
		return detect.DefaultThresholds()
	}
	return o.Thresholds
}

// wrapper runs one backend of either model kind under the policy: the
// fast path, the brownout mode, the label partition and the fallback
// chain walk are written once here. Detector and Recognizer add only
// the engine-facing call.
type wrapper[U detect.Unit, R detect.Result] struct {
	in      *invoker
	backend detect.Backend[U, R]
	base    context.Context
	chain   []detect.Backend[U, R]
	prior   prior
	sample  func(prior, U, []annot.Label) []R // the kind's prior sampler
}

func newWrapper[U detect.Unit, R detect.Result](k *detect.Kind[U, R], backend detect.Backend[U, R], p Policy, opt Options,
	chain []detect.Backend[U, R], thr float64, sample func(prior, U, []annot.Label) []R) *wrapper[U, R] {
	in := newInvoker(p, k.Salt, backend.Name(), opt)
	_, in.fast = backend.(detect.InfallibleBackend)
	return &wrapper[U, R]{
		in:      in,
		backend: backend,
		base:    opt.ctx(),
		chain:   chain,
		prior:   prior{seed: p.Seed, key: "prior/" + k.Salt + ":", p0: p.fallbackP(), thr: thr},
		sample:  sample,
	}
}

// Name is the wrapped backend's name.
func (w *wrapper[U, R]) Name() string { return w.backend.Name() }

// DetectCtx runs one resilient call and reports whether any part of the
// result came from the fallback chain (degraded).
func (w *wrapper[U, R]) DetectCtx(ctx context.Context, u U, labels []annot.Label) ([]R, bool) {
	if mode := w.in.mode.Get(); mode >= ModeCheap {
		// Brownout posture: skip the primary (even an infallible one)
		// and serve degraded — the cheap chain hop, or the prior
		// outright — so overload sheds model cost, not correctness
		// accounting.
		w.in.calls.Add(1)
		var out []R
		var hop int
		if mode >= ModePrior {
			out, hop = w.sample(w.prior, u, labels), len(w.chain)+1
		} else {
			out, hop = w.chainCall(ctx, u, labels)
		}
		w.in.noteDegraded(int(u), hop)
		return out, true
	}
	if w.in.fastPath(ctx) {
		if out, err := w.backend.DetectCtx(ctx, u, labels); err == nil {
			w.in.calls.Add(1)
			return out, false
		}
	}
	w.in.calls.Add(1)
	allowed, shed := w.in.partition(labels)
	var out []R
	hop := 0
	if len(allowed) > 0 {
		res, exhausted := invoke(w.in, ctx, int(u), func(cctx context.Context) ([]R, error) {
			return w.backend.DetectCtx(cctx, u, allowed)
		})
		w.in.reportLabels(allowed, !exhausted)
		if exhausted {
			res, hop = w.chainCall(ctx, u, allowed)
		}
		out = res
	}
	if len(shed) > 0 {
		res, shedHop := w.chainCall(ctx, u, shed)
		out = append(out, res...)
		if shedHop > hop {
			hop = shedHop
		}
	}
	if hop == 0 {
		return out, false
	}
	w.in.noteDegraded(int(u), hop)
	return out, true
}

// chainCall walks the fallback chain for one unit: each hop gets a
// single attempt under the policy deadline; the prior sampler is the
// unconditional last hop. It returns the results and the 1-based hop
// that served them.
func (w *wrapper[U, R]) chainCall(ctx context.Context, u U, labels []annot.Label) ([]R, int) {
	for i, hopBackend := range w.chain {
		hctx, cancel := ctx, context.CancelFunc(func() {})
		if w.in.policy.Deadline > 0 {
			hctx, cancel = context.WithTimeout(ctx, w.in.policy.Deadline)
		}
		out, err := hopBackend.DetectCtx(hctx, u, labels)
		cancel()
		if err == nil {
			return out, i + 1
		}
	}
	return w.sample(w.prior, u, labels), len(w.chain) + 1
}

// Stats snapshots the resilience counters.
func (w *wrapper[U, R]) Stats() Stats { return w.in.stats() }

// DegradedHops maps each degraded unit to the 1-based chain hop that
// served it (len(chain)+1 = the prior sampler).
func (w *wrapper[U, R]) DegradedHops() map[int]int { return w.in.degradedHops() }

// Breaker exposes the backend's circuit breaker (for reporting).
func (w *wrapper[U, R]) Breaker() *Breaker { return w.in.breaker }

// LabelBreaker exposes the per-label breaker of one label, creating it
// closed on first use; it returns nil when the policy has per-label
// breakers off.
func (w *wrapper[U, R]) LabelBreaker(l annot.Label) *Breaker {
	if w.in.labels == nil {
		return nil
	}
	return w.in.labelBreaker(l)
}

// Detector wraps a fallible object detection backend with the policy
// and presents the infallible detect.ObjectDetector interface: Detect
// never fails — it degrades.
type Detector struct {
	*wrapper[video.FrameIdx, detect.Detection]
}

// NewDetector wraps backend under policy p.
func NewDetector(backend detect.FallibleObjectDetector, p Policy, opt Options) *Detector {
	return &Detector{newWrapper(detect.Objects, backend, p, opt, opt.FallbackObjects, opt.thresholds().Object, prior.detections)}
}

// Detect implements detect.ObjectDetector: the backend under the
// policy, falling back on exhaustion. It never fails.
func (d *Detector) Detect(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	dets, _ := d.DetectCtx(d.base, v, labels)
	return dets
}

// DegradedFrames returns the sorted frame indices served degraded.
func (d *Detector) DegradedFrames() []int { return d.in.degradedUnits() }

// Recognizer wraps a fallible action recognition backend; the shot-
// level counterpart of Detector.
type Recognizer struct {
	*wrapper[video.ShotIdx, detect.ActionScore]
}

// NewRecognizer wraps backend under policy p.
func NewRecognizer(backend detect.FallibleActionRecognizer, p Policy, opt Options) *Recognizer {
	return &Recognizer{newWrapper(detect.Actions, backend, p, opt, opt.FallbackActions, opt.thresholds().Action, prior.scores)}
}

// Recognize implements detect.ActionRecognizer; it never fails.
func (r *Recognizer) Recognize(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	scores, _ := r.DetectCtx(r.base, s, labels)
	return scores
}

// DegradedShots returns the sorted shot indices served degraded.
func (r *Recognizer) DegradedShots() []int { return r.in.degradedUnits() }

// prior is the degradation fallback without a configured fallback
// model: it samples above-threshold results at the prior rate p0 — the
// bgprob "rare by default" assumption — deterministic per (seed, kind,
// label, unit).
type prior struct {
	seed    int64
	key     string // "prior/<salt>:", prefixed to each label's stream
	p0, thr float64
}

// detections samples a detection per (label, frame) at rate p0.
func (p prior) detections(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	var out []detect.Detection
	for _, label := range labels {
		key := detect.HashKey(p.seed, p.key+string(label), int64(v))
		if detect.UnitRand(key, 0) >= p.p0 {
			continue
		}
		out = append(out, detect.Detection{
			Label: label,
			Score: p.thr + (1-p.thr)*detect.UnitRand(key, 1),
		})
	}
	return out
}

// scores mirrors detections at the shot level: every requested label
// gets a score, above threshold with probability p0.
func (p prior) scores(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	out := make([]detect.ActionScore, len(labels))
	for i, label := range labels {
		key := detect.HashKey(p.seed, p.key+string(label), int64(s))
		score := p.thr * detect.UnitRand(key, 1)
		if detect.UnitRand(key, 0) < p.p0 {
			score = p.thr + (1-p.thr)*detect.UnitRand(key, 1)
		}
		out[i] = detect.ActionScore{Label: label, Score: score}
	}
	return out
}

// Models bundles a resilient detector/recognizer pair — what a session
// or ingest run threads through its engines.
type Models struct {
	Det *Detector
	Rec *Recognizer
}

// WrapFallible builds resilient wrappers over fallible backends (e.g.
// fault injectors). Plain simulators go through detect.AsFallibleObject
// and detect.AsFallibleAction first, which makes the wrap nearly free.
func WrapFallible(det detect.FallibleObjectDetector, rec detect.FallibleActionRecognizer, p Policy, opt Options) *Models {
	return &Models{
		Det: NewDetector(det, p, opt),
		Rec: NewRecognizer(rec, p, opt),
	}
}

// Stats sums the pair's counters through Stats.Add — the same
// aggregation path the serving daemon uses across sessions — so the
// detector+recognizer roll-up cannot drift from the /metricsz one;
// breaker state reports the worse of the two (open > half-open >
// closed).
func (m *Models) Stats() Stats {
	if m == nil {
		return Stats{BreakerState: StateClosed.String()}
	}
	out := m.Det.Stats()
	out.Add(m.Rec.Stats())
	return out
}

// Degraded reports whether any unit has been served degraded.
func (m *Models) Degraded() bool { return m.Stats().Fallbacks > 0 }

// sleepCtx waits for d unless ctx fires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
