// Package svaq implements the online case of the paper (§3): streaming
// algorithms SVAQ (Algorithm 1, static critical values) and SVAQD
// (Algorithm 3, dynamic background-probability updates) that identify
// the video-stream segments satisfying a query combining an action with
// object predicates.
//
// The engine consumes clips in order. For each clip it evaluates the
// per-predicate indicators of Algorithm 2 — counting positive
// per-frame object detections and per-shot action predictions against
// the scan-statistics critical values k_crit (§3.2) — combines them
// through the query's clauses (a conjunctive query is a list of
// singleton clauses; footnotes 3–4 add disjunctions and several
// actions) and merges consecutive positive clips into result sequences
// (Equation 4).
package svaq

import (
	"fmt"
	"slices"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/explain"
	"vaq/internal/interval"
	"vaq/internal/plan"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// Config tunes an Engine. The zero value is completed by sensible
// defaults in New.
type Config struct {
	// Thresholds are T_obj and T_act (§2); zero value uses
	// detect.DefaultThresholds.
	Thresholds detect.Thresholds
	// Alpha is the significance level of Equation 5 (default 0.05).
	Alpha float64
	// HorizonClips is the clip count whose occurrence units form the
	// scan statistic's total trial count N (default 2000). For bounded
	// videos, pass the video's clip count.
	HorizonClips int
	// Dynamic selects SVAQD: background probabilities are estimated
	// online (§3.3) and critical values recomputed as they move. False
	// selects SVAQ with fixed probabilities.
	Dynamic bool
	// P0Object / P0Action are the initial background probabilities. For
	// SVAQ they are final; for SVAQD they only seed the estimators
	// (default 1e-4, the paper's SVAQ operating point).
	P0Object float64
	P0Action float64
	// KernelU is the SVAQD kernel scale in occurrence units (default
	// 4000 frames for objects; the action estimator scales it by the
	// shot length so both kernels span the same wall-clock extent).
	KernelU float64
	// ShortCircuit skips the rest of a clip once one clause — one
	// predicate of a conjunctive query — fails (Algorithm 2 lines 6–8),
	// saving model invocations at the price of starving later
	// predicates' estimators on negative clips. The ablation bench
	// exercises both settings.
	ShortCircuit bool
	// AdaptiveOrder reorders the clause pipeline online by ascending
	// cost/(1−pass-rate) — the footnote 5 future work; see order.go.
	// Only meaningful with ShortCircuit.
	AdaptiveOrder bool
	// ExploreEvery forces every clause to be evaluated on every n-th
	// clip when both ShortCircuit and AdaptiveOrder are on, so the
	// pass-rate estimates of late-pipeline clauses stay fresh
	// (default 20).
	ExploreEvery int
	// ActionCostWeight scales the per-invocation cost of the action
	// recognizer relative to a frame detection when ranking predicates
	// (default 4: shot models are heavier; e.g. I3D vs Mask R-CNN
	// per-invocation latency).
	ActionCostWeight float64
	// MinK floors the critical values. The self-consistent background
	// estimation of SVAQD (estimators learn only from clips whose
	// counts are statistically consistent with background) needs k ≥ 2
	// to converge. Zero means auto: 2 for Dynamic engines, 1 otherwise.
	MinK int
	// RecomputeTol skips the critical-value recomputation while a
	// background probability stays within this relative distance of the
	// value it last used (default 0.02). Set negative to force
	// recomputation on every update.
	RecomputeTol float64
	// RecordIndicators keeps the per-frame / per-shot prediction
	// indicator streams for the query labels, enabling the FPR analysis
	// of Table 5. Off by default (memory proportional to stream length).
	// Incompatible with an enabled Plan (subsampled evaluation leaves
	// gaps in the streams).
	RecordIndicators bool
	// Plan enables coarse-to-fine adaptive sampling (package plan) for
	// the object and action predicates: each clip is first evaluated on
	// a sparse unit subsample and densified only while the scan-
	// statistic bounds leave the indicator undecided. Relation
	// predicates always run dense (they spend no model invocations).
	// The zero value evaluates densely; Plan.Rate == 1 runs the planner
	// machinery but is byte-identical to the dense path.
	Plan plan.Config
}

func (c Config) withDefaults() Config {
	if c.Thresholds == (detect.Thresholds{}) {
		c.Thresholds = detect.DefaultThresholds()
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.HorizonClips == 0 {
		c.HorizonClips = 2000
	}
	if c.P0Object == 0 {
		c.P0Object = 1e-4
	}
	if c.P0Action == 0 {
		c.P0Action = 1e-4
	}
	if c.KernelU == 0 {
		c.KernelU = 4000
	}
	if c.ExploreEvery == 0 {
		c.ExploreEvery = 20
	}
	if c.ActionCostWeight == 0 {
		c.ActionCostWeight = 4
	}
	return c
}

// trackerConfig translates the engine configuration for one predicate's
// LabelTracker.
func (c Config) trackerConfig(unitsPerClip int, p0, kernelU float64) TrackerConfig {
	return TrackerConfig{
		UnitsPerClip: unitsPerClip,
		HorizonClips: c.HorizonClips,
		Alpha:        c.Alpha,
		P0:           p0,
		Dynamic:      c.Dynamic,
		KernelU:      kernelU,
		MinK:         c.MinK,
		RecomputeTol: c.RecomputeTol,
	}
}

// Clause is one disjunction of simple predicates (footnotes 3–4): it is
// satisfied on a clip when at least one of its predicates has a positive
// indicator. A conjunctive query is a list of singleton clauses.
type Clause struct {
	// Objects and Actions list the clause's predicates; they are
	// evaluated in that order, each list in slice order.
	Objects []annot.Label
	Actions []annot.Label
}

// ClipResult reports the evaluation of one clip (Algorithm 2).
type ClipResult struct {
	Clip     video.ClipIdx
	Positive bool
	// Counts holds, per predicate in Engine.Predicates() order, the
	// number of occurrence units of the clip (frames; shots for actions)
	// with a positive prediction, or −1 for a predicate skipped by
	// short-circuiting. The slice belongs to the engine and is
	// overwritten by the next ProcessClip.
	Counts []int
	// Invocations counts model calls spent on this clip (object
	// detector calls plus action recognizer calls).
	Invocations int
}

// predKind distinguishes the three predicate families of the engine.
type predKind int

const (
	predObject predKind = iota
	predRelation
	predAction
)

// predicate is one distinct predicate of the query, built once at
// construction: its scan-statistics tracker and the probe that turns one
// occurrence unit of the clip being evaluated (an offset from first)
// into a prediction indicator.
type predicate struct {
	kind  predKind
	label annot.Label // object / action label; empty for relations
	name  string      // "obj:car", "rel:a near b", "act:run": spans, EXPLAIN, Order
	idx   int         // slot in Engine.preds and ClipResult.Counts
	trk   *LabelTracker
	probe func(offset int) (bool, error)
	first int // the clip's first unit (frame; shot for actions)

	positive bool   // this clip's indicator, valid while Counts[idx] ≥ 0
	log      []bool // indicator stream (RecordIndicators; not for relations)
}

// Engine processes one video stream for one query: a conjunction of
// clauses over a flat list of distinct predicates.
type Engine struct {
	det  detect.ObjectDetector
	rec  detect.ActionRecognizer
	geom video.Geometry
	cfg  Config

	preds []*predicate // construction order; each probed at most once per clip
	// clauses is the evaluation pipeline in its current order (order.go);
	// relAt is where WithRelations inserts relation clauses.
	clauses []*clause
	relAt   int
	counts  []int // backs ClipResult.Counts

	nextClip video.ClipIdx
	// seqs is the result set over the clips processed so far, extended
	// as each clip lands (see Sequences).
	seqs        interval.Set
	invocations int

	// planner outcome accounting (Config.Plan)
	planStats plan.Stats

	// tracing (AttachTrace); nil when untraced, and every handle is
	// nil-safe, so the stepping path pays only nil checks.
	tr        *trace.Tracer
	traceRoot trace.SpanID
	cFrames   *trace.Counter
	cShots    *trace.Counter
	cClips    *trace.Counter
	stClip    *trace.Stage

	// EXPLAIN collection (AttachExplain); nil when off — the collector
	// is nil-safe, the e.ex guards just skip building observations.
	ex *explain.Collector
}

// AttachTrace wires the engine to a tracer: every subsequent clip
// evaluation opens a span (parented under parent, e.g. a session or CLI
// root span) with one child span per evaluated predicate, in evaluation
// order, and the engine bumps the detect.*_invocations and svaq.clips
// counters. Call before the first ProcessClip; the engine is
// single-goroutine, so no synchronization is involved.
func (e *Engine) AttachTrace(tr *trace.Tracer, parent trace.SpanID) {
	e.tr, e.traceRoot = tr, parent
	e.cFrames = tr.Counter("detect.frame_invocations")
	e.cShots = tr.Counter("detect.shot_invocations")
	e.cClips = tr.Counter("svaq.clips")
	e.stClip = tr.Stage("svaq.clip")
}

// AttachExplain wires the engine to an EXPLAIN collector: every
// subsequent predicate evaluation and clip outcome is attributed to
// its decision source and invocation layer. Call before the first
// ProcessClip; a nil collector leaves collection off.
func (e *Engine) AttachExplain(c *explain.Collector) { e.ex = c }

// New builds an engine for the conjunctive query q over a stream with
// the given geometry, using the supplied models: one singleton clause
// per predicate in the paper's order — objects in query order, then any
// relations (WithRelations), then the action.
func New(q annot.Query, det detect.ObjectDetector, rec detect.ActionRecognizer, geom video.Geometry, cfg Config) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	clauses := make([]Clause, 0, len(q.Objects)+1)
	for _, o := range q.Objects {
		clauses = append(clauses, Clause{Objects: []annot.Label{o}})
	}
	if q.Action != "" {
		clauses = append(clauses, Clause{Actions: []annot.Label{q.Action}})
	}
	e, err := NewClauses(clauses, det, rec, geom, cfg)
	if err != nil {
		return nil, err
	}
	e.relAt = len(q.Objects)
	return e, nil
}

// NewClauses builds an engine for a conjunction of clauses (footnotes
// 3–4: several actions, disjunctions). A clip is positive when every
// clause is; a label named by several clauses is one predicate with one
// tracker, probed at most once per clip.
func NewClauses(clauses []Clause, det detect.ObjectDetector, rec detect.ActionRecognizer, geom video.Geometry, cfg Config) (*Engine, error) {
	if len(clauses) == 0 {
		return nil, fmt.Errorf("svaq: query has no clauses")
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Plan.Enabled() && cfg.RecordIndicators {
		return nil, fmt.Errorf("svaq: RecordIndicators requires dense evaluation; disable Plan (Rate %d) to record indicator streams", cfg.Plan.Rate)
	}
	e := &Engine{det: det, rec: rec, geom: geom, cfg: cfg.withDefaults()}
	for _, cl := range clauses {
		if len(cl.Objects) == 0 && len(cl.Actions) == 0 {
			return nil, fmt.Errorf("svaq: empty clause")
		}
		preds := make([]*predicate, 0, len(cl.Objects)+len(cl.Actions))
		for _, group := range []struct {
			kind   predKind
			labels []annot.Label
		}{{predObject, cl.Objects}, {predAction, cl.Actions}} {
			for _, l := range group.labels {
				p, err := e.labelPredicate(group.kind, l)
				if err != nil {
					return nil, err
				}
				preds = append(preds, p)
			}
		}
		e.clauses = append(e.clauses, e.newClause(preds))
	}
	e.relAt = len(e.clauses)
	return e, nil
}

// labelPredicate returns the engine's predicate for an object or action
// label, building it on first use.
func (e *Engine) labelPredicate(kind predKind, l annot.Label) (*predicate, error) {
	if p := e.find(kind, l); p != nil {
		return p, nil
	}
	labels := []annot.Label{l}
	if kind == predAction {
		if e.rec == nil {
			return nil, fmt.Errorf("svaq: query has an action predicate %q but no action recognizer", l)
		}
		rec, thr := e.rec, e.cfg.Thresholds.Action
		// The prediction indicator 1_{a}(s).
		return e.addPredicate(kind, l, "act:"+string(l), func(s int) bool {
			for _, a := range rec.Recognize(video.ShotIdx(s), labels) {
				if a.Label == l && a.Score >= thr {
					return true
				}
			}
			return false
		})
	}
	if e.det == nil {
		return nil, fmt.Errorf("svaq: query has an object predicate %q but no object detector", l)
	}
	det, thr := e.det, e.cfg.Thresholds.Object
	// The prediction indicator 1_{o}(v): whether any detection of label
	// o on frame v scores at least T_obj.
	return e.addPredicate(kind, l, "obj:"+string(l), func(v int) bool {
		for _, d := range det.Detect(video.FrameIdx(v), labels) {
			if d.Label == l && d.Score >= thr {
				return true
			}
		}
		return false
	})
}

// addPredicate appends a predicate with a fresh tracker; probe maps an
// absolute unit to its prediction indicator. Object and relation
// trackers count frames; the action tracker works in shots, its kernel
// scaled to span the same wall-clock extent.
func (e *Engine) addPredicate(kind predKind, l annot.Label, name string, probe func(unit int) bool) (*predicate, error) {
	tc := e.cfg.trackerConfig(e.geom.ClipLen(), e.cfg.P0Object, e.cfg.KernelU)
	if kind == predAction {
		tc = e.cfg.trackerConfig(e.geom.ShotsPerClip, e.cfg.P0Action, max(e.cfg.KernelU/float64(e.geom.ShotLen), 1))
	}
	lt, err := NewLabelTracker(tc)
	if err != nil {
		return nil, fmt.Errorf("svaq: %s: %w", name, err)
	}
	p := &predicate{kind: kind, label: l, name: name, idx: len(e.preds), trk: lt}
	record := e.cfg.RecordIndicators && kind != predRelation
	p.probe = func(off int) (bool, error) {
		pos := probe(p.first + off)
		if record { // dense only, so the stream stays in unit order
			p.log = append(p.log, pos)
		}
		return pos, nil
	}
	e.preds = append(e.preds, p)
	e.counts = append(e.counts, -1)
	return p, nil
}

// find returns the predicate of the given kind and label, or nil.
func (e *Engine) find(kind predKind, l annot.Label) *predicate {
	for _, p := range e.preds {
		if p.kind == kind && p.label == l {
			return p
		}
	}
	return nil
}

// soleAction returns the action predicate when the query has exactly
// one, else nil.
func (e *Engine) soleAction() *predicate {
	var act *predicate
	for _, p := range e.preds {
		if p.kind == predAction {
			if act != nil {
				return nil
			}
			act = p
		}
	}
	return act
}

// Predicates lists the engine's distinct predicates by name ("obj:car",
// "rel:a near b", "act:run") in construction order — the order of
// ClipResult.Counts.
func (e *Engine) Predicates() []string {
	out := make([]string, len(e.preds))
	for i, p := range e.preds {
		out[i] = p.name
	}
	return out
}

// CriticalValues returns the current per-object critical values, and
// the action critical value when the query has exactly one action
// predicate (0 otherwise).
func (e *Engine) CriticalValues() (obj map[annot.Label]int, act int) {
	obj = make(map[annot.Label]int, len(e.preds))
	for _, p := range e.preds {
		if p.kind == predObject {
			obj[p.label] = p.trk.K()
		}
	}
	if p := e.soleAction(); p != nil {
		act = p.trk.K()
	}
	return obj, act
}

// ProcessClip evaluates the next clip of the stream (clips must be fed
// in order starting at 0) and returns its evaluation.
func (e *Engine) ProcessClip(c video.ClipIdx) (ClipResult, error) {
	if c != e.nextClip {
		return ClipResult{}, fmt.Errorf("svaq: clips must be processed in order: got %d, want %d", c, e.nextClip)
	}
	e.nextClip++
	res, err := e.evaluateClip(c)
	if err != nil {
		return ClipResult{}, err
	}
	if res.Positive {
		if n := len(e.seqs); n > 0 && e.seqs[n-1].Hi == int(c)-1 {
			e.seqs[n-1].Hi++
		} else {
			e.seqs = append(e.seqs, interval.Interval{Lo: int(c), Hi: int(c)})
		}
	}
	e.invocations += res.Invocations
	return res, nil
}

// evaluateClip is Algorithm 2 over clauses: per-predicate indicators on
// clip c, ORed within a clause and ANDed across clauses, optionally
// short-circuiting after the first failed clause. The pipeline order is
// the query order unless Config.AdaptiveOrder is on.
func (e *Engine) evaluateClip(c video.ClipIdx) (ClipResult, error) {
	if e.cfg.AdaptiveOrder {
		e.reorder()
	}
	var clipSpan *trace.Span
	if e.tr != nil {
		clipSpan = e.tr.StartSpan("svaq.clip", e.traceRoot)
		clipSpan.SetInt("clip", int64(c))
		clipStart := time.Now()
		defer func() {
			e.cClips.Add(1)
			e.stClip.Observe(time.Since(clipStart))
			clipSpan.End()
		}()
	}
	for i := range e.counts {
		e.counts[i] = -1
	}
	res := ClipResult{Clip: c, Positive: true, Counts: e.counts}
	// Exploration clips evaluate everything so late-pipeline pass-rate
	// estimates stay fresh under adaptive ordering.
	shortCircuit := e.cfg.ShortCircuit
	if e.cfg.AdaptiveOrder && shortCircuit && int(c)%e.cfg.ExploreEvery == 0 {
		shortCircuit = false
	}
	for _, cl := range e.clauses {
		if !res.Positive && shortCircuit {
			return res, nil
		}
		positive := false
		for _, p := range cl.preds {
			if res.Counts[p.idx] < 0 { // not yet probed on this clip
				var predSpan *trace.Span
				if e.tr != nil {
					predSpan = e.tr.StartSpan(p.name, clipSpan.ID())
				}
				err := e.evalPredicate(p, c, &res)
				predSpan.End()
				if err != nil {
					return res, err
				}
			}
			positive = positive || p.positive
		}
		cl.observePass(positive)
		if !positive {
			// The first failing clause settles the clip; attribute the
			// rejection to its decision machinery (relations always run
			// dense, so they reject via the scan statistic even when the
			// planner is armed).
			if res.Positive && e.ex != nil {
				if e.planned(cl.preds[0]) {
					e.ex.ClipOutcome(explain.ClipPlanPrune)
				} else {
					e.ex.ClipOutcome(explain.ClipScanReject)
				}
			}
			res.Positive = false
		}
	}
	if res.Positive && e.ex != nil {
		if e.cfg.Plan.Enabled() {
			e.ex.ClipOutcome(explain.ClipPlanAccept)
		} else {
			e.ex.ClipOutcome(explain.ClipScanAccept)
		}
	}
	return res, nil
}

// planned reports whether p is evaluated through the sampling planner.
func (e *Engine) planned(p *predicate) bool {
	return e.cfg.Plan.Enabled() && p.kind != predRelation
}

// unitsOf returns p's occurrence units on clip c — the first unit and
// their number: frames, or shots for an action — and the invocation
// counter they are charged to.
func (e *Engine) unitsOf(p *predicate, c video.ClipIdx) (first, w int, units *trace.Counter) {
	if p.kind == predAction {
		lo, hi := e.geom.ShotRangeOfClip(c)
		return int(lo), int(hi - lo), e.cShots
	}
	lo, hi := e.geom.FrameRangeOfClip(c)
	return int(lo), int(hi - lo), e.cFrames
}

// evalPredicate computes one predicate's indicator on clip c through the
// planner's ladder — the single dense rung unless the predicate is
// planned — and feeds its tracker, the clip result, the invocation
// counters and EXPLAIN.
func (e *Engine) evalPredicate(p *predicate, c video.ClipIdx, res *ClipResult) error {
	first, w, units := e.unitsOf(p, c)
	var pcfg plan.Config
	if e.planned(p) {
		pcfg = e.cfg.Plan
	}
	p.first = first
	pr, err := pcfg.Evaluate(w, p.trk.K(), p.trk.P(), p.probe)
	if err != nil {
		return fmt.Errorf("svaq: %s: %w", p.name, err)
	}
	obs := explain.PredObservation{Name: p.name, Units: pr.Sampled, Positive: pr.Positive}
	if pcfg.Enabled() {
		e.planStats.Observe(w, pr)
		obs.Planned, obs.BaseUnits, obs.Rungs, obs.Reason = true, pr.BaseSampled, pr.Rungs, pr.Reason
	}
	p.positive = pr.Positive
	res.Invocations += pr.Sampled
	units.Add(int64(pr.Sampled))
	res.Counts[p.idx] = pr.Count
	if err := p.trk.ObserveRun(pr.Sampled, pr.Count); err != nil {
		return fmt.Errorf("svaq: %s: %w", p.name, err)
	}
	if e.ex != nil {
		e.ex.ObservePredicate(obs)
	}
	return nil
}

// Run processes clips 0..nclips−1 and returns the result sequences.
func (e *Engine) Run(nclips int) (interval.Set, error) {
	for c := e.nextClip; int(c) < nclips; c++ {
		if _, err := e.ProcessClip(c); err != nil {
			return nil, err
		}
	}
	return e.Sequences(), nil
}

// Sequences returns the result sequences over the clips processed so
// far: maximal runs of positive clips (Equation 4). The set is kept as
// clips land, so this is a copy of it, not a pass over every clip.
func (e *Engine) Sequences() interval.Set {
	return slices.Clone(e.seqs)
}

// Invocations returns the total number of model invocations so far
// (frame detections plus shot recognitions).
func (e *Engine) Invocations() int { return e.invocations }

// PlanStats reports the adaptive sampling planner's outcome counters
// (zero value when Config.Plan is disabled).
func (e *Engine) PlanStats() plan.Stats { return e.planStats }

// ClipsProcessed returns the number of clips consumed so far (the next
// clip expected by ProcessClip).
func (e *Engine) ClipsProcessed() int { return int(e.nextClip) }

// ObjectIndicators returns the recorded per-frame indicator stream of
// an object predicate (nil unless Config.RecordIndicators was set).
func (e *Engine) ObjectIndicators(o annot.Label) []bool {
	if p := e.find(predObject, o); p != nil {
		return p.log
	}
	return nil
}

// ActionIndicators returns the recorded per-shot indicator stream of
// the query's single action predicate (nil unless
// Config.RecordIndicators was set).
func (e *Engine) ActionIndicators() []bool {
	if p := e.soleAction(); p != nil {
		return p.log
	}
	return nil
}
