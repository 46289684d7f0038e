// Package vaq is a Go implementation of "Querying For Actions Over
// Videos" (Chao and Koudas, EDBT 2024): declarative queries over videos
// whose predicates combine an action with object presence, answered
//
//   - online over streams with the SVAQ / SVAQD algorithms (scan-
//     statistics clip indicators with optional dynamic background
//     estimation), and
//   - offline over pre-ingested repositories with the RVAQ top-k
//     algorithm (bounded, skip-pruned ranking over clip score tables).
//
// The package is a thin facade over the internal engine. A typical
// online session:
//
//	plan, _ := vaq.ParseQuery(`SELECT MERGE(clipID) AS Sequence
//	    FROM (PROCESS cam PRODUCE clipID, obj USING ObjectDetector,
//	          act USING ActionRecognizer)
//	    WHERE act = 'blowing_leaves' AND obj.include('car')`)
//	stream, _ := vaq.NewStream(plan, det, rec, vaq.DefaultGeometry(), vaq.StreamConfig{Dynamic: true})
//	seqs, _ := stream.Run(nclips)
//
// and an offline one:
//
//	repo, _ := vaq.OpenRepository(dir)
//	results, stats, _ := repo.TopKOpts("movie", query, 5, vaq.ExecOptions{})
//
// Detection models plug in through the ObjectDetector / ActionRecognizer
// interfaces; the repository ships calibrated simulated models (see
// package detect) standing in for Mask R-CNN, YOLOv3, I3D and
// CenterTrack.
package vaq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/explain"
	"vaq/internal/infer"
	"vaq/internal/ingest"
	"vaq/internal/interval"
	"vaq/internal/plan"
	"vaq/internal/pool"
	"vaq/internal/rvaq"
	"vaq/internal/score"
	"vaq/internal/svaq"
	"vaq/internal/temporal"
	"vaq/internal/trace"
	"vaq/internal/video"
	"vaq/internal/vql"
)

// Re-exported vocabulary types.
type (
	// Label names an object type or action category.
	Label = annot.Label
	// Query is a conjunctive query: one action plus object predicates.
	Query = annot.Query
	// Geometry fixes the frame/shot/clip structure.
	Geometry = video.Geometry
	// Sequence is an inclusive clip-id range — one query result.
	Sequence = interval.Interval
	// Sequences is a normalized set of result sequences.
	Sequences = interval.Set
	// ObjectDetector and ActionRecognizer are the pluggable model
	// interfaces.
	ObjectDetector = detect.ObjectDetector
	// ActionRecognizer recognizes actions on shots.
	ActionRecognizer = detect.ActionRecognizer
	// StreamConfig tunes the online engine (SVAQ when Dynamic is false,
	// SVAQD when true).
	StreamConfig = svaq.Config
	// PlanConfig arms the coarse-to-fine adaptive sampling planner
	// (StreamConfig.Plan, IngestConfig-level planning and the vaqd
	// -plan-rate/-plan-levels flags all speak this type).
	PlanConfig = plan.Config
	// PlanStats reports planner outcomes (clips decided sparsely vs
	// densified, units sampled vs dense cost).
	PlanStats = plan.Stats
	// Plan is a compiled VQL statement.
	Plan = vql.Plan
	// TopKResult is one ranked offline result.
	TopKResult = rvaq.SeqResult
	// TopKStats reports the cost of an offline query.
	TopKStats = rvaq.Stats
)

// DefaultGeometry mirrors the paper's Figure 1 structure: 50-frame
// clips of five 10-frame shots at 30 fps.
func DefaultGeometry() Geometry { return video.DefaultGeometry() }

// ParseQuery parses and compiles a VQL statement.
func ParseQuery(src string) (*Plan, error) { return vql.ParseAndCompile(src) }

// Stream runs an online query over a clip stream.
type Stream struct {
	eng *svaq.Engine
}

// NewStream builds the online SVAQ/SVAQD engine for a compiled plan.
// Pure conjunctions are laid out in the paper's order — objects, any
// rel(...) predicates as relation trackers (footnote 2), the action;
// plans with disjunctions or multiple actions run their CNF clauses in
// plan order (footnotes 3–4). Relation predicates inside disjunctions
// are not supported.
func NewStream(plan *Plan, det ObjectDetector, rec ActionRecognizer, geom Geometry, cfg StreamConfig, opts ...StreamOption) (*Stream, error) {
	if plan == nil {
		return nil, fmt.Errorf("vaq: nil plan")
	}
	det, rec = applyStreamOptions(det, rec, opts)
	if q, relPreds, ok := plan.SimpleQueryWithRelations(); ok {
		eng, err := svaq.New(q, det, rec, geom, cfg)
		if err != nil {
			return nil, err
		}
		rels := make([]detect.Relation, 0, len(relPreds))
		for _, rp := range relPreds {
			kind, err := detect.ParseRelationKind(rp.RelKind)
			if err != nil {
				return nil, err
			}
			rels = append(rels, detect.Relation{A: rp.RelA, B: rp.RelB, Kind: kind})
		}
		if err := eng.WithRelations(rels); err != nil {
			return nil, err
		}
		return &Stream{eng: eng}, nil
	}
	clauses := make([]svaq.Clause, 0, len(plan.CNF))
	for _, clause := range plan.CNF {
		var cl svaq.Clause
		for _, pred := range clause {
			switch pred.Kind {
			case vql.ActionPred:
				cl.Actions = append(cl.Actions, pred.Label)
			case vql.ObjectPred:
				cl.Objects = append(cl.Objects, pred.Label)
			default:
				return nil, fmt.Errorf("vaq: relation predicates are not supported inside disjunctions")
			}
		}
		clauses = append(clauses, cl)
	}
	eng, err := svaq.NewClauses(clauses, det, rec, geom, cfg)
	if err != nil {
		return nil, err
	}
	return &Stream{eng: eng}, nil
}

// NewStreamQuery builds the online engine directly from a conjunctive
// query, bypassing VQL.
func NewStreamQuery(q Query, det ObjectDetector, rec ActionRecognizer, geom Geometry, cfg StreamConfig, opts ...StreamOption) (*Stream, error) {
	det, rec = applyStreamOptions(det, rec, opts)
	eng, err := svaq.New(q, det, rec, geom, cfg)
	if err != nil {
		return nil, err
	}
	return &Stream{eng: eng}, nil
}

// StreamOption configures how a Stream reaches its models.
type StreamOption func(*streamOptions)

type streamOptions struct {
	si *SharedInference
}

// WithSharedInference routes the stream's model invocations through a
// SharedInference domain: concurrent streams wrapping the same backends
// coalesce duplicate in-flight calls, share the memoized results and
// ride the same micro-batches. Streams passing the same
// SharedInference must wrap interchangeable backends (same scene per
// backend name).
func WithSharedInference(si *SharedInference) StreamOption {
	return func(o *streamOptions) { o.si = si }
}

func applyStreamOptions(det ObjectDetector, rec ActionRecognizer, opts []StreamOption) (ObjectDetector, ActionRecognizer) {
	var o streamOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if o.si != nil {
		det = o.si.WrapDetector(det)
		rec = o.si.WrapRecognizer(rec)
	}
	return det, rec
}

// SharedInferenceConfig sizes a SharedInference domain; see
// docs/INFERENCE.md for tuning guidance. The zero value enables dedup
// only (no cache, no batching).
type SharedInferenceConfig struct {
	// CacheCapacity bounds the memo's resident entries (one per
	// (backend, unit, label) key); <= 0 keeps none resident.
	CacheCapacity int
	// BatchWindow holds the first invocation of a micro-batch open
	// waiting for same-label-list companions; <= 0 disables batching.
	BatchWindow time.Duration
	// BatchMax caps units per vectorized call (default 16).
	BatchMax int
	// Tracer receives the infer.* counters and stage sketches.
	Tracer *Tracer
}

// InferenceStats snapshots a SharedInference domain's counters.
type InferenceStats = infer.Stats

// SharedInference is a shared-inference domain for library users: one
// memo and one batch accumulator shared by every
// stream built with WithSharedInference. The serving daemon builds its
// own domains per (workload, scale, model) — this facade is for
// embedding the engines directly.
type SharedInference struct {
	sh  *infer.Shared
	mu  sync.Mutex
	obj map[string]*infer.ObjectFlight
	act map[string]*infer.ActionFlight
}

// NewSharedInference builds a domain from cfg. Invalid batching
// parameters (a negative BatchMax or BatchWindow) are configuration
// bugs and are rejected here, before any stream is built on the
// domain.
func NewSharedInference(cfg SharedInferenceConfig) (*SharedInference, error) {
	sh, err := infer.New(infer.Config{
		CacheCapacity: cfg.CacheCapacity,
		BatchWindow:   cfg.BatchWindow,
		BatchMax:      cfg.BatchMax,
		Tracer:        cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &SharedInference{
		sh:  sh,
		obj: make(map[string]*infer.ObjectFlight),
		act: make(map[string]*infer.ActionFlight),
	}, nil
}

// Stats snapshots the domain's hit/miss/coalesce/batch counters.
func (si *SharedInference) Stats() InferenceStats { return si.sh.Stats() }

// WrapDetector routes det through the domain. The first detector seen
// under each Name() becomes the domain's backend for that name; later
// detectors with the same name share its memo entries and batches (they
// must be interchangeable). Single-label calls are memoized for any
// detector. A multi-label call is served from per-label entries only
// when det declares, with a PerLabelConcat() method as the simulators
// do, that its result is each label's own result concatenated in call
// order; otherwise it reaches det unchanged.
func (si *SharedInference) WrapDetector(det ObjectDetector) ObjectDetector {
	return flightFor(si, si.obj, det.Name(), func() *infer.ObjectFlight {
		return si.sh.ObjectFlight(det.Name(), infer.FallibleSource(si.sh.Object(detect.AsFallibleObject(det))))
	}).Bind(context.Background())
}

// WrapRecognizer routes rec through the domain (see WrapDetector).
func (si *SharedInference) WrapRecognizer(rec ActionRecognizer) ActionRecognizer {
	return flightFor(si, si.act, rec.Name(), func() *infer.ActionFlight {
		return si.sh.ActionFlight(rec.Name(), infer.FallibleSource(si.sh.Action(detect.AsFallibleAction(rec))))
	}).Bind(context.Background())
}

// flightFor is the domain's flight for the backend name, built by mk
// on the name's first use.
func flightFor[F any](si *SharedInference, flights map[string]F, name string, mk func() F) F {
	si.mu.Lock()
	defer si.mu.Unlock()
	f, ok := flights[name]
	if !ok {
		f = mk()
		flights[name] = f
	}
	return f
}

// Tracer re-exports the observability tracer (package internal/trace):
// bounded span retention, named counters and per-stage latency sketches.
// A nil *Tracer is valid everywhere and records nothing.
type Tracer = trace.Tracer

// NewTracer builds a tracer with the default span capacity.
func NewTracer() *Tracer { return trace.New() }

// AttachTrace wires the stream to a tracer: every subsequent clip
// evaluation records an "svaq.clip" span (with one child span per
// evaluated predicate) under the given parent, bumps the detector
// invocation counters and feeds the "svaq.clip" stage sketch. A nil
// tracer detaches nothing and records nothing. Call before ProcessClip.
func (s *Stream) AttachTrace(tr *Tracer, parent trace.SpanID) { s.eng.AttachTrace(tr, parent) }

// ExplainCollector accumulates one query's EXPLAIN profile (package
// internal/explain): every settled clip attributed to its decision
// source, every detector invocation to the layer that issued it, and —
// for top-k — the τ_top / B_lo^K bound trajectory. A nil
// *ExplainCollector is valid everywhere and records nothing, so
// collection costs only nil checks when off.
type ExplainCollector = explain.Collector

// ExplainProfile is one query's assembled EXPLAIN record; see
// docs/EXPLAIN.md for the schema and decision taxonomy.
type ExplainProfile = explain.Profile

// NewExplainCollector builds a collector for one query. kind labels the
// profile: "online" for stream sessions, "topk" for offline queries.
func NewExplainCollector(kind string) *ExplainCollector { return explain.NewCollector(kind) }

// RenderExplain writes a profile as the human-readable tree the CLIs
// print under -explain.
func RenderExplain(w io.Writer, p ExplainProfile) { explain.Render(w, p) }

// AttachExplain wires the stream to an EXPLAIN collector: every
// subsequent clip evaluation attributes its outcome and detector units
// to the profile. A nil collector records nothing. Call before
// ProcessClip.
func (s *Stream) AttachExplain(c *ExplainCollector) { s.eng.AttachExplain(c) }

// ProcessClip evaluates the next clip (fed in order from 0) and reports
// whether it satisfies the query.
func (s *Stream) ProcessClip(c int) (bool, error) {
	res, err := s.eng.ProcessClip(video.ClipIdx(c))
	return res.Positive, err
}

// Run processes clips 0..nclips−1 and returns the result sequences.
func (s *Stream) Run(nclips int) (Sequences, error) { return s.eng.Run(nclips) }

// Results returns the result sequences over the clips processed so far.
func (s *Stream) Results() Sequences { return s.eng.Sequences() }

// ClipsProcessed returns the number of clips consumed so far — the
// next clip index ProcessClip expects. Serving layers use this to
// report session progress without driving the stream.
func (s *Stream) ClipsProcessed() int { return s.eng.ClipsProcessed() }

// Invocations returns the total model invocations spent so far (frame
// detections plus shot recognitions).
func (s *Stream) Invocations() int { return s.eng.Invocations() }

// CriticalValues returns the current per-object critical values of the
// scan statistic (§3.2), and the action critical value when the plan has
// exactly one action predicate (0 otherwise).
func (s *Stream) CriticalValues() (map[Label]int, int) { return s.eng.CriticalValues() }

// Engine exposes the underlying engine for diagnostics (critical
// values, background probabilities, pipeline order); never nil.
func (s *Stream) Engine() *svaq.Engine { return s.eng }

// PlanStats reports the adaptive sampling planner's outcomes so far;
// the zero value when StreamConfig.Plan is disabled.
func (s *Stream) PlanStats() PlanStats { return s.eng.PlanStats() }

// SequencePair is one composite temporal match between two queries'
// result sequences.
type SequencePair = temporal.Pair

// Then pairs result sequences of two queries where a b-sequence starts
// within maxGap clips after an a-sequence ends — composing actions over
// time, the §7 future-work direction ("loading, then driving off").
func Then(a, b Sequences, maxGap int) []SequencePair { return temporal.Then(a, b, maxGap) }

// During pairs b-sequences fully contained in an a-sequence.
func During(a, b Sequences) []SequencePair { return temporal.During(a, b) }

// OverlapSeqs pairs sequences sharing at least minOverlap clips.
func OverlapSeqs(a, b Sequences, minOverlap int) []SequencePair {
	return temporal.Overlap(a, b, minOverlap)
}

// SpanOf merges composite pairs into the single clip ranges they cover.
func SpanOf(pairs []SequencePair) Sequences { return temporal.Spans(pairs) }

// IngestConfig tunes the offline ingestion phase.
type IngestConfig = ingest.Config

// VideoData is one ingested video's materialized metadata.
type VideoData = ingest.VideoData

// IngestVideo runs the one-time ingestion phase (§4.2) over a video:
// per-label clip score tables and individual sequences for every label
// the models support.
func IngestVideo(det ObjectDetector, rec ActionRecognizer, meta video.Meta, objLabels, actLabels []Label, cfg IngestConfig) (*VideoData, error) {
	return ingest.Video(det, rec, meta, objLabels, actLabels, cfg)
}

// IngestVideoCtx is IngestVideo with cancellation and tracing: when ctx
// carries a tracer (trace.NewContext), the run records "ingest.video" /
// "ingest.infer" / "ingest.stats" spans ("ingest.plan" in place of the
// last two when cfg.Plan is armed) and the detector invocation counters.
func IngestVideoCtx(ctx context.Context, det ObjectDetector, rec ActionRecognizer, meta video.Meta, objLabels, actLabels []Label, cfg IngestConfig) (*VideoData, error) {
	return ingest.VideoCtx(ctx, det, rec, meta, objLabels, actLabels, cfg)
}

// TopKVideo runs RVAQ directly against one ingested video's metadata
// (no repository needed).
func TopKVideo(vd *VideoData, q Query, k int) ([]TopKResult, TopKStats, error) {
	return rvaq.TopK(vd, q, k, rvaq.DefaultOptions())
}

// Repository is a directory of ingested videos answering ad-hoc top-k
// queries.
type Repository struct {
	repo *ingest.Repository
}

// OpenRepository opens (or creates) a repository directory.
func OpenRepository(dir string) (*Repository, error) {
	r, err := ingest.OpenRepository(dir)
	if err != nil {
		return nil, err
	}
	return &Repository{repo: r}, nil
}

// Add persists an ingested video into the repository.
func (r *Repository) Add(name string, vd *VideoData) error { return r.repo.Add(name, vd) }

// Remove deletes a video from the repository.
func (r *Repository) Remove(name string) error { return r.repo.Remove(name) }

// Videos lists the repository's video names.
func (r *Repository) Videos() []string { return r.repo.Names() }

// ErrVideoNotFound reports that a named video has no metadata in the
// repository — either it was never added, or a concurrent Remove won
// the race after the video list was snapshotted.
var ErrVideoNotFound = errors.New("vaq: video not in repository")

// WorkerPool is a bounded, context-aware worker semaphore. The serving
// daemon shares one pool between its online sessions and the offline
// query paths so both compete for the same concurrency budget.
type WorkerPool = pool.Pool

// NewWorkerPool sizes a pool; n <= 0 picks runtime.GOMAXPROCS(0).
func NewWorkerPool(n int) *WorkerPool { return pool.New(n) }

// ExecOptions tunes the offline execution layer: which context bounds
// a query and how its per-video work fans out.
type ExecOptions struct {
	// Ctx cancels the query between algorithm iterations; nil means
	// context.Background().
	Ctx context.Context
	// Workers bounds how many per-video executions run at once when
	// Pool is nil: 0 picks runtime.GOMAXPROCS(0), 1 runs them one at a
	// time. It sets the fan-out width only, never the algorithm.
	Workers int
	// Pool, when non-nil, draws worker slots from a shared semaphore
	// instead of a private one, so offline queries compete with other
	// work for the same bounded concurrency (the serving daemon passes
	// its session pool here).
	Pool *WorkerPool
	// Deadline bounds the whole query (pool wait included); 0 means no
	// deadline beyond what Ctx already carries.
	Deadline time.Duration
	// Partial turns a deadline expiry into a partial answer instead of
	// an error: the query returns the best-so-far ranking with
	// TopKStats.Incomplete set (see rvaq.Options.Partial). A query that
	// never got to run (deadline spent waiting for a worker slot)
	// returns empty results, still flagged Incomplete.
	Partial bool
	// Densifiers supplies per-video exact-score completion on planned
	// repositories (metadata ingested with IngestConfig.Plan): keyed by
	// video name, each recomputes one clip's exact score from the source
	// video (see NewDensifier). With a video's densifier present its
	// top-k results are exact; without one, planned runs return sound
	// lower-bound rankings with TopKStats.Bounded set.
	Densifiers map[string]Densify
	// HopDiscounts down-weights clips the repository marked degraded at
	// ingest time (their model outputs came from the resilience fallback
	// chain): entry h−1 is the discount d for clips whose worst degraded
	// unit was served by fallback hop h, so lightly-degraded clips keep
	// more of their score than prior-only ones. A degraded clip's score
	// is multiplied by (1 − d) and matching results carry
	// TopKResult.Degraded. Hops past the table clamp to the last entry;
	// units with no recorded hop take the worst entry, so [d] is a flat
	// discount. Empty disables.
	HopDiscounts []float64
	// Explain, when non-nil, collects the query's EXPLAIN profile
	// (bound trajectory, pruning, cache and access attribution). Global
	// and multi-video paths share the one collector across shards.
	Explain *ExplainCollector
	// Bound, when non-nil, joins the query to an external B_lo^K bound
	// exchange — the hook the sharded serving tier uses to let separate
	// vaqd processes prune each other (docs/SHARDING.md): the run
	// publishes its top-k lower bounds into the exchange and prunes
	// with its Bound(), which a coordinator may have raised from remote
	// shards' progress via BoundExchange.Raise. Bounds only travel
	// through the exchange conservatively, so results are identical
	// with or without it. TopKGlobalOpts uses the exchange directly as
	// its cross-video bound (instead of a private one); TopKOpts joins
	// it as one shard.
	Bound *BoundExchange
}

func (eo ExecOptions) ctx() context.Context {
	if eo.Ctx == nil {
		return context.Background()
	}
	return eo.Ctx
}

// queryCtx applies the deadline (if any) on top of the base context;
// call once per query entry point and defer the cancel.
func (eo ExecOptions) queryCtx() (context.Context, context.CancelFunc) {
	if eo.Deadline > 0 {
		return context.WithTimeout(eo.ctx(), eo.Deadline)
	}
	return eo.ctx(), func() {}
}

// BoundExchange is a cross-shard B_lo^K bound exchange
// (rvaq.GlobalBound): executions joined to one exchange publish the
// lower bounds of their current top-k and prune with the k-th largest
// bound across every participant. The serving tier generalizes it over
// the wire — each shard process owns one exchange per in-flight query
// and a coordinator folds remote shards' exported bounds in through
// Raise. All methods are safe for concurrent use.
type BoundExchange = rvaq.GlobalBound

// NewBoundExchange builds an exchange for a top-k query.
func NewBoundExchange(k int) *BoundExchange { return rvaq.NewGlobalBound(k) }

// Densify recomputes one clip's exact score from the source video — the
// completion step of a top-k over a planned repository. Build one with
// NewDensifier.
type Densify = func(cid int32) (float64, error)

// NewDensifier builds a clip densifier for one video of a planned
// repository: given the same detectors the ingest ran (wrap them in a
// SharedInference so re-reads of already-sampled units hit the score
// cache), it recomputes the queried predicates' exact clip score from
// every unit. Pass it through ExecOptions.Densifiers.
func NewDensifier(vd *VideoData, det ObjectDetector, rec ActionRecognizer, q Query) (Densify, error) {
	return ingest.NewDensifier(vd, det, rec, q, score.Functions{})
}

// rvaqOptions builds the per-execution rvaq options for one video.
func (eo ExecOptions) rvaqOptions(videoName string) rvaq.Options {
	opts := rvaq.DefaultOptions()
	opts.Partial = eo.Partial
	opts.HopDiscounts = eo.HopDiscounts
	opts.Densify = eo.Densifiers[videoName]
	opts.Explain = eo.Explain
	// An external exchange joins this execution as shard 0;
	// TopKGlobalOpts overrides both fields per video.
	opts.Bound = eo.Bound
	return opts
}

// partialOnDeadline converts a deadline expiry into the empty partial
// result when Partial is set: the query never produced a ranking (e.g.
// the deadline fired while queued for a worker slot), which is the
// degenerate incomplete answer, not a failure.
func (eo ExecOptions) partialOnDeadline(err error, stats *TopKStats) (handled bool) {
	if !eo.Partial || !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	stats.Incomplete = true
	return true
}

// workers resolves the effective fan-out width.
func (eo ExecOptions) workers() int {
	if eo.Pool != nil {
		return eo.Pool.Cap()
	}
	if eo.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return eo.Workers
}

func (eo ExecOptions) pool() *WorkerPool {
	if eo.Pool != nil {
		return eo.Pool
	}
	return pool.New(eo.workers())
}

// TopKOpts runs RVAQ against one video of the repository: the run
// holds one slot of the worker pool (if any) and honours cancellation.
func (r *Repository) TopKOpts(videoName string, q Query, k int, eo ExecOptions) ([]TopKResult, TopKStats, error) {
	vd, ok := r.repo.Video(videoName)
	if !ok {
		return nil, TopKStats{}, fmt.Errorf("%w: %q", ErrVideoNotFound, videoName)
	}
	var (
		res   []TopKResult
		stats TopKStats
	)
	ctx, cancel := eo.queryCtx()
	defer cancel()
	err := eo.pool().Do(ctx, func() error {
		var err error
		res, stats, err = rvaq.TopKCtx(ctx, vd, q, k, eo.rvaqOptions(videoName))
		return err
	})
	if err != nil && eo.partialOnDeadline(err, &stats) {
		err = nil
	}
	return res, stats, err
}

// videos resolves a names snapshot to the videos' metadata. A name can
// go stale when a concurrent Remove wins the race after the snapshot;
// that is ErrVideoNotFound, never a nil *VideoData handed to RVAQ.
func (r *Repository) videos(names []string) ([]*ingest.VideoData, error) {
	out := make([]*ingest.VideoData, len(names))
	for i, n := range names {
		vd, ok := r.repo.Video(n)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrVideoNotFound, n)
		}
		out[i] = vd
	}
	return out, nil
}

// VideoTopKResult tags a result with its video.
type VideoTopKResult struct {
	Video string
	TopKResult
}

// TopKGlobalOpts ranks result sequences across the whole repository
// (§4.2: "associating a video identifier to each clip identifier") and
// tags each with its video. It fans one RVAQ execution per video out
// over the worker pool, joined by one rvaq.GlobalBound: every video
// publishes the lower bounds of its current top-k and prunes with the
// k-th largest across all of them. The exchanged bounds are
// conservative, so the ranking equals one RVAQ run over the merged
// clip-id namespace. A video missing one of the query's labels
// contributes no candidates (as its span would in the merged
// namespace); only when every video misses them does the query fail
// with the first video's ErrNotIngested. The stats report the wall
// clock of the fan-out in Runtime and the summed per-video runtimes in
// CPURuntime.
func (r *Repository) TopKGlobalOpts(q Query, k int, eo ExecOptions) ([]VideoTopKResult, TopKStats, error) {
	names := r.repo.Names()
	if len(names) == 0 {
		// An empty repository has no labels materialized for any query.
		// Shard tiers rely on this mapping: a shard that owns no videos
		// answers like a video span with the queried labels absent, so
		// the coordinator merges it as a no-contribution, not a failure.
		return nil, TopKStats{}, fmt.Errorf("vaq: repository has no videos: %w", ingest.ErrNotIngested)
	}
	videos, err := r.videos(names)
	if err != nil {
		return nil, TopKStats{}, err
	}
	ctx, cancel := eo.queryCtx()
	defer cancel()
	p := eo.pool()
	ctx, gspan := trace.Start(ctx, "topk.global")
	gspan.SetInt("videos", int64(len(names)))
	gspan.SetInt("k", int64(k))
	defer gspan.End()
	// An external exchange (the shard tier's per-query one) subsumes
	// the private cross-video bound: local shards publish into it and
	// remote bounds raised into it tighten every local iterator.
	gb := eo.Bound
	if gb == nil {
		gb = rvaq.NewGlobalBound(k)
	}
	type shardOut struct {
		res   []TopKResult
		stats TopKStats
		err   error
	}
	start := time.Now()
	outs := make([]shardOut, len(names))
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, sspan := trace.Start(ctx, "topk.shard")
			sspan.SetAttr("video", names[i])
			sspan.SetInt("shard", int64(i))
			defer sspan.End()
			outs[i].err = p.Do(sctx, func() error {
				opts := eo.rvaqOptions(names[i])
				opts.Bound, opts.Shard = gb, i
				res, stats, err := rvaq.TopKCtx(sctx, videos[i], q, k, opts)
				outs[i].res, outs[i].stats = res, stats
				return err
			})
		}(i)
	}
	wg.Wait()

	var total TopKStats
	var all []VideoTopKResult
	notIngested := 0
	var firstMissing error
	for i, name := range names {
		o := &outs[i]
		if errors.Is(o.err, ingest.ErrNotIngested) {
			// This video's span would simply be empty in the merged
			// namespace; remember the error in case no video has the
			// queried labels at all.
			notIngested++
			if firstMissing == nil {
				firstMissing = o.err
			}
			continue
		}
		if o.err != nil {
			// A shard whose deadline fired while queued contributed
			// nothing; under Partial that makes the merged result
			// incomplete, not failed.
			if eo.partialOnDeadline(o.err, &total) {
				continue
			}
			return nil, total, fmt.Errorf("vaq: video %q: %w", name, o.err)
		}
		total.Merge(o.stats)
		for _, sr := range o.res {
			all = append(all, VideoTopKResult{Video: name, TopKResult: sr})
		}
	}
	if notIngested == len(names) {
		return nil, total, firstMissing
	}
	_, mspan := trace.Start(ctx, "topk.merge")
	mspan.SetInt("results", int64(len(all)))
	sortVideoResults(all)
	if len(all) > k {
		all = all[:k]
	}
	mspan.End()
	total.Runtime = time.Since(start)
	return all, total, nil
}

// sortVideoResults orders merged per-video results deterministically:
// score descending, then video name, then sequence start — the same
// order the merged clip-id namespace induces (videos are laid out in
// sorted-name order there).
func sortVideoResults(all []VideoTopKResult) {
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		if all[a].Video != all[b].Video {
			return all[a].Video < all[b].Video
		}
		return all[a].Seq.Lo < all[b].Seq.Lo
	})
}
