// Package ingest implements the ingestion phase of the offline case
// (§4.2). Each video is processed once, in a query-independent manner:
// for every object and action label the deployed models support, the
// phase materializes
//
//   - a clip score table table_l = {cid, score} ordered by score, with
//     the clip score computed by the scoring function h over all raw
//     detection scores of the label in the clip (Equations 7–8), and
//   - the label's individual sequences P_l — maximal runs of clips with
//     positive indicators, decided by the same scan-statistics machinery
//     the online case uses (SVAQD per label).
//
// The resulting metadata answers any ad-hoc query at query time (package
// rvaq) without touching the video again.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/plan"
	"vaq/internal/score"
	"vaq/internal/tables"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// ErrNotIngested reports that a queried label has no materialized
// metadata in a video. Callers distinguish it from infrastructure
// failures with errors.Is; the ingested label set is fixed at ingest
// time, so retrying the same query cannot succeed.
var ErrNotIngested = errors.New("not ingested")

// Config tunes the ingestion phase.
type Config struct {
	// Thresholds are T_obj / T_act used for the prediction indicators;
	// zero value uses detect.DefaultThresholds.
	Thresholds detect.Thresholds
	// Alpha is the scan-statistics significance level (default 0.05).
	Alpha float64
	// KernelU is the SVAQD kernel scale in frames (default 4000).
	KernelU float64
	// Score is the scoring scheme; the zero value uses score.Default().
	Score score.Functions
	// TrackerIoU and TrackerMaxAge parameterize the object tracker used
	// to assign track identifiers during ingestion (defaults 0.3 / 15).
	TrackerIoU    float64
	TrackerMaxAge int
	// Workers parallelizes the model-invocation stage of ingestion
	// across clips (the dominant cost, §5.2). The statistics and
	// tracking stages stay sequential, so results are identical to a
	// serial run. 0 or 1 means serial.
	Workers int
	// Plan arms the coarse-to-fine adaptive sampling planner: per clip,
	// each model family (object labels over frames, action labels over
	// shots) runs one ladder that scores the units sparsely (1 in
	// Plan.Rate) and densifies only while some label's indicator is
	// still undecided by the scan-statistic rules. Windows of at most
	// Plan.MinSample units run dense, as they do online. Partially
	// sampled clips materialize lower-bound table scores, recorded in
	// VideoData.Plan so the query phase keeps its bounds sound (see
	// docs/PLANNER.md); the bound arithmetic assumes the additive
	// scoring scheme h (the default). Planned ingestion interleaves
	// inference with the statistics, so it runs sequentially — Workers
	// is ignored. The zero value is a dense ingest; Rate 1 runs the
	// planner's dense rung, byte-identical to dense.
	Plan plan.Config
}

func (c Config) withDefaults() Config {
	if c.Thresholds == (detect.Thresholds{}) {
		c.Thresholds = detect.DefaultThresholds()
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.KernelU == 0 {
		c.KernelU = 4000
	}
	if c.Score.H == nil {
		c.Score = score.Default()
	}
	return c
}

// VideoData is the materialized metadata of one ingested video.
type VideoData struct {
	Meta video.Meta
	// ObjTables / ActTables map each supported label to its clip score
	// table. Clips whose label score is zero are omitted (sparse
	// tables); a random access for a missing clip yields score 0.
	ObjTables map[annot.Label]tables.Table
	ActTables map[annot.Label]tables.Table
	// ObjSeqs / ActSeqs are the individual sequences P_l per label,
	// as clip-id interval sets.
	ObjSeqs map[annot.Label]interval.Set
	ActSeqs map[annot.Label]interval.Set
	// TracksOpened is the number of track identifiers the tracker
	// issued over the whole video.
	TracksOpened int
	// DegradedFrames / DegradedShots are the frame and shot indices
	// whose model outputs were served degraded during ingestion (the
	// resilience fallback chain answered instead of the primary
	// backend). Sorted, deduplicated; empty after a clean ingest. They
	// persist with the repository so offline queries can discount
	// scores derived from degraded units.
	DegradedFrames []int
	DegradedShots  []int
	// DegradedFrameHops / DegradedShotHops map each degraded unit to
	// the 1-based fallback-chain hop that served it (1..len(chain) are
	// the configured profiles, len(chain)+1 the prior sampler) — the
	// per-unit quality record hop-aware score discounting reads. Nil
	// for clean ingests and for repositories written before hops were
	// persisted; such legacy units carry hop 0 ("unknown") and are
	// discounted at the table's worst entry.
	DegradedFrameHops map[int]int
	DegradedShotHops  map[int]int
	// Plan records the adaptive-sampling state of a planned ingest
	// (which clips hold lower-bound scores and how loose they can be);
	// nil after a dense — or fully densified — ingest.
	Plan *PlanInfo
}

// DegradedUnits flattens a degraded unit→hop map (the shape the
// resilience layer reports) into the sorted index list VideoData
// persists.
func DegradedUnits(m map[int]int) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// SetDegradedFrames records the degraded frame set from a resilience
// hop map (Detector.DegradedHops): the sorted index list plus the
// per-unit hops, kept in lockstep so the manifest never persists one
// without the other.
func (vd *VideoData) SetDegradedFrames(hops map[int]int) {
	vd.DegradedFrames = DegradedUnits(hops)
	vd.DegradedFrameHops = copyHops(hops)
}

// SetDegradedShots mirrors SetDegradedFrames for shots
// (Recognizer.DegradedHops).
func (vd *VideoData) SetDegradedShots(hops map[int]int) {
	vd.DegradedShots = DegradedUnits(hops)
	vd.DegradedShotHops = copyHops(hops)
}

func copyHops(m map[int]int) map[int]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[int]int, len(m))
	for u, hop := range m {
		out[u] = hop
	}
	return out
}

// DegradedClipHops maps each degraded clip to the worst (highest)
// fallback hop among the degraded units that fed its scores — the
// pessimistic choice, since a clip is only as trustworthy as its least
// trustworthy input. Units recorded without hop information (legacy
// manifests) contribute hop 0, which discount tables treat as
// "unknown, assume the worst". Nil when the video ingested cleanly.
func (vd *VideoData) DegradedClipHops() map[int32]int {
	if len(vd.DegradedFrames) == 0 && len(vd.DegradedShots) == 0 {
		return nil
	}
	g := vd.Meta.Geom
	out := make(map[int32]int, len(vd.DegradedFrames)+len(vd.DegradedShots))
	note := func(cid int32, hop int) {
		old, seen := out[cid]
		switch {
		case !seen:
			out[cid] = hop
		case old == 0 || hop == 0:
			out[cid] = 0 // an unknown hop anywhere taints the clip
		case hop > old:
			out[cid] = hop
		}
	}
	for _, f := range vd.DegradedFrames {
		note(int32(g.ClipOfFrame(video.FrameIdx(f))), vd.DegradedFrameHops[f])
	}
	for _, s := range vd.DegradedShots {
		note(int32(g.ClipOfShot(video.ShotIdx(s))), vd.DegradedShotHops[s])
	}
	return out
}

// Video ingests one video: it runs the object detector on every frame
// (for all objLabels), the tracker over the detections, and the action
// recognizer on every shot (for all actLabels), and materializes the
// per-label tables and individual sequences.
func Video(det detect.ObjectDetector, rec detect.ActionRecognizer, meta video.Meta, objLabels, actLabels []annot.Label, cfg Config) (*VideoData, error) {
	return VideoCtx(context.Background(), det, rec, meta, objLabels, actLabels, cfg)
}

// VideoCtx is Video with cancellation: the (possibly parallel) model-
// invocation stage checks ctx between clips and the whole ingestion
// returns ctx's error once it fires.
func VideoCtx(ctx context.Context, det detect.ObjectDetector, rec detect.ActionRecognizer, meta video.Meta, objLabels, actLabels []annot.Label, cfg Config) (*VideoData, error) {
	if err := meta.Geom.Validate(); err != nil {
		return nil, err
	}
	if len(objLabels) > 0 && det == nil {
		return nil, fmt.Errorf("ingest: object labels given but no detector")
	}
	if len(actLabels) > 0 && rec == nil {
		return nil, fmt.Errorf("ingest: action labels given but no recognizer")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	cfg = cfg.withDefaults()
	geom := meta.Geom
	nclips := meta.Clips()
	if nclips == 0 {
		return nil, fmt.Errorf("ingest: video %q has no whole clip", meta.Name)
	}

	tr := trace.FromContext(ctx)
	ctx, vspan := trace.Start(ctx, "ingest.video")
	vspan.SetAttr("video", meta.Name)
	vspan.SetInt("clips", int64(nclips))
	defer vspan.End()
	tr.Counter("ingest.videos").Add(1)
	tr.Counter("ingest.clips").Add(int64(nclips))

	objs := objectFamily(det, objLabels, geom, cfg.Thresholds.Object, cfg.Score.H)
	tracker := detect.NewTracker(cfg.TrackerIoU, cfg.TrackerMaxAge)
	objs.post = func(v int, dets []detect.Detection) { tracker.Update(video.FrameIdx(v), dets) }
	acts := actionFamily(rec, actLabels, geom, cfg.Thresholds.Action, cfg.Score.H)
	if err := objs.prepare(cfg, nclips, cfg.KernelU, tr.Counter("detect.frame_invocations")); err != nil {
		return nil, err
	}
	// The action kernel spans the same wall-clock extent in shots.
	actKernel := max(cfg.KernelU/float64(geom.ShotLen), 1)
	if err := acts.prepare(cfg, nclips, actKernel, tr.Counter("detect.shot_invocations")); err != nil {
		return nil, err
	}

	var span *trace.Span
	if cfg.Plan.Enabled() {
		_, span = trace.Start(ctx, "ingest.plan")
	} else {
		// Stage 1 of a dense ingest prefetches every clip's model outputs,
		// the dominant cost (§5.2): in parallel when cfg.Workers > 1. The
		// simulated models are deterministic per (seed, label, unit), so
		// parallel and serial runs produce identical outputs.
		_, inferSpan := trace.Start(ctx, "ingest.infer")
		err := prefetch(ctx, nclips, cfg.Workers, func(c video.ClipIdx) {
			objs.fetch(c)
			acts.fetch(c)
		})
		inferSpan.End()
		if err != nil {
			return nil, fmt.Errorf("ingest: video %q: %w", meta.Name, err)
		}
		_, span = trace.Start(ctx, "ingest.stats")
	}
	defer span.End()
	// Per clip, each family's window runs through the planner's ladder
	// (one dense rung for a dense ingest). Sequential: the object tracker
	// is stateful across frames, the label trackers across clips.
	for c := video.ClipIdx(0); int(c) < nclips; c++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ingest: video %q: %w", meta.Name, err)
		}
		if err := errors.Join(objs.clip(c, cfg.Plan), acts.clip(c, cfg.Plan)); err != nil {
			return nil, err
		}
	}

	vd := &VideoData{
		Meta:         meta,
		ObjTables:    map[annot.Label]tables.Table{},
		ActTables:    map[annot.Label]tables.Table{},
		ObjSeqs:      map[annot.Label]interval.Set{},
		ActSeqs:      map[annot.Label]interval.Set{},
		TracksOpened: tracker.TracksOpened(),
	}
	objs.finish(vd.ObjTables, vd.ObjSeqs)
	acts.finish(vd.ActTables, vd.ActSeqs)
	// Fully sampled everywhere (a dense ingest, Rate 1, or every clip
	// densified): the metadata is exact and carries no PlanInfo.
	info := &PlanInfo{
		Rate: cfg.Plan.Rate, Levels: cfg.Plan.Levels,
		ObjUnitCap: DefaultObjUnitCap, ActUnitCap: DefaultActUnitCap,
		MissingFrames: objs.missing, MissingShots: acts.missing,
	}
	if !info.Empty() {
		vd.Plan = info
	}
	return vd, nil
}

// prefetch calls fetch for every clip in order on max(workers, 1)
// goroutines, stopping once ctx fires, and returns ctx's error.
func prefetch(ctx context.Context, nclips, workers int, fetch func(video.ClipIdx)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(workers, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := next.Add(1) - 1; c < int64(nclips) && ctx.Err() == nil; c = next.Add(1) - 1 {
				fetch(video.ClipIdx(c))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// CandidateSequences computes P_q = P_a ⊗ P_o1 ⊗ ... ⊗ P_oI
// (Equation 12) for a query against this video's materialized individual
// sequences.
func (vd *VideoData) CandidateSequences(q annot.Query) (interval.Set, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var sets []interval.Set
	if q.Action != "" {
		s, ok := vd.ActSeqs[q.Action]
		if !ok {
			return nil, fmt.Errorf("ingest: action %q %w for video %q", q.Action, ErrNotIngested, vd.Meta.Name)
		}
		sets = append(sets, s)
	}
	for _, o := range q.Objects {
		s, ok := vd.ObjSeqs[o]
		if !ok {
			return nil, fmt.Errorf("ingest: object %q %w for video %q", o, ErrNotIngested, vd.Meta.Name)
		}
		sets = append(sets, s)
	}
	return interval.IntersectAll(sets...), nil
}

// QueryTables returns the clip score tables of the query's predicates:
// the action table (nil if the query has no action) and the object
// tables in query order.
func (vd *VideoData) QueryTables(q annot.Query) (act tables.Table, objs []tables.Table, err error) {
	if q.Action != "" {
		t, ok := vd.ActTables[q.Action]
		if !ok {
			return nil, nil, fmt.Errorf("ingest: action %q %w for video %q", q.Action, ErrNotIngested, vd.Meta.Name)
		}
		act = t
	}
	for _, o := range q.Objects {
		t, ok := vd.ObjTables[o]
		if !ok {
			return nil, nil, fmt.Errorf("ingest: object %q %w for video %q", o, ErrNotIngested, vd.Meta.Name)
		}
		objs = append(objs, t)
	}
	return act, objs, nil
}
