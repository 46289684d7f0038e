package ingest

import (
	"fmt"
	"slices"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/plan"
	"vaq/internal/score"
	"vaq/internal/svaq"
	"vaq/internal/tables"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// family is one model family of an ingest — the object labels over
// frames, or the action labels over shots — with everything the ingest
// keeps per label: scan-statistics trackers, table rows and indicators,
// plus the clips the planner left partially sampled. T is the model's
// output on one unit; one invocation scores every label of the family.
// Every clip window runs through plan.EvaluateAll, whose ladder is the
// single dense rung when the planner is off.
type family[T any] struct {
	kind   string // "object" / "action", for errors
	labels []annot.Label
	slot   map[annot.Label]int // label → index into the per-label slices
	w      int                 // units per clip: clip c covers units [c·w, (c+1)·w)
	thr    float64
	h      score.H
	call   func(unit int) []T             // the model on one unit
	get    func(T) (annot.Label, float64) // an output's label and raw score
	post   func(unit int, out []T)        // optional in-order pass over sampled units (the object tracker)
	calls  *trace.Counter                 // invocations: units × labels

	trk     []*svaq.LabelTracker
	rows    [][]tables.Row
	ind     [][]bool
	missing map[int32]int // unsampled units per partially sampled clip

	pre     [][][]T // dense prefetch: per clip, per unit; nil when planned
	lo      int     // the current clip's first unit
	out     [][]T   // the current clip's unit outputs
	sampled []bool
	preds   []plan.Pred
	raw     [][]float64
	scores  []float64 // per label: h over the current clip's sampled units
	probe   func(u int) error
}

func newFamily[T any](kind string, labels []annot.Label, w int, thr float64, h score.H,
	call func(unit int) []T, get func(T) (annot.Label, float64)) *family[T] {
	f := &family[T]{kind: kind, labels: labels, slot: make(map[annot.Label]int, len(labels)),
		w: w, thr: thr, h: h, call: call, get: get,
		preds: make([]plan.Pred, len(labels)), raw: make([][]float64, len(labels)), scores: make([]float64, len(labels))}
	for i, l := range labels {
		f.slot[l] = i
	}
	// The probe runs the model on one unit (or reads the prefetched
	// output) and reports which labels it found at or above threshold.
	f.probe = func(u int) error {
		if f.pre == nil {
			f.out[u] = f.call(f.lo + u)
			f.calls.Add(int64(len(f.labels)))
		}
		f.sampled[u] = true
		for _, x := range f.out[u] {
			if l, s := f.get(x); s >= f.thr {
				if i, ok := f.slot[l]; ok {
					f.preds[i].Hit = true
				}
			}
		}
		return nil
	}
	return f
}

// objectFamily is the object labels over frames: a frame is positive for
// a label when any of its detections of that label scores at least thr.
func objectFamily(det detect.ObjectDetector, labels []annot.Label, geom video.Geometry, thr float64, h score.H) *family[detect.Detection] {
	return newFamily("object", labels, geom.ClipLen(), thr, h,
		func(v int) []detect.Detection { return det.Detect(video.FrameIdx(v), labels) },
		func(d detect.Detection) (annot.Label, float64) { return d.Label, d.Score })
}

// actionFamily is the action labels over shots.
func actionFamily(rec detect.ActionRecognizer, labels []annot.Label, geom video.Geometry, thr float64, h score.H) *family[detect.ActionScore] {
	return newFamily("action", labels, geom.ShotsPerClip, thr, h,
		func(s int) []detect.ActionScore { return rec.Recognize(video.ShotIdx(s), labels) },
		func(a detect.ActionScore) (annot.Label, float64) { return a.Label, a.Score })
}

// prepare arms the family for ingesting nclips clips: one dynamic
// scan-statistics tracker per label (§4.2: "utilizing algorithm SVAQD
// ... determine the positive clips") with the given kernel scale, the
// invocation counter, and, for a dense ingest, the prefetch slots fetch
// fills.
func (f *family[T]) prepare(cfg Config, nclips int, kernelU float64, calls *trace.Counter) error {
	f.calls = calls
	for _, l := range f.labels {
		lt, err := svaq.NewLabelTracker(svaq.TrackerConfig{
			UnitsPerClip: f.w, HorizonClips: nclips,
			Alpha: cfg.Alpha, P0: 1e-4, Dynamic: true, KernelU: kernelU,
		})
		if err != nil {
			return fmt.Errorf("ingest: %s %q: %w", f.kind, l, err)
		}
		f.trk = append(f.trk, lt)
	}
	f.rows = make([][]tables.Row, len(f.labels))
	f.ind = make([][]bool, len(f.labels))
	if !cfg.Plan.Enabled() && len(f.labels) > 0 {
		f.pre = make([][][]T, nclips)
	}
	return nil
}

// fetch runs the model on every unit of clip c ahead of the statistics:
// dense ingest's (possibly parallel) stage 1, whose outputs the probe
// then reads.
func (f *family[T]) fetch(c video.ClipIdx) {
	if len(f.labels) == 0 {
		return
	}
	out := make([][]T, f.w)
	for u := range out {
		out[u] = f.call(int(c)*f.w + u)
	}
	f.calls.Add(int64(len(out) * len(f.labels)))
	f.pre[c] = out
}

// sample runs clip c's units through pcfg's ladder, probing every label
// at once, then passes the sampled units in unit order through post and
// sets each label's score to h over its raw scores.
func (f *family[T]) sample(c video.ClipIdx, pcfg plan.Config) error {
	f.lo = int(c) * f.w
	if f.pre != nil {
		f.out = f.pre[c]
	} else {
		f.out = slices.Grow(f.out[:0], f.w)[:f.w]
	}
	f.sampled = slices.Grow(f.sampled[:0], f.w)[:f.w]
	clear(f.sampled)
	for i, lt := range f.trk {
		f.preds[i].K, f.preds[i].P = lt.K(), lt.P()
	}
	if err := pcfg.EvaluateAll(f.w, f.preds, f.probe); err != nil {
		return err
	}
	for i := range f.raw {
		f.raw[i] = f.raw[i][:0]
	}
	for u, out := range f.out {
		if !f.sampled[u] {
			continue
		}
		if f.post != nil {
			f.post(f.lo+u, out)
		}
		for _, x := range out {
			l, s := f.get(x)
			if i, ok := f.slot[l]; ok {
				f.raw[i] = append(f.raw[i], s)
			}
		}
	}
	for i, raw := range f.raw {
		f.scores[i] = f.h.CombineLabel(raw)
	}
	return nil
}

// clip evaluates clip c and records it: each label's table row, tracker
// update and indicator, and the clip's unsampled units.
func (f *family[T]) clip(c video.ClipIdx, pcfg plan.Config) error {
	if len(f.labels) == 0 {
		return nil
	}
	if err := f.sample(c, pcfg); err != nil {
		return err
	}
	for i, l := range f.labels {
		if s := f.scores[i]; s > 0 {
			f.rows[i] = append(f.rows[i], tables.Row{CID: int32(c), Score: s})
		}
		r := f.preds[i].Result
		if err := f.trk[i].ObserveRun(r.Sampled, r.Count); err != nil {
			return fmt.Errorf("ingest: %s %q: %w", f.kind, l, err)
		}
		f.ind[i] = append(f.ind[i], r.Positive)
	}
	if m := f.preds[0].Sampled; m < f.w {
		if f.missing == nil {
			f.missing = map[int32]int{}
		}
		f.missing[int32(c)] = f.w - m
	}
	if f.pre != nil {
		f.pre[c] = nil // release the clip's outputs
	}
	return nil
}

// finish materializes every label's clip score table and individual
// sequences.
func (f *family[T]) finish(tabs map[annot.Label]tables.Table, seqs map[annot.Label]interval.Set) {
	for i, l := range f.labels {
		tabs[l] = tables.NewMemTable(string(l), f.rows[i])
		seqs[l] = interval.FromIndicators(f.ind[i])
	}
}
