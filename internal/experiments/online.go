package experiments

import (
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/metrics"
	"vaq/internal/quantile"
	"vaq/internal/svaq"
	"vaq/internal/synth"
	"vaq/internal/video"
)

// Fig2Result is one series point of Figure 2: F1 of SVAQ and SVAQD at
// one initial background probability.
type Fig2Result struct {
	Query string
	P0    float64
	SVAQ  float64
	SVAQD float64
}

// Fig2 reproduces Figure 2: sensitivity of SVAQ vs SVAQD to the initial
// background probability on the queries (a) {a=blowing leaves, o=car}
// and (b) {a=washing dishes, o=faucet}.
func (c *Context) Fig2() ([]Fig2Result, error) {
	cases := []struct {
		set string
		q   annot.Query
	}{
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"faucet"}}},
	}
	var out []Fig2Result
	for _, cs := range cases {
		qs, err := c.youtube(cs.set)
		if err != nil {
			return nil, err
		}
		for _, p0 := range P0Grid {
			static, err := c.runOnline(qs, cs.q, c.ObjProfile, c.ActProfile,
				svaq.Config{P0Object: p0, P0Action: p0})
			if err != nil {
				return nil, err
			}
			dyn, err := c.runOnline(qs, cs.q, c.ObjProfile, c.ActProfile,
				svaq.Config{Dynamic: true, P0Object: p0, P0Action: p0})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig2Result{
				Query: cs.q.String(), P0: p0,
				SVAQ:  f1(static.Seqs, static.Truth),
				SVAQD: f1(dyn.Seqs, dyn.Truth),
			})
		}
	}
	return out, nil
}

// Fig3Result is one bar pair of Figure 3.
type Fig3Result struct {
	Set   string
	Query string
	SVAQ  float64 // at the fixed p0 = 1e-4
	SVAQD float64
}

// Fig3 reproduces Figure 3: F1 of SVAQ (p0 fixed to 1e-4) and SVAQD for
// all twelve YouTube queries of Table 1.
func (c *Context) Fig3() ([]Fig3Result, error) {
	var out []Fig3Result
	for _, id := range synth.YouTubeIDs() {
		qs, err := c.youtube(id)
		if err != nil {
			return nil, err
		}
		static, err := c.runOnline(qs, qs.Query, c.ObjProfile, c.ActProfile,
			svaq.Config{P0Object: FixedP0, P0Action: FixedP0})
		if err != nil {
			return nil, err
		}
		dyn, err := c.runOnline(qs, qs.Query, c.ObjProfile, c.ActProfile,
			svaq.Config{Dynamic: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig3Result{
			Set: id, Query: qs.Query.String(),
			SVAQ:  f1(static.Seqs, static.Truth),
			SVAQD: f1(dyn.Seqs, dyn.Truth),
		})
	}
	return out, nil
}

// Table3Result is one row of Table 3.
type Table3Result struct {
	Query string
	SVAQ  float64
	SVAQD float64
}

// Table3 reproduces Table 3: F1 as the object predicates of the blowing
// leaves and washing dishes queries vary in number and correlation.
func (c *Context) Table3() ([]Table3Result, error) {
	variants := []struct {
		set string
		q   annot.Query
	}{
		{"q2", annot.Query{Action: "blowing_leaves"}},
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"person"}}},
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"plant"}}},
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}},
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"person", "car"}}},
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"person", "plant", "car"}}},
		{"q1", annot.Query{Action: "washing_dishes"}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"person"}}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"oven"}}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"faucet"}}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"faucet", "oven"}}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"person", "faucet", "oven"}}},
	}
	sets := map[string]*synth.QuerySet{}
	var out []Table3Result
	for _, v := range variants {
		qs, ok := sets[v.set]
		if !ok {
			var err error
			qs, err = c.youtube(v.set)
			if err != nil {
				return nil, err
			}
			sets[v.set] = qs
		}
		static, err := c.runOnline(qs, v.q, c.ObjProfile, c.ActProfile,
			svaq.Config{P0Object: FixedP0, P0Action: FixedP0})
		if err != nil {
			return nil, err
		}
		dyn, err := c.runOnline(qs, v.q, c.ObjProfile, c.ActProfile, svaq.Config{Dynamic: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Table3Result{
			Query: v.q.String(),
			SVAQ:  f1(static.Seqs, static.Truth),
			SVAQD: f1(dyn.Seqs, dyn.Truth),
		})
	}
	return out, nil
}

// Table4Result is one row of Table 4.
type Table4Result struct {
	Models string
	SVAQ   float64
	SVAQD  float64
}

// Table4 reproduces Table 4: F1 of the query {a=blowing leaves, o=car}
// under different detection-model profiles, including the ideal models.
func (c *Context) Table4() ([]Table4Result, error) {
	q := annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}
	qs, err := c.youtube("q2")
	if err != nil {
		return nil, err
	}
	combos := []struct {
		name string
		obj  detect.Profile
		act  detect.Profile
	}{
		{"MaskRCNN+I3D", detect.MaskRCNN, detect.I3D},
		{"YOLOv3+I3D", detect.YOLOv3, detect.I3D},
		{"Ideal Models", detect.IdealObject, detect.IdealAction},
	}
	var out []Table4Result
	for _, combo := range combos {
		static, err := c.runOnline(qs, q, combo.obj, combo.act,
			svaq.Config{P0Object: FixedP0, P0Action: FixedP0})
		if err != nil {
			return nil, err
		}
		dyn, err := c.runOnline(qs, q, combo.obj, combo.act, svaq.Config{Dynamic: true})
		if err != nil {
			return nil, err
		}
		out = append(out, Table4Result{
			Models: combo.name,
			SVAQ:   f1(static.Seqs, static.Truth),
			SVAQD:  f1(dyn.Seqs, dyn.Truth),
		})
	}
	return out, nil
}

// Table5Result is one row of Table 5: per-unit false positive rates of
// the raw models versus within SVAQD's reported sequences.
type Table5Result struct {
	Query                 string
	ActionFPRRaw          float64
	ActionFPRWithSVAQD    float64
	ObjectFPRRaw          float64
	ObjectFPRWithSVAQD    float64
	ActionNoiseEliminated float64 // fraction of FP shots outside reported sequences
	ObjectNoiseEliminated float64
}

// Table5 reproduces Table 5: how much detector noise SVAQD eliminates.
// The raw rate is the model's per-unit FPR over the whole stream; the
// "with SVAQD" rate keeps the same denominator but only counts the
// false positives that survive inside the reported result sequences —
// everything outside has been eliminated by the query's statistical
// filtering.
func (c *Context) Table5() ([]Table5Result, error) {
	cases := []struct {
		set string
		q   annot.Query
	}{
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"faucet"}}},
	}
	var out []Table5Result
	for _, cs := range cases {
		qs, err := c.youtube(cs.set)
		if err != nil {
			return nil, err
		}
		run, err := c.runOnline(qs, cs.q, c.ObjProfile, c.ActProfile,
			svaq.Config{Dynamic: true, RecordIndicators: true})
		if err != nil {
			return nil, err
		}
		geom := qs.World.Truth.Meta.Geom
		nframes := run.NClips * geom.ClipLen()
		nshots := run.NClips * geom.ShotsPerClip

		actTruth := qs.World.Truth.Actions[cs.q.Action]
		objTruth := qs.World.Truth.Objects[cs.q.Objects[0]]
		actPred := run.Engine.ActionIndicators()
		objPred := run.Engine.ObjectIndicators(cs.q.Objects[0])

		fullShots := interval.Set{{Lo: 0, Hi: nshots - 1}}
		fullFrames := interval.Set{{Lo: 0, Hi: nframes - 1}}
		repShots := scaleSeqs(run.Seqs, geom.ShotsPerClip)
		repFrames := scaleSeqs(run.Seqs, geom.ClipLen())

		actRetained := metrics.RetainedFPFraction(actPred, actTruth, repShots)
		objRetained := metrics.RetainedFPFraction(objPred, objTruth, repFrames)
		r := Table5Result{
			Query:                 cs.q.String(),
			ActionFPRRaw:          metrics.FPR(actPred, actTruth, fullShots),
			ObjectFPRRaw:          metrics.FPR(objPred, objTruth, fullFrames),
			ActionNoiseEliminated: 1 - actRetained,
			ObjectNoiseEliminated: 1 - objRetained,
		}
		r.ActionFPRWithSVAQD = r.ActionFPRRaw * actRetained
		r.ObjectFPRWithSVAQD = r.ObjectFPRRaw * objRetained
		out = append(out, r)
	}
	return out, nil
}

// scaleSeqs expands clip-id sequences to the covered fine units.
func scaleSeqs(clips interval.Set, unitsPerClip int) interval.Set {
	ivs := make([]interval.Interval, len(clips))
	for i, iv := range clips {
		ivs[i] = interval.Interval{Lo: iv.Lo * unitsPerClip, Hi: (iv.Hi+1)*unitsPerClip - 1}
	}
	return interval.Normalize(ivs)
}

// ClipSizeResult is one point of Figures 4 and 5.
type ClipSizeResult struct {
	Query       string
	ClipFrames  int
	Sequences   int     // Figure 4
	FrameF1     float64 // Figure 5
	FramesFound int
}

// ClipSizes is the sweep of Figures 4–5 (frames per clip; shot length
// stays 10).
var ClipSizes = []int{20, 30, 50, 80, 120}

// Fig4And5 reproduces Figures 4 and 5: the number of result sequences
// shrinks as clips grow, while the frame-level F1 — and the total number
// of frames reported — stays nearly flat.
func (c *Context) Fig4And5() ([]ClipSizeResult, error) {
	cases := []struct {
		set string
		q   annot.Query
	}{
		{"q2", annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}},
		{"q1", annot.Query{Action: "washing_dishes", Objects: []annot.Label{"faucet"}}},
	}
	var out []ClipSizeResult
	for _, cs := range cases {
		for _, clipFrames := range ClipSizes {
			geom := video.Geometry{FPS: 30, ShotLen: 10, ShotsPerClip: clipFrames / 10}
			if geom.ShotsPerClip < 2 {
				geom.ShotsPerClip = 2
			}
			qs, err := synth.YouTubeScaled(cs.set, geom, c.Scale)
			if err != nil {
				return nil, err
			}
			run, err := c.runOnline(qs, cs.q, c.ObjProfile, c.ActProfile, svaq.Config{Dynamic: true})
			if err != nil {
				return nil, err
			}
			// Frame-level comparison against frame-granularity truth.
			truthFrames, err := groundTruthFrames(qs, cs.q)
			if err != nil {
				return nil, err
			}
			predFrames := scaleSeqs(run.Seqs, geom.ClipLen())
			uf := metrics.UnitF1(predFrames, truthFrames, qs.World.Truth.Meta.Frames)
			out = append(out, ClipSizeResult{
				Query:       cs.q.String(),
				ClipFrames:  geom.ClipLen(),
				Sequences:   len(run.Seqs),
				FrameF1:     uf.F1,
				FramesFound: predFrames.Len(),
			})
		}
	}
	return out, nil
}

// groundTruthFrames intersects the query predicates' truth at frame
// granularity (actions expanded from shots).
func groundTruthFrames(qs *synth.QuerySet, q annot.Query) (interval.Set, error) {
	truth := qs.World.Truth
	shotLen := truth.Meta.Geom.ShotLen
	sets := make([]interval.Set, 0, len(q.Objects)+1)
	if q.Action != "" {
		sets = append(sets, scaleSeqs(truth.Actions[q.Action], shotLen))
	}
	for _, o := range q.Objects {
		sets = append(sets, truth.Objects[o])
	}
	return interval.IntersectAll(sets...), nil
}

// RuntimeResult is the §5.2 runtime decomposition.
type RuntimeResult struct {
	Query               string
	TotalRuntime        time.Duration // simulated inference + measured algorithm time
	InferenceTime       time.Duration // simulated model inference (dominates)
	AlgorithmTime       time.Duration // measured wall time of everything else
	InferenceShare      float64
	ModelInvocations    int64
	EndToEndTrainingEst time.Duration // cost model of the per-query end-to-end baseline
	// Per-clip algorithm latency quantiles (inference excluded — it is
	// simulated). Tail latency per clip is what bounds how far behind a
	// live feed the engine can fall.
	ClipP50, ClipP90, ClipP99 time.Duration
}

// endToEndTrainingCost models the paper's end-to-end baseline: fine-
// tuning an I3D-style network per query took the authors >60 hours.
const endToEndTrainingCost = 62 * time.Hour

// OnlineRuntime reproduces the §5.2 runtime observation: >98% of online
// query time is model inference, and a per-query end-to-end model is
// orders of magnitude more expensive to stand up.
func (c *Context) OnlineRuntime() (*RuntimeResult, error) {
	qs, err := c.youtube("q1")
	if err != nil {
		return nil, err
	}
	scene := qs.World.Scene()
	var meter detect.CostMeter
	det := detect.NewSimObjectDetector(scene, c.ObjProfile, &meter)
	rec := detect.NewSimActionRecognizer(scene, c.ActProfile, &meter)
	meta := qs.World.Truth.Meta
	eng, err := svaq.New(qs.Query, det, rec, meta.Geom, svaq.Config{Dynamic: true, HorizonClips: meta.Clips()})
	if err != nil {
		return nil, err
	}
	sk := quantile.New(quantile.DefaultTargets()...)
	start := time.Now()
	for clip := 0; clip < meta.Clips(); clip++ {
		clipStart := time.Now()
		if _, err := eng.ProcessClip(video.ClipIdx(clip)); err != nil {
			return nil, err
		}
		sk.Observe(float64(time.Since(clipStart).Microseconds()))
	}
	wall := time.Since(start)
	r := &RuntimeResult{
		Query:               qs.Query.String(),
		InferenceTime:       meter.Total(),
		AlgorithmTime:       wall,
		TotalRuntime:        meter.Total() + wall,
		ModelInvocations:    meter.Calls(),
		EndToEndTrainingEst: endToEndTrainingCost,
	}
	r.InferenceShare = float64(r.InferenceTime) / float64(r.TotalRuntime)
	r.ClipP50 = time.Duration(sk.Query(0.5)) * time.Microsecond
	r.ClipP90 = time.Duration(sk.Query(0.9)) * time.Microsecond
	r.ClipP99 = time.Duration(sk.Query(0.99)) * time.Microsecond
	return r, nil
}

// DriftResult compares SVAQ and SVAQD under a sudden background change
// (the §3.3 surveillance motivation; companion to Figure 2).
type DriftResult struct {
	Query string
	SVAQ  float64
	SVAQD float64
}

// Drift runs the blowing-leaves query on a stream whose detector noise
// rate jumps 6× halfway through (peak traffic at a crossroad camera).
func (c *Context) Drift() (*DriftResult, error) {
	qs, err := c.youtube("q2")
	if err != nil {
		return nil, err
	}
	qs.World.Drift = synth.StepDrift(qs.World.Truth.Meta.Frames/2, 1, 6)
	q := annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}
	static, err := c.runOnline(qs, q, c.ObjProfile, c.ActProfile,
		svaq.Config{P0Object: FixedP0, P0Action: FixedP0})
	if err != nil {
		return nil, err
	}
	dyn, err := c.runOnline(qs, q, c.ObjProfile, c.ActProfile, svaq.Config{Dynamic: true})
	if err != nil {
		return nil, err
	}
	return &DriftResult{
		Query: q.String(),
		SVAQ:  f1(static.Seqs, static.Truth),
		SVAQD: f1(dyn.Seqs, dyn.Truth),
	}, nil
}
