// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic workloads of package synth: the
// online accuracy studies (Figures 2–5, Tables 3–5, the runtime
// decomposition of §5.2) and the offline performance studies (Tables
// 6–8). Each experiment returns typed rows and renders them to one Table
// (paper.go); DESIGN.md §3 maps each experiment to its modules and
// EXPERIMENTS.md records paper-reported versus measured values.
package experiments

import (
	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/metrics"
	"vaq/internal/svaq"
	"vaq/internal/synth"
	"vaq/internal/video"
)

// Context carries the shared knobs of an experiment run.
type Context struct {
	// Scale shrinks the workloads (1 = the paper-sized datasets; the
	// golden test runs at 0.3).
	Scale float64
	// ObjProfile / ActProfile are the default model profiles.
	ObjProfile detect.Profile
	ActProfile detect.Profile
}

// NewContext returns a full-scale context with the paper's default
// models (Mask R-CNN + I3D).
func NewContext() *Context {
	return &Context{Scale: 1, ObjProfile: detect.MaskRCNN, ActProfile: detect.I3D}
}

// youtube loads a YouTube query set at the context's scale.
func (c *Context) youtube(id string) (*synth.QuerySet, error) {
	return synth.YouTubeScaled(id, video.DefaultGeometry(), c.Scale)
}

// onlineRun executes one online engine over a full query set and
// returns the result sequences and the engine (for critical values,
// invocation counts and indicator logs).
type onlineRun struct {
	Seqs   interval.Set
	Engine *svaq.Engine
	Truth  interval.Set // ground-truth clip sequences for the query
	NClips int
}

// runOnline builds detectors for the set's world with the given
// profiles and runs the engine to completion.
func (c *Context) runOnline(qs *synth.QuerySet, q annot.Query, objP, actP detect.Profile, cfg svaq.Config) (*onlineRun, error) {
	scene := qs.World.Scene()
	det := detect.NewSimObjectDetector(scene, objP, nil)
	rec := detect.NewSimActionRecognizer(scene, actP, nil)
	meta := qs.World.Truth.Meta
	if cfg.HorizonClips == 0 {
		cfg.HorizonClips = meta.Clips()
	}
	eng, err := svaq.New(q, det, rec, meta.Geom, cfg)
	if err != nil {
		return nil, err
	}
	seqs, err := eng.Run(meta.Clips())
	if err != nil {
		return nil, err
	}
	truth, err := qs.World.Truth.GroundTruthClips(q)
	if err != nil {
		return nil, err
	}
	return &onlineRun{Seqs: seqs, Engine: eng, Truth: truth, NClips: meta.Clips()}, nil
}

// f1 is shorthand for the sequence-level F1 at the paper's η = 0.5.
func f1(pred, truth interval.Set) float64 {
	return metrics.SequenceF1(pred, truth, metrics.DefaultIOUThreshold).F1
}

// P0Grid is the background-probability grid of Figure 2.
var P0Grid = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// FixedP0 is the SVAQ operating point used from Figure 3 onward
// (chosen, as in the paper, from where the Figure 2 curve peaks).
const FixedP0 = 1e-4
