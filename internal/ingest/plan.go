package ingest

import (
	"fmt"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/plan"
	"vaq/internal/score"
	"vaq/internal/video"
)

// Per-unit score-mass caps of the simulated detector family: one frame
// contributes at most two object instances per label (scores clamped to
// [0, 1] each), one shot at most one action score. The planned-ingest
// score bounds — "a partially sampled clip's true table score is at
// most its sampled score plus missing·cap" — are sound exactly when the
// scoring function h is additive in the raw scores (the default scheme)
// and the per-unit mass respects these caps; deployments with different
// models override them in PlanInfo before saving.
const (
	DefaultObjUnitCap = 2.0
	DefaultActUnitCap = 1.0
)

// PlanInfo records the sparse-sampling state of a planned ingest (§4.2
// under the coarse-to-fine planner): which clips were only partially
// sampled and how much score mass the unsampled units could hide. The
// clip score tables of a planned ingest hold LOWER bounds for these
// clips; PlanInfo is what lets the offline query phase (package rvaq)
// keep its frontier bounds sound, and — given the original detectors —
// densify a clip back to its exact score.
type PlanInfo struct {
	// Rate and Levels echo the planner configuration that produced the
	// metadata.
	Rate   int `json:"rate"`
	Levels int `json:"levels,omitempty"`
	// ObjUnitCap / ActUnitCap bound one unsampled unit's contribution
	// to a clip's per-label score.
	ObjUnitCap float64 `json:"obj_unit_cap"`
	ActUnitCap float64 `json:"act_unit_cap"`
	// MissingFrames / MissingShots count the unsampled units per clip;
	// clips absent from a map were fully sampled. The counts are shared
	// across labels of the same family: one ladder per family per clip
	// densifies the units for all labels at once (one model invocation
	// scores every label). A window of at most the planner's MinSample
	// units runs dense, so at the default geometry (5 shots per clip)
	// MissingShots stays empty; it is kept for geometries with longer
	// shot windows and for manifests written by earlier versions, whose
	// planned ingests sampled shots too.
	MissingFrames map[int32]int `json:"missing_frames,omitempty"`
	MissingShots  map[int32]int `json:"missing_shots,omitempty"`
}

// Empty reports whether the metadata carries no partially sampled clip
// (nil receiver included): every table score is exact and the query
// phase can run the classic dense algorithm.
func (p *PlanInfo) Empty() bool {
	return p == nil || (len(p.MissingFrames) == 0 && len(p.MissingShots) == 0)
}

// FrameSlack bounds the score mass the unsampled frames of cid could
// add to any single object label's clip score; 0 for fully sampled
// clips.
func (p *PlanInfo) FrameSlack(cid int32) float64 {
	if p == nil {
		return 0
	}
	return float64(p.MissingFrames[cid]) * p.ObjUnitCap
}

// ShotSlack is FrameSlack for action labels.
func (p *PlanInfo) ShotSlack(cid int32) float64 {
	if p == nil {
		return 0
	}
	return float64(p.MissingShots[cid]) * p.ActUnitCap
}

// MaxFrameSlack is the largest FrameSlack over all clips — the sound
// per-table augmentation of the top frontier (τ_top) in RVAQ.
func (p *PlanInfo) MaxFrameSlack() float64 {
	if p == nil {
		return 0
	}
	m := 0
	for _, n := range p.MissingFrames {
		if n > m {
			m = n
		}
	}
	return float64(m) * p.ObjUnitCap
}

// MaxShotSlack is MaxFrameSlack for action tables.
func (p *PlanInfo) MaxShotSlack() float64 {
	if p == nil {
		return 0
	}
	m := 0
	for _, n := range p.MissingShots {
		if n > m {
			m = n
		}
	}
	return float64(m) * p.ActUnitCap
}

// NewDensifier builds the per-clip exact-score completion RVAQ uses to
// resolve rankings over a planned repository: given the same detectors
// the ingest ran (re-reads of already-sampled units hit the shared
// inference cache when one is armed), it recomputes the queried
// predicates' clip scores from every unit of the clip and combines them
// with g — exactly the score a dense ingest would have put in the
// tables. The clip's Track annotations are irrelevant to scores, so no
// tracker is needed.
func NewDensifier(vd *VideoData, det detect.ObjectDetector, rec detect.ActionRecognizer,
	q annot.Query, fns score.Functions) (func(cid int32) (float64, error), error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Objects) > 0 && det == nil {
		return nil, fmt.Errorf("ingest: densifier needs an object detector for %v", q.Objects)
	}
	if q.Action != "" && rec == nil {
		return nil, fmt.Errorf("ingest: densifier needs an action recognizer for %q", q.Action)
	}
	if fns.H == nil {
		fns = score.Default()
	}
	geom := vd.Meta.Geom
	nclips := vd.Meta.Clips()
	return func(cid int32) (float64, error) {
		if cid < 0 || int(cid) >= nclips {
			return 0, fmt.Errorf("ingest: densify clip %d outside [0, %d)", cid, nclips)
		}
		// The families hold per-clip scratch, so each call builds its own
		// and concurrent queries may share the densifier. Without trackers
		// the dense rung samples every unit.
		actScore := 1.0 // neutral, matching rvaq's ScoreClip
		if q.Action != "" {
			acts := actionFamily(rec, []annot.Label{q.Action}, geom, 0, fns.H)
			if err := acts.sample(video.ClipIdx(cid), plan.Config{}); err != nil {
				return 0, err
			}
			actScore = acts.scores[0]
		}
		objScores := make([]float64, len(q.Objects))
		if len(q.Objects) > 0 {
			objs := objectFamily(det, q.Objects, geom, 0, fns.H)
			if err := objs.sample(video.ClipIdx(cid), plan.Config{}); err != nil {
				return 0, err
			}
			for i, o := range q.Objects {
				objScores[i] = objs.scores[objs.slot[o]]
			}
		}
		return fns.G.CombineClip(actScore, objScores), nil
	}, nil
}
