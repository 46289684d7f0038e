// Package synth generates synthetic video worlds: ground-truth label
// timelines plus the auxiliary structure the simulated detectors need
// (distractor intervals where detectors are confused, and background
// rate drift profiles). It replaces the paper's real videos (ActivityNet
// clips, movies) — see DESIGN.md §1 for why this substitution preserves
// the behaviour the algorithms are sensitive to.
//
// All generation is deterministic given a seed.
package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"vaq/internal/annot"
	"vaq/internal/interval"
	"vaq/internal/video"
)

// EpisodeSpec describes an on/off renewal process for one label's
// presence: episodes of geometric mean length MeanOn units separated by
// gaps of geometric mean length MeanOff units.
type EpisodeSpec struct {
	MeanOn  float64 // mean episode length in occurrence units
	MeanOff float64 // mean gap length in occurrence units
}

// ObjectSpec describes one object label in a world.
type ObjectSpec struct {
	Label annot.Label
	// CorrWithAction is the probability that the object is present
	// during any given action episode (with jittered boundaries). Highly
	// correlated predicates (e.g. "person" during "blowing leaves") have
	// values near 1.
	CorrWithAction float64
	// BoundaryJitter is the maximum number of frames by which the
	// object's presence interval extends or recedes around a correlated
	// action episode.
	BoundaryJitter int
	// Background is the object's presence process outside action
	// episodes (frames). Zero value means no background presence.
	Background EpisodeSpec
	// Distractor is the process generating confusable content (frames)
	// that inflates the detector's false positive rate. Zero value means
	// no distractors.
	Distractor EpisodeSpec
	// Detectability scales how reliably detectors find this label
	// (see detect.Scene.LabelAccuracy); 0 means the default 1.
	Detectability float64
}

// Spec describes a whole synthetic video.
type Spec struct {
	Name   string
	Frames int
	Geom   video.Geometry
	// Action is the single annotated action of the video (the paper's
	// YouTube sets are grouped by action type).
	Action annot.Label
	// ActionEpisodes is the action's episode process, in shots.
	ActionEpisodes EpisodeSpec
	// ActionDistractor generates shots that confuse the action
	// recognizer (e.g. visually similar motion), in shots.
	ActionDistractor EpisodeSpec
	// Objects lists the annotated object labels.
	Objects []ObjectSpec
	// ExtraActions are additional annotated actions uncorrelated with
	// the primary one (so repositories answer ad-hoc queries), in shots.
	ExtraActions map[annot.Label]EpisodeSpec
	Seed         int64
}

// World is a generated synthetic video: the ground truth plus detector-
// facing structure.
type World struct {
	Truth *annot.Video
	// ObjectDistractors holds, per object label, frame intervals of
	// confusable content.
	ObjectDistractors map[annot.Label]interval.Set
	// ActionDistractors holds, per action label, shot intervals of
	// confusable content.
	ActionDistractors map[annot.Label]interval.Set
	// Drift optionally scales detector false-positive rates over time;
	// nil means constant. The argument is the frame index for objects
	// (the shot's first frame for actions); the result multiplies the
	// profile's base FPR.
	Drift func(frame int) float64
	// LabelAccuracy holds per-label detectability factors (see
	// detect.Scene.LabelAccuracy); labels not listed use factor 1.
	LabelAccuracy map[annot.Label]float64
	Seed          int64
}

// episodes draws an alternating on/off renewal process over [0, total)
// and returns the on intervals.
func episodes(rng *rand.Rand, total int, spec EpisodeSpec) interval.Set {
	if spec.MeanOn <= 0 || total <= 0 {
		return nil
	}
	meanOff := spec.MeanOff
	if meanOff <= 0 {
		meanOff = float64(total) // effectively one episode
	}
	var ivs []interval.Interval
	pos := geometric(rng, meanOff) // initial gap
	for pos < total {
		on := 1 + geometric(rng, spec.MeanOn-1)
		hi := pos + on - 1
		if hi >= total {
			hi = total - 1
		}
		ivs = append(ivs, interval.Interval{Lo: pos, Hi: hi})
		pos = hi + 1 + 1 + geometric(rng, meanOff-1)
	}
	return interval.Normalize(ivs)
}

// geometric draws a geometric variate with the given mean (≥ 0).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (mean + 1)
	n := 0
	for rng.Float64() >= p {
		n++
		if n > 1<<20 { // safety bound
			break
		}
	}
	return n
}

// Scaled returns a copy of the spec with the video length scaled by the
// given factor (floored at one clip); quick test and bench modes use it
// to shrink the paper-sized workloads.
func (s Spec) Scaled(scale float64) Spec {
	if scale <= 0 || scale == 1 {
		return s
	}
	s.Frames = int(float64(s.Frames) * scale)
	if minFrames := s.Geom.ClipLen(); s.Frames < minFrames {
		s.Frames = minFrames
	}
	return s
}

// Generate builds a deterministic World from the spec.
func Generate(spec Spec) (*World, error) {
	if err := spec.Geom.Validate(); err != nil {
		return nil, err
	}
	if spec.Frames < spec.Geom.ClipLen() {
		return nil, fmt.Errorf("synth: video %q too short: %d frames", spec.Name, spec.Frames)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	meta := video.Meta{Name: spec.Name, Frames: spec.Frames, Geom: spec.Geom}
	truth := annot.NewVideo(meta)
	w := &World{
		Truth:             truth,
		ObjectDistractors: map[annot.Label]interval.Set{},
		ActionDistractors: map[annot.Label]interval.Set{},
		LabelAccuracy:     map[annot.Label]float64{},
		Seed:              spec.Seed,
	}

	nshots := meta.Shots()
	actionShots := episodes(rng, nshots, spec.ActionEpisodes)
	if spec.Action != "" {
		truth.AddAction(spec.Action, actionShots)
		w.ActionDistractors[spec.Action] = episodes(rng, nshots, spec.ActionDistractor)
	}
	// Iterate the extra actions in sorted order: ranging over the map
	// directly would consume the seeded rng in a different order each
	// run, making every label's episode set — and everything downstream
	// of the generated world — nondeterministic.
	extraActions := make([]annot.Label, 0, len(spec.ExtraActions))
	for a := range spec.ExtraActions {
		extraActions = append(extraActions, a)
	}
	sort.Slice(extraActions, func(i, j int) bool { return extraActions[i] < extraActions[j] })
	for _, a := range extraActions {
		truth.AddAction(a, episodes(rng, nshots, spec.ExtraActions[a]))
	}

	shotLen := spec.Geom.ShotLen
	for _, os := range spec.Objects {
		var frames []interval.Interval
		// Correlated presence around action episodes.
		for _, ep := range actionShots {
			if rng.Float64() >= os.CorrWithAction {
				continue
			}
			lo := ep.Lo*shotLen - jitter(rng, os.BoundaryJitter)
			hi := (ep.Hi+1)*shotLen - 1 + jitter(rng, os.BoundaryJitter)
			if lo < 0 {
				lo = 0
			}
			frames = append(frames, interval.Interval{Lo: lo, Hi: hi})
		}
		// Background presence episodes snap to clip boundaries: real
		// annotators do not label sub-second slivers, and un-snapped
		// random endpoints would seed isolated one-clip ground-truth
		// fragments no convention can score consistently.
		background := snapToClips(episodes(rng, spec.Frames, os.Background), spec.Geom.ClipLen(), spec.Frames)
		set := interval.Normalize(frames).Union(background)
		truth.AddObject(os.Label, set)
		w.ObjectDistractors[os.Label] = episodes(rng, spec.Frames, os.Distractor)
		if os.Detectability > 0 {
			w.LabelAccuracy[os.Label] = os.Detectability
		}
	}
	return w, nil
}

// snapToClips expands each interval to whole clips.
func snapToClips(s interval.Set, clipLen, frames int) interval.Set {
	ivs := make([]interval.Interval, len(s))
	for i, iv := range s {
		lo := (iv.Lo / clipLen) * clipLen
		hi := (iv.Hi/clipLen+1)*clipLen - 1
		if hi >= frames {
			hi = frames - 1
		}
		ivs[i] = interval.Interval{Lo: lo, Hi: hi}
	}
	return interval.Normalize(ivs)
}

func jitter(rng *rand.Rand, maxAbs int) int {
	if maxAbs <= 0 {
		return 0
	}
	return rng.Intn(2*maxAbs+1) - maxAbs
}

// StepDrift returns a drift profile that multiplies the base false
// positive rate by low before frame `change` and by high afterwards — a
// sudden change of the stream's statistical properties (§3.3's
// surveillance-camera motivation).
func StepDrift(change int, low, high float64) func(int) float64 {
	return func(frame int) float64 {
		if frame < change {
			return low
		}
		return high
	}
}
