package synth

import (
	"testing"

	"vaq/internal/annot"
	"vaq/internal/interval"
	"vaq/internal/video"
)

func smallSpec() Spec {
	return Spec{
		Name:             "t",
		Frames:           30000,
		Geom:             video.DefaultGeometry(),
		Action:           "run",
		ActionEpisodes:   EpisodeSpec{MeanOn: 50, MeanOff: 200},
		ActionDistractor: EpisodeSpec{MeanOn: 4, MeanOff: 500},
		Objects: []ObjectSpec{{
			Label:          "car",
			CorrWithAction: 0.8,
			BoundaryJitter: 20,
			Background:     EpisodeSpec{MeanOn: 200, MeanOff: 5000},
			Distractor:     EpisodeSpec{MeanOn: 15, MeanOff: 2000},
			Detectability:  1.5,
		}},
		ExtraActions: map[annot.Label]EpisodeSpec{"jump": {MeanOn: 30, MeanOff: 800}},
		Seed:         42,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Truth.Actions["run"].Equal(b.Truth.Actions["run"]) {
		t.Fatal("action timelines differ across identical generations")
	}
	if !a.Truth.Objects["car"].Equal(b.Truth.Objects["car"]) {
		t.Fatal("object timelines differ across identical generations")
	}
	if !a.ObjectDistractors["car"].Equal(b.ObjectDistractors["car"]) {
		t.Fatal("distractors differ across identical generations")
	}
}

// TestGenerateDeterministicManyExtraActions pins the sorted iteration
// over Spec.ExtraActions: with several entries, map-order iteration
// would consume the shared RNG in a different order each run and change
// every timeline drawn after the first extra action.
func TestGenerateDeterministicManyExtraActions(t *testing.T) {
	spec := smallSpec()
	spec.ExtraActions = map[annot.Label]EpisodeSpec{}
	for _, l := range []annot.Label{"jump", "walk", "sit", "wave", "fall", "spin"} {
		spec.ExtraActions[l] = EpisodeSpec{MeanOn: 30, MeanOff: 800}
	}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for l := range spec.ExtraActions {
		if !a.Truth.Actions[l].Equal(b.Truth.Actions[l]) {
			t.Fatalf("extra action %s differs across identical generations", l)
		}
	}
	if !a.Truth.Objects["car"].Equal(b.Truth.Objects["car"]) {
		t.Fatal("object timeline differs across identical generations")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(smallSpec())
	spec := smallSpec()
	spec.Seed = 43
	b, _ := Generate(spec)
	if a.Truth.Actions["run"].Equal(b.Truth.Actions["run"]) {
		t.Fatal("different seeds produced identical timelines")
	}
}

func TestGenerateContents(t *testing.T) {
	w, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Truth.Actions["run"]) == 0 {
		t.Fatal("no action episodes")
	}
	if len(w.Truth.Actions["jump"]) == 0 {
		t.Fatal("no extra action episodes")
	}
	if len(w.Truth.Objects["car"]) == 0 {
		t.Fatal("no object presence")
	}
	if w.LabelAccuracy["car"] != 1.5 {
		t.Fatalf("detectability not propagated: %v", w.LabelAccuracy)
	}
	// Correlation: a majority of action episodes should overlap car
	// presence (corr = 0.8 plus background).
	overlapping := 0
	shotLen := w.Truth.Meta.Geom.ShotLen
	for _, ep := range w.Truth.Actions["run"] {
		frames := interval.Set{{Lo: ep.Lo * shotLen, Hi: (ep.Hi+1)*shotLen - 1}}
		if w.Truth.Objects["car"].Intersect(frames).Len() > 0 {
			overlapping++
		}
	}
	total := len(w.Truth.Actions["run"])
	if float64(overlapping)/float64(total) < 0.6 {
		t.Fatalf("only %d/%d action episodes overlap the correlated object", overlapping, total)
	}
}

func TestGenerateValidation(t *testing.T) {
	spec := smallSpec()
	spec.Frames = 10
	if _, err := Generate(spec); err == nil {
		t.Error("too-short video accepted")
	}
	spec = smallSpec()
	spec.Geom.ShotLen = 0
	if _, err := Generate(spec); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestScaled(t *testing.T) {
	spec := smallSpec()
	s := spec.Scaled(0.1)
	if s.Frames != 3000 {
		t.Fatalf("Scaled frames = %d", s.Frames)
	}
	if spec.Scaled(1).Frames != spec.Frames {
		t.Fatal("scale 1 changed frames")
	}
	tiny := spec.Scaled(1e-9)
	if tiny.Frames != spec.Geom.ClipLen() {
		t.Fatalf("tiny scale should floor at one clip, got %d", tiny.Frames)
	}
}

func TestDriftProfiles(t *testing.T) {
	d := StepDrift(100, 1, 5)
	if d(99) != 1 || d(100) != 5 {
		t.Error("StepDrift boundary wrong")
	}
}

func TestEpisodesRespectBounds(t *testing.T) {
	w, _ := Generate(smallSpec())
	nshots := w.Truth.Meta.Shots()
	for _, ep := range w.Truth.Actions["run"] {
		if ep.Lo < 0 || ep.Hi >= nshots {
			t.Fatalf("episode %v out of [0,%d)", ep, nshots)
		}
	}
	for _, ep := range w.Truth.Objects["car"] {
		if ep.Lo < 0 || ep.Hi >= w.Truth.Meta.Frames {
			t.Fatalf("object interval %v out of range", ep)
		}
	}
}

// Episode lengths should track the spec's means (within sampling error).
func TestEpisodeStatistics(t *testing.T) {
	spec := smallSpec()
	spec.Frames = 600000 // long video for stable statistics
	spec.ActionEpisodes = EpisodeSpec{MeanOn: 40, MeanOff: 160}
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	eps := w.Truth.Actions["run"]
	if len(eps) < 50 {
		t.Fatalf("too few episodes for statistics: %d", len(eps))
	}
	total := 0
	for _, ep := range eps {
		total += ep.Len()
	}
	meanOn := float64(total) / float64(len(eps))
	if meanOn < 25 || meanOn > 55 {
		t.Fatalf("mean episode length %v far from spec 40", meanOn)
	}
	// Duty cycle ≈ MeanOn/(MeanOn+MeanOff) = 0.2.
	duty := float64(eps.Len()) / float64(w.Truth.Meta.Shots())
	if duty < 0.12 || duty > 0.28 {
		t.Fatalf("duty cycle %v far from 0.2", duty)
	}
}

// Background object episodes snap to whole clips (no ground-truth
// slivers; see the snapToClips comment).
func TestBackgroundEpisodesClipAligned(t *testing.T) {
	spec := smallSpec()
	spec.Objects[0].CorrWithAction = 0 // background only
	spec.Objects[0].BoundaryJitter = 0
	w, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	clipLen := spec.Geom.ClipLen()
	for _, iv := range w.Truth.Objects["car"] {
		if iv.Lo%clipLen != 0 {
			t.Fatalf("background episode start %d not clip-aligned", iv.Lo)
		}
		if (iv.Hi+1)%clipLen != 0 && iv.Hi != spec.Frames-1 {
			t.Fatalf("background episode end %d not clip-aligned", iv.Hi)
		}
	}
}
