package synth

import (
	"fmt"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// Scene adapts the generated world for the simulated detectors.
func (w *World) Scene() *detect.Scene {
	return &detect.Scene{
		Truth:             w.Truth,
		ObjectDistractors: w.ObjectDistractors,
		ActionDistractors: w.ActionDistractors,
		Drift:             w.Drift,
		LabelAccuracy:     w.LabelAccuracy,
		Seed:              w.Seed,
	}
}

// QuerySet is one evaluation workload: a generated world plus the query
// issued against it, mirroring one row of Table 1 or Table 2.
type QuerySet struct {
	ID    string
	World *World
	Query annot.Query
	// Minutes is the paper-reported total video length of the set.
	Minutes int
}

// baseObject builds the standard object spec used across the YouTube
// sets: presence correlated with the action, some background presence,
// and occasional distractor bursts that confuse detectors.
func baseObject(label annot.Label, corr float64) ObjectSpec {
	return ObjectSpec{
		Label:          label,
		CorrWithAction: corr,
		BoundaryJitter: 40,
		Background:     EpisodeSpec{MeanOn: 250, MeanOff: 9000},
		Distractor:     EpisodeSpec{MeanOn: 18, MeanOff: 2500},
	}
}

// personObject is the highly correlated, highly detectable "person"
// predicate that Table 3 relies on.
func personObject() ObjectSpec {
	o := baseObject("person", 0.97)
	o.Background = EpisodeSpec{MeanOn: 400, MeanOff: 5000}
	o.Detectability = 2.5
	return o
}

// youtubeRow captures one row of Table 1.
type youtubeRow struct {
	id      string
	action  annot.Label
	objects []annot.Label
	corr    []float64
	minutes int
}

var youtubeRows = []youtubeRow{
	{"q1", "washing_dishes", []annot.Label{"faucet", "oven"}, []float64{0.85, 0.60}, 57},
	{"q2", "blowing_leaves", []annot.Label{"car", "plant"}, []float64{0.60, 0.80}, 52},
	{"q3", "walking_the_dog", []annot.Label{"tree", "chair"}, []float64{0.80, 0.55}, 127},
	{"q4", "drinking_beer", []annot.Label{"bottle", "chair"}, []float64{0.90, 0.70}, 63},
	{"q5", "volleyball", []annot.Label{"tree"}, []float64{0.75}, 110},
	{"q6", "playing_rubik_cube", []annot.Label{"clock"}, []float64{0.65}, 89},
	{"q7", "cleaning_sink", []annot.Label{"faucet", "knife"}, []float64{0.90, 0.55}, 84},
	{"q8", "kneeling", []annot.Label{"tree"}, []float64{0.70}, 104},
	{"q9", "doing_crunches", []annot.Label{"chair"}, []float64{0.75}, 85},
	{"q10", "blow_drying_hair", []annot.Label{"kid"}, []float64{0.80}, 138},
	{"q11", "washing_hands", []annot.Label{"faucet", "dish"}, []float64{0.90, 0.70}, 113},
	{"q12", "archery", []annot.Label{"sunglasses"}, []float64{0.60}, 156},
}

// YouTubeSpec returns the generation spec of one YouTube set (q1..q12),
// so callers can override the geometry (Figures 4–5 vary the clip size).
func YouTubeSpec(id string, geom video.Geometry) (Spec, annot.Query, error) {
	for _, row := range youtubeRows {
		if row.id != id {
			continue
		}
		spec := Spec{
			Name:   id + "_" + string(row.action),
			Frames: geom.FramesForDuration(float64(row.minutes) * 60),
			Geom:   geom,
			Action: row.action,
			// Activity episodes last ~25s (75 shots) with ~90s gaps.
			ActionEpisodes:   EpisodeSpec{MeanOn: 75, MeanOff: 270},
			ActionDistractor: EpisodeSpec{MeanOn: 4, MeanOff: 1400},
			Seed:             int64(1000 + len(row.id)*7 + int(row.id[len(row.id)-1])),
		}
		spec.Objects = append(spec.Objects, personObject())
		for i, o := range row.objects {
			spec.Objects = append(spec.Objects, baseObject(o, row.corr[i]))
		}
		q := annot.Query{Action: row.action, Objects: row.objects}
		return spec, q, nil
	}
	return Spec{}, annot.Query{}, fmt.Errorf("synth: unknown YouTube set %q", id)
}

// YouTubeScaled generates one of the paper's twelve YouTube query sets
// with the given geometry at a fraction of its full length (scale 1 is
// the full set).
func YouTubeScaled(id string, geom video.Geometry, scale float64) (*QuerySet, error) {
	spec, q, err := YouTubeSpec(id, geom)
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(scale)
	w, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	minutes := 0
	for _, row := range youtubeRows {
		if row.id == id {
			minutes = row.minutes
		}
	}
	return &QuerySet{ID: id, World: w, Query: q, Minutes: minutes}, nil
}

// YouTubeIDs lists the twelve set identifiers of Table 1 in order.
func YouTubeIDs() []string {
	out := make([]string, len(youtubeRows))
	for i, r := range youtubeRows {
		out[i] = r.id
	}
	return out
}

// movieRow captures one row of Table 2.
type movieRow struct {
	name    string
	action  annot.Label
	objects []annot.Label
	minutes int
	seed    int64
}

var movieRows = []movieRow{
	{"coffee_and_cigarettes", "smoking", []annot.Label{"wine_glass", "cup"}, 96, 21001},
	{"iron_man", "robot_dancing", []annot.Label{"car", "airplane"}, 126, 21002},
	{"star_wars_3", "archery", []annot.Label{"bird", "cat"}, 134, 21003},
	{"titanic", "kissing", []annot.Label{"surfboard", "boat"}, 194, 21004},
}

// movieExtraObjects is the rest of the object universe a repository
// ingests: the ingestion phase materializes tables for every label the
// deployed models support, not just the queried ones (§4.2).
var movieExtraObjects = []annot.Label{
	"person", "chair", "table", "bottle", "phone", "dog", "horse", "tv",
	"book", "clock", "umbrella", "hat",
}

// movieExtraActions are additional recognizable actions for ad-hoc
// queries against the repository.
var movieExtraActions = []annot.Label{
	"running", "jumping", "dancing", "eating", "driving", "fighting",
	"swimming", "talking",
}

// MovieSpec returns the generation spec of one Table 2 movie.
func MovieSpec(name string) (Spec, annot.Query, error) {
	for _, row := range movieRows {
		if row.name != name {
			continue
		}
		geom := video.DefaultGeometry()
		spec := Spec{
			Name:   row.name,
			Frames: geom.FramesForDuration(float64(row.minutes) * 60),
			Geom:   geom,
			Action: row.action,
			// Movie scenes with the queried action recur throughout the
			// film with widely varying lengths, yielding ~20 candidate
			// sequences per movie as in the paper's Table 6 setting.
			ActionEpisodes:   EpisodeSpec{MeanOn: 90, MeanOff: 420},
			ActionDistractor: EpisodeSpec{MeanOn: 4, MeanOff: 900},
			ExtraActions:     map[annot.Label]EpisodeSpec{},
			Seed:             row.seed,
		}
		for i, o := range row.objects {
			spec.Objects = append(spec.Objects, baseObject(o, 0.9-0.15*float64(i)))
		}
		for i, o := range movieExtraObjects {
			os := baseObject(o, 0.1)
			os.Background = EpisodeSpec{MeanOn: 300 + 40*float64(i), MeanOff: 4000 + 500*float64(i)}
			spec.Objects = append(spec.Objects, os)
		}
		for i, a := range movieExtraActions {
			spec.ExtraActions[a] = EpisodeSpec{MeanOn: 40 + 10*float64(i), MeanOff: 900 + 100*float64(i)}
		}
		q := annot.Query{Action: row.action, Objects: row.objects}
		return spec, q, nil
	}
	return Spec{}, annot.Query{}, fmt.Errorf("synth: unknown movie %q", name)
}

// MovieScaled generates one of the Table 2 movies at a fraction of its
// full length (scale 1 is the full movie).
func MovieScaled(name string, scale float64) (*QuerySet, error) {
	spec, q, err := MovieSpec(name)
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(scale)
	w, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	minutes := 0
	for _, row := range movieRows {
		if row.name == name {
			minutes = row.minutes
		}
	}
	return &QuerySet{ID: name, World: w, Query: q, Minutes: minutes}, nil
}

// MovieNames lists the Table 2 movies in order.
func MovieNames() []string {
	out := make([]string, len(movieRows))
	for i, r := range movieRows {
		out[i] = r.name
	}
	return out
}
