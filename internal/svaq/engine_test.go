package svaq

import (
	"reflect"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/metrics"
	"vaq/internal/video"
)

// testWorld builds a small deterministic scene: one action with three
// episodes and one correlated object.
func testWorld(t *testing.T, seed int64) (*detect.Scene, annot.Query) {
	t.Helper()
	geom := video.DefaultGeometry()
	meta := video.Meta{Name: "t", Frames: 60000, Geom: geom} // 1200 clips
	truth := annot.NewVideo(meta)
	// Action on shots: three episodes.
	truth.AddAction("run", interval.Set{{Lo: 100, Hi: 179}, {Lo: 2000, Hi: 2119}, {Lo: 4500, Hi: 4559}})
	// Object covers the action episodes (in frames) with margin, plus a
	// background stretch.
	truth.AddObject("car", interval.Set{
		{Lo: 950, Hi: 1850}, {Lo: 19900, Hi: 21300}, {Lo: 44900, Hi: 45700},
		{Lo: 30000, Hi: 31000},
	})
	scene := &detect.Scene{Truth: truth, Seed: seed}
	return scene, annot.Query{Action: "run", Objects: []annot.Label{"car"}}
}

func engines(t *testing.T, scene *detect.Scene, q annot.Query, cfg Config) *Engine {
	t.Helper()
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	e, err := New(q, det, rec, scene.Truth.Meta.Geom, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	scene, q := testWorld(t, 1)
	geom := scene.Truth.Meta.Geom
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	if _, err := New(annot.Query{}, det, rec, geom, Config{}); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := New(q, det, rec, video.Geometry{}, Config{}); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := New(q, det, nil, geom, Config{}); err == nil {
		t.Error("missing recognizer accepted")
	}
	if _, err := New(q, nil, rec, geom, Config{}); err == nil {
		t.Error("missing detector accepted")
	}
	if _, err := New(annot.Query{Objects: []annot.Label{"car"}}, det, nil, geom, Config{}); err != nil {
		t.Errorf("object-only query without recognizer rejected: %v", err)
	}
}

func TestIdealModelsPerfectF1(t *testing.T) {
	scene, q := testWorld(t, 2)
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	nclips := scene.Truth.Meta.Clips()
	for _, dyn := range []bool{false, true} {
		e, err := New(q, det, rec, scene.Truth.Meta.Geom, Config{Dynamic: dyn, HorizonClips: nclips})
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := e.Run(nclips)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := scene.Truth.GroundTruthClips(q)
		if err != nil {
			t.Fatal(err)
		}
		got := metrics.SequenceF1(seqs, truth, 0.5)
		if got.F1 != 1 {
			t.Fatalf("dynamic=%v: ideal models F1 = %v (%+v)\nseqs=%v\ntruth=%v",
				dyn, got.F1, got, seqs, truth)
		}
	}
}

func TestSVAQDBeatsBadlyTunedSVAQ(t *testing.T) {
	scene, q := testWorld(t, 3)
	nclips := scene.Truth.Meta.Clips()
	truth, _ := scene.Truth.GroundTruthClips(q)
	run := func(cfg Config) float64 {
		cfg.HorizonClips = nclips
		e := engines(t, scene, q, cfg)
		seqs, err := e.Run(nclips)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.SequenceF1(seqs, truth, 0.5).F1
	}
	static := run(Config{P0Object: 0.2, P0Action: 0.2}) // absurd background
	dynamic := run(Config{Dynamic: true, P0Object: 0.2, P0Action: 0.2})
	if dynamic <= static {
		t.Fatalf("SVAQD (%v) should beat badly tuned SVAQ (%v)", dynamic, static)
	}
	if dynamic < 0.8 {
		t.Fatalf("SVAQD F1 = %v, want ≥ 0.8", dynamic)
	}
}

func TestSVAQDPriorIndependent(t *testing.T) {
	scene, q := testWorld(t, 4)
	nclips := scene.Truth.Meta.Clips()
	var first interval.Set
	for i, p0 := range []float64{1e-6, 1e-3, 1e-1} {
		e := engines(t, scene, q, Config{Dynamic: true, P0Object: p0, P0Action: p0, HorizonClips: nclips})
		seqs, err := e.Run(nclips)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = seqs
			continue
		}
		if !seqs.Equal(first) {
			t.Fatalf("p0=%v produced different SVAQD output:\n%v\nvs\n%v", p0, seqs, first)
		}
	}
}

func TestProcessClipOrderEnforced(t *testing.T) {
	scene, q := testWorld(t, 5)
	e := engines(t, scene, q, Config{HorizonClips: 100})
	if _, err := e.ProcessClip(5); err == nil {
		t.Fatal("out-of-order clip accepted")
	}
	if _, err := e.ProcessClip(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessClip(0); err == nil {
		t.Fatal("replayed clip accepted")
	}
}

func TestShortCircuitSavesInvocations(t *testing.T) {
	scene, q := testWorld(t, 6)
	nclips := scene.Truth.Meta.Clips()
	full := engines(t, scene, q, Config{HorizonClips: nclips})
	sc := engines(t, scene, q, Config{HorizonClips: nclips, ShortCircuit: true})
	if _, err := full.Run(nclips); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(nclips); err != nil {
		t.Fatal(err)
	}
	if sc.Invocations() >= full.Invocations() {
		t.Fatalf("short-circuit did not save: %d vs %d", sc.Invocations(), full.Invocations())
	}
	// Both report identical sequences for a static engine (indicators
	// identical; only skipped work differs).
	if !sc.Sequences().Equal(full.Sequences()) {
		t.Fatalf("short-circuit changed static results:\n%v\nvs\n%v", sc.Sequences(), full.Sequences())
	}
}

func TestActionOnlyAndObjectOnlyQueries(t *testing.T) {
	scene, _ := testWorld(t, 7)
	nclips := scene.Truth.Meta.Clips()
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	geom := scene.Truth.Meta.Geom

	aq := annot.Query{Action: "run"}
	e, err := New(aq, nil, rec, geom, Config{HorizonClips: nclips})
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := e.Run(nclips)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := scene.Truth.GroundTruthClips(aq)
	if got := metrics.SequenceF1(seqs, truth, 0.5); got.F1 != 1 {
		t.Fatalf("action-only ideal F1 = %v", got.F1)
	}

	oq := annot.Query{Objects: []annot.Label{"car"}}
	e2, err := New(oq, det, nil, geom, Config{HorizonClips: nclips})
	if err != nil {
		t.Fatal(err)
	}
	seqs2, err := e2.Run(nclips)
	if err != nil {
		t.Fatal(err)
	}
	truth2, _ := scene.Truth.GroundTruthClips(oq)
	if got := metrics.SequenceF1(seqs2, truth2, 0.5); got.F1 != 1 {
		t.Fatalf("object-only ideal F1 = %v", got.F1)
	}
}

func TestCriticalValuesExposed(t *testing.T) {
	scene, q := testWorld(t, 8)
	e := engines(t, scene, q, Config{HorizonClips: 1000, P0Object: 1e-3, P0Action: 1e-3})
	obj, act := e.CriticalValues()
	if obj["car"] < 1 || act < 1 {
		t.Fatalf("critical values = %v / %d", obj, act)
	}
	if p := e.find(predObject, "car").trk.P(); p != 1e-3 {
		t.Fatalf("background p(car) = %v", p)
	}
	if p := e.find(predAction, "run").trk.P(); p != 1e-3 {
		t.Fatalf("background p(run) = %v", p)
	}
	if e.find(predObject, "ghost") != nil {
		t.Fatal("predicate found for an unqueried label")
	}
}

func TestRecordIndicators(t *testing.T) {
	scene, q := testWorld(t, 9)
	e := engines(t, scene, q, Config{HorizonClips: 100, RecordIndicators: true})
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	geom := scene.Truth.Meta.Geom
	if got := len(e.ObjectIndicators("car")); got != 100*geom.ClipLen() {
		t.Fatalf("object log length = %d", got)
	}
	if got := len(e.ActionIndicators()); got != 100*geom.ShotsPerClip {
		t.Fatalf("action log length = %d", got)
	}
	e2 := engines(t, scene, q, Config{HorizonClips: 100})
	if _, err := e2.Run(100); err != nil {
		t.Fatal(err)
	}
	if e2.ObjectIndicators("car") != nil || e2.ActionIndicators() != nil {
		t.Fatal("indicator logs recorded without RecordIndicators")
	}
}

func TestRunIdempotentContinuation(t *testing.T) {
	scene, q := testWorld(t, 10)
	e := engines(t, scene, q, Config{HorizonClips: 200})
	for c := 0; c < 50; c++ {
		if _, err := e.ProcessClip(video.ClipIdx(c)); err != nil {
			t.Fatal(err)
		}
	}
	// Run continues from where ProcessClip stopped.
	seqs, err := e.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	whole := engines(t, scene, q, Config{HorizonClips: 200})
	want, err := whole.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if !seqs.Equal(want) {
		t.Fatalf("piecewise run differs: %v vs %v", seqs, want)
	}
}

// TestSequencesIncremental: the result set the engine extends as each
// clip lands equals interval.FromIndicators over every clip's indicator
// so far, after every clip, and each call hands out its own copy.
func TestSequencesIncremental(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		scene, q := testWorld(t, seed)
		clips := scene.Truth.Meta.Clips()
		e := engines(t, scene, q, Config{HorizonClips: clips, Dynamic: seed == 3})
		var ind []bool
		for c := 0; c < clips; c++ {
			res, err := e.ProcessClip(video.ClipIdx(c))
			if err != nil {
				t.Fatal(err)
			}
			ind = append(ind, res.Positive)
			got, want := e.Sequences(), interval.FromIndicators(ind)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d clip %d: incremental %v, from indicators %v", seed, c, got, want)
			}
			if len(got) > 0 {
				got[0].Lo = -1
				if e.Sequences()[0].Lo == -1 {
					t.Fatalf("seed %d clip %d: Sequences shares the engine's set", seed, c)
				}
			}
		}
		if n := len(e.Sequences()); n < 2 {
			t.Fatalf("seed %d: %d result sequences, the check saw too few runs", seed, n)
		}
	}
}
