package svaq

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/plan"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// cnfWorld has two actions and two objects with known, disjoint
// placements so clause logic is directly checkable with ideal models.
func cnfWorld(t *testing.T) *detect.Scene {
	t.Helper()
	geom := video.DefaultGeometry()
	meta := video.Meta{Name: "cnf", Frames: 20000, Geom: geom} // 400 clips
	truth := annot.NewVideo(meta)
	// In shots (5 per clip): runA on clips 20..39, runB on clips 60..79.
	truth.AddAction("runA", interval.Set{{Lo: 100, Hi: 199}})
	truth.AddAction("runB", interval.Set{{Lo: 300, Hi: 399}})
	// In frames (50 per clip): car on clips 20..49, dog on clips 70..89.
	truth.AddObject("car", interval.Set{{Lo: 1000, Hi: 2499}})
	truth.AddObject("dog", interval.Set{{Lo: 3500, Hi: 4499}})
	return &detect.Scene{Truth: truth, Seed: 55}
}

func idealCNF(t *testing.T, scene *detect.Scene, clauses []Clause) interval.Set {
	t.Helper()
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	nclips := scene.Truth.Meta.Clips()
	e, err := NewClauses(clauses, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: nclips})
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := e.Run(nclips)
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

func TestCNFDisjunctionOfActions(t *testing.T) {
	scene := cnfWorld(t)
	seqs := idealCNF(t, scene, []Clause{{Actions: []annot.Label{"runA", "runB"}}})
	want := interval.Set{{Lo: 20, Hi: 39}, {Lo: 60, Hi: 79}}
	if !seqs.Equal(want) {
		t.Fatalf("runA OR runB = %v, want %v", seqs, want)
	}
}

func TestCNFConjunctionOfClauses(t *testing.T) {
	scene := cnfWorld(t)
	// (runA OR runB) AND car: car spans clips 20..49 ⊇ runA only.
	seqs := idealCNF(t, scene, []Clause{
		{Actions: []annot.Label{"runA", "runB"}},
		{Objects: []annot.Label{"car"}},
	})
	want := interval.Set{{Lo: 20, Hi: 39}}
	if !seqs.Equal(want) {
		t.Fatalf("got %v, want %v", seqs, want)
	}
}

func TestCNFTwoActionsConjunction(t *testing.T) {
	scene := cnfWorld(t)
	// runA AND runB never co-occur.
	seqs := idealCNF(t, scene, []Clause{
		{Actions: []annot.Label{"runA"}},
		{Actions: []annot.Label{"runB"}},
	})
	if len(seqs) != 0 {
		t.Fatalf("disjoint actions conjunction = %v", seqs)
	}
}

func TestCNFMixedClause(t *testing.T) {
	scene := cnfWorld(t)
	// runB OR dog: clips 60..89 (runB 60..79, dog 70..89).
	seqs := idealCNF(t, scene, []Clause{
		{Actions: []annot.Label{"runB"}, Objects: []annot.Label{"dog"}},
	})
	want := interval.Set{{Lo: 60, Hi: 89}}
	if !seqs.Equal(want) {
		t.Fatalf("got %v, want %v", seqs, want)
	}
}

func TestCNFValidation(t *testing.T) {
	scene := cnfWorld(t)
	geom := scene.Truth.Meta.Geom
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	if _, err := NewClauses(nil, det, rec, geom, Config{}); err == nil {
		t.Error("no clauses accepted")
	}
	if _, err := NewClauses([]Clause{{}}, det, rec, geom, Config{}); err == nil {
		t.Error("empty clause accepted")
	}
	if _, err := NewClauses([]Clause{{Objects: []annot.Label{"car"}}}, nil, rec, geom, Config{}); err == nil {
		t.Error("missing detector accepted")
	}
	if _, err := NewClauses([]Clause{{Actions: []annot.Label{"runA"}}}, det, nil, geom, Config{}); err == nil {
		t.Error("missing recognizer accepted")
	}
	// One validation site for both constructors: what New rejects,
	// NewClauses rejects.
	car := []Clause{{Objects: []annot.Label{"car"}}}
	if _, err := NewClauses(car, det, rec, geom, Config{Plan: plan.Config{Rate: -2}}); err == nil {
		t.Error("negative plan rate accepted")
	}
	if _, err := NewClauses(car, det, rec, geom, Config{RecordIndicators: true, Plan: plan.Config{Rate: 4}}); err == nil {
		t.Error("RecordIndicators with an enabled Plan accepted")
	}
	if _, err := NewClauses(car, det, rec, video.Geometry{}, Config{}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

func TestCNFOrderEnforced(t *testing.T) {
	scene := cnfWorld(t)
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	e, err := NewClauses([]Clause{{Actions: []annot.Label{"runA"}}}, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessClip(3); err == nil {
		t.Fatal("out-of-order clip accepted")
	}
}

// kcrit renders every predicate's final critical value, sorted by name.
func kcrit(e *Engine) string {
	parts := make([]string, len(e.preds))
	for i, p := range e.preds {
		parts[i] = fmt.Sprintf("%s=%d", p.name, p.trk.K())
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// runBOrDogStatic is the SVAQ result of "runB OR dog" on the noisy
// cnfWorld (p0 = 1e-4 admits many background clips).
const runBOrDogStatic = "{[0,4] [7,8] [12,14] [17,17] [19,19] [21,21] [23,23] [27,28] [30,30] [32,32] [34,34] [37,37] [41,41] [45,45] [50,50] [52,53] [55,55] [57,57] [59,90] [95,97] [103,104] [110,110] [113,116] [119,120] [122,122] [127,127] [129,130] [133,135] [139,139] [143,143] [146,146] [148,149] [155,158] [160,164] [169,169] [173,176] [178,179] [183,183] [185,186] [189,189] [191,191] [193,196] [200,200] [203,203] [207,207] [211,211] [213,213] [216,216] [226,226] [228,229] [232,234] [236,236] [241,241] [244,244] [246,246] [250,250] [252,256] [261,261] [263,263] [265,266] [268,268] [270,270] [272,272] [280,282] [286,286] [290,291] [293,294] [299,299] [302,302] [306,306] [308,308] [310,310] [312,312] [314,314] [318,318] [320,322] [324,324] [327,327] [329,330] [332,335] [341,342] [344,344] [346,346] [350,350] [352,354] [357,357] [361,362] [364,364] [366,366] [368,368] [374,375] [379,379] [384,385] [390,391] [394,395]}"

// TestCNFGoldens pins general-CNF evaluation: the literals below were
// captured, on the noisy cnfWorld (MaskRCNN / I3D sims), from the
// separate per-label CNF engine that the clause pipeline replaced —
// result sequences, Invocations() and final per-label k_crit under SVAQ
// and SVAQD × dense / Plan.Rate 1 / Plan.Rate 4 — and the engine,
// ShortCircuit off, must reproduce every one.
func TestCNFGoldens(t *testing.T) {
	queries := map[string][]Clause{
		"(runA OR runB) AND car": {{Actions: []annot.Label{"runA", "runB"}}, {Objects: []annot.Label{"car"}}},
		"runB OR dog":            {{Actions: []annot.Label{"runB"}, Objects: []annot.Label{"dog"}}},
		"runA AND runB":          {{Actions: []annot.Label{"runA"}}, {Actions: []annot.Label{"runB"}}},
	}
	goldens := []struct {
		query       string
		dynamic     bool
		rate        int
		seqs        string
		invocations int
		kcrit       string
	}{
		{"(runA OR runB) AND car", false, 0, "{[20,39] [60,60] [63,65] [68,69] [71,71] [76,77] [79,79]}", 24000, "act:runA=2 act:runB=2 obj:car=2"},
		{"(runA OR runB) AND car", false, 1, "{[20,39] [60,60] [63,65] [68,69] [71,71] [76,77] [79,79]}", 24000, "act:runA=2 act:runB=2 obj:car=2"},
		{"(runA OR runB) AND car", false, 4, "{[20,39] [60,60] [63,65] [68,69] [71,71] [76,77] [79,79]}", 21286, "act:runA=2 act:runB=2 obj:car=2"},
		{"(runA OR runB) AND car", true, 0, "{[20,39]}", 24000, "act:runA=3 act:runB=3 obj:car=9"},
		{"(runA OR runB) AND car", true, 1, "{[20,39]}", 24000, "act:runA=3 act:runB=3 obj:car=9"},
		{"(runA OR runB) AND car", true, 4, "{[20,39]}", 12178, "act:runA=3 act:runB=3 obj:car=9"},
		{"runB OR dog", false, 0, runBOrDogStatic, 22000, "act:runB=2 obj:dog=2"},
		{"runB OR dog", false, 1, runBOrDogStatic, 22000, "act:runB=2 obj:dog=2"},
		{"runB OR dog", false, 4, runBOrDogStatic, 19074, "act:runB=2 obj:dog=2"},
		{"runB OR dog", true, 0, "{[0,4] [60,89]}", 22000, "act:runB=3 obj:dog=9"},
		{"runB OR dog", true, 1, "{[0,4] [60,89]}", 22000, "act:runB=3 obj:dog=9"},
		{"runB OR dog", true, 4, "{[0,4] [60,89]}", 11121, "act:runB=3 obj:dog=9"},
		{"runA AND runB", false, 0, "{}", 4000, "act:runA=2 act:runB=2"},
		{"runA AND runB", false, 1, "{}", 4000, "act:runA=2 act:runB=2"},
		{"runA AND runB", false, 4, "{}", 4000, "act:runA=2 act:runB=2"},
		{"runA AND runB", true, 0, "{}", 4000, "act:runA=3 act:runB=3"},
		{"runA AND runB", true, 1, "{}", 4000, "act:runA=3 act:runB=3"},
		{"runA AND runB", true, 4, "{}", 4000, "act:runA=3 act:runB=3"},
	}
	scene := cnfWorld(t)
	nclips := scene.Truth.Meta.Clips()
	for _, g := range goldens {
		det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		e, err := NewClauses(queries[g.query], det, rec, scene.Truth.Meta.Geom, Config{
			HorizonClips: nclips, Dynamic: g.dynamic, Plan: plan.Config{Rate: g.rate},
		})
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := e.Run(nclips)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s dynamic=%v rate=%d", g.query, g.dynamic, g.rate)
		if got := seqs.String(); got != g.seqs {
			t.Errorf("%s: sequences = %s, want %s", name, got, g.seqs)
		}
		if got := e.Invocations(); got != g.invocations {
			t.Errorf("%s: invocations = %d, want %d", name, got, g.invocations)
		}
		if got := kcrit(e); got != g.kcrit {
			t.Errorf("%s: k_crit = %s, want %s", name, got, g.kcrit)
		}
	}
}

// TestClauseConstructorMatchesNew: a conjunctive query is a CNF of
// singleton clauses, so building it through NewClauses must be
// byte-identical to New — per-clip indicators, counts, invocations and
// critical values, and the final sequences — on every evaluation path.
func TestClauseConstructorMatchesNew(t *testing.T) {
	scene := cnfWorld(t)
	geom := scene.Truth.Meta.Geom
	nclips := scene.Truth.Meta.Clips()
	q := annot.Query{Action: "runA", Objects: []annot.Label{"car", "dog"}}
	clauses := []Clause{
		{Objects: []annot.Label{"car"}},
		{Objects: []annot.Label{"dog"}},
		{Actions: []annot.Label{"runA"}},
	}
	for _, cfg := range []Config{
		{},
		{Dynamic: true},
		{Plan: plan.Config{Rate: 1}},
		{Dynamic: true, Plan: plan.Config{Rate: 4}},
		{Dynamic: true, ShortCircuit: true},
		{Dynamic: true, ShortCircuit: true, AdaptiveOrder: true, Plan: plan.Config{Rate: 4}},
	} {
		cfg.HorizonClips = nclips
		models := func() (detect.ObjectDetector, detect.ActionRecognizer) {
			return detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil),
				detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		}
		det, rec := models()
		simple, err := New(q, det, rec, geom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		det, rec = models()
		cnf, err := NewClauses(clauses, det, rec, geom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < nclips; c++ {
			r1, err := simple.ProcessClip(video.ClipIdx(c))
			if err != nil {
				t.Fatal(err)
			}
			r2, err := cnf.ProcessClip(video.ClipIdx(c))
			if err != nil {
				t.Fatal(err)
			}
			if r1.Positive != r2.Positive || r1.Invocations != r2.Invocations || !slices.Equal(r1.Counts, r2.Counts) {
				t.Fatalf("%+v clip %d: New %+v, NewClauses %+v", cfg, c, r1, r2)
			}
			o1, a1 := simple.CriticalValues()
			o2, a2 := cnf.CriticalValues()
			if fmt.Sprint(o1, a1) != fmt.Sprint(o2, a2) {
				t.Fatalf("%+v clip %d: critical values %v/%d vs %v/%d", cfg, c, o1, a1, o2, a2)
			}
		}
		if !simple.Sequences().Equal(cnf.Sequences()) || simple.Invocations() != cnf.Invocations() ||
			simple.PlanStats() != cnf.PlanStats() || !slices.Equal(simple.Order(), cnf.Order()) {
			t.Fatalf("%+v: New and NewClauses diverge:\n%v %d %v\nvs\n%v %d %v", cfg,
				simple.Sequences(), simple.Invocations(), simple.Order(),
				cnf.Sequences(), cnf.Invocations(), cnf.Order())
		}
	}
}

// loggedModels wraps ideal models so every call is appended to one log.
type loggedDetector struct {
	detect.ObjectDetector
	log *[]string
}

func (d loggedDetector) Detect(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	*d.log = append(*d.log, fmt.Sprintf("%s@f%d", labels[0], v))
	return d.ObjectDetector.Detect(v, labels)
}

type loggedRecognizer struct {
	detect.ActionRecognizer
	log *[]string
}

func (r loggedRecognizer) Recognize(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	*r.log = append(*r.log, fmt.Sprintf("%s@s%d", labels[0], s))
	return r.ActionRecognizer.Recognize(s, labels)
}

// TestCNFEvaluationOrderDeterministic: a general-CNF plan probes its
// predicates in clause order, never in the iteration order of a
// per-label map, so the detector call sequence is one and the same over
// fresh runs — which label absorbs an injected per-unit fault does not
// vary — and the child spans of every svaq.clip span appear in clause
// order.
func TestCNFEvaluationOrderDeterministic(t *testing.T) {
	scene := cnfWorld(t)
	clauses := []Clause{
		{Objects: []annot.Label{"car"}, Actions: []annot.Label{"runA"}},
		{Objects: []annot.Label{"dog", "bus"}, Actions: []annot.Label{"runB"}},
		{Objects: []annot.Label{"car"}}, // shared with clause 1: probed once
	}
	wantSpans := []string{"obj:car", "act:runA", "obj:dog", "obj:bus", "act:runB"}
	const nclips = 30
	for _, pcfg := range []plan.Config{{}, {Rate: 4}} {
		distinct := map[string]bool{}
		for run := 0; run < 20; run++ {
			var calls []string
			det := loggedDetector{detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil), &calls}
			rec := loggedRecognizer{detect.NewSimActionRecognizer(scene, detect.I3D, nil), &calls}
			e, err := NewClauses(clauses, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: nclips, Dynamic: true, Plan: pcfg})
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New()
			e.AttachTrace(tr, 0)
			if _, err := e.Run(nclips); err != nil {
				t.Fatal(err)
			}
			if len(calls) != e.Invocations() {
				t.Fatalf("plan %+v: %d detector calls, engine counted %d", pcfg, len(calls), e.Invocations())
			}
			distinct[strings.Join(calls, " ")] = true
			clips := tr.Trees()
			if len(clips) != nclips {
				t.Fatalf("plan %+v: %d svaq.clip spans, want %d", pcfg, len(clips), nclips)
			}
			for _, clip := range clips {
				var got []string
				for _, child := range clip.Children {
					got = append(got, child.Name)
				}
				if clip.Name != "svaq.clip" || !slices.Equal(got, wantSpans) {
					t.Fatalf("plan %+v: %s children = %v, want %v", pcfg, clip.Name, got, wantSpans)
				}
			}
		}
		if len(distinct) != 1 {
			t.Errorf("plan %+v: %d distinct detector call sequences over 20 runs, want 1", pcfg, len(distinct))
		}
	}
}

// TestCNFShortCircuit: with ShortCircuit a disjunctive plan skips the
// clauses after the first failed one — fewer invocations, and with ideal
// models the same sequences — and AdaptiveOrder moves the selective
// clause to the front.
func TestCNFShortCircuit(t *testing.T) {
	scene := cnfWorld(t)
	nclips := scene.Truth.Meta.Clips()
	// (car OR dog) holds on clips 20..49 and 70..89, runA on 20..39.
	clauses := []Clause{
		{Objects: []annot.Label{"car", "dog"}},
		{Actions: []annot.Label{"runA"}},
	}
	run := func(cfg Config) *Engine {
		cfg.HorizonClips = nclips
		det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
		e, err := NewClauses(clauses, det, rec, scene.Truth.Meta.Geom, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(nclips); err != nil {
			t.Fatal(err)
		}
		return e
	}
	full, short := run(Config{}), run(Config{ShortCircuit: true})
	want := interval.Set{{Lo: 20, Hi: 39}}
	if !full.Sequences().Equal(want) || !short.Sequences().Equal(want) {
		t.Fatalf("sequences = %v / %v, want %v", full.Sequences(), short.Sequences(), want)
	}
	// The action (5 shots) is skipped on the 350 clips failing clause 1.
	if got, want := full.Invocations()-short.Invocations(), 350*5; got != want {
		t.Fatalf("ShortCircuit saved %d invocations, want %d", got, want)
	}
	adaptive := run(Config{ShortCircuit: true, AdaptiveOrder: true})
	if !adaptive.Sequences().Equal(want) {
		t.Fatalf("adaptive sequences = %v, want %v", adaptive.Sequences(), want)
	}
	if got := adaptive.Order(); !slices.Equal(got, []string{"act:runA", "obj:car | obj:dog"}) {
		t.Fatalf("adaptive order = %v", got)
	}
	if adaptive.Invocations() >= short.Invocations() {
		t.Fatalf("adaptive order saved nothing: %d vs %d", adaptive.Invocations(), short.Invocations())
	}
}

// TestCNFRecordIndicators: the clause constructor honours
// RecordIndicators like New does.
func TestCNFRecordIndicators(t *testing.T) {
	scene := cnfWorld(t)
	geom := scene.Truth.Meta.Geom
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	e, err := NewClauses([]Clause{{Objects: []annot.Label{"car"}, Actions: []annot.Label{"runA"}}},
		det, rec, geom, Config{HorizonClips: 40, RecordIndicators: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(40); err != nil {
		t.Fatal(err)
	}
	if got := len(e.ObjectIndicators("car")); got != 40*geom.ClipLen() {
		t.Fatalf("object log length = %d", got)
	}
	if got := len(e.ActionIndicators()); got != 40*geom.ShotsPerClip {
		t.Fatalf("action log length = %d", got)
	}
}
