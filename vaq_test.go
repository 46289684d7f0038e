package vaq

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"vaq/internal/detect"
	"vaq/internal/metrics"
	"vaq/internal/synth"
	"vaq/internal/video"
)

func quickWorld(t *testing.T) (*synth.QuerySet, ObjectDetector, ActionRecognizer) {
	t.Helper()
	qs, err := synth.YouTubeScaled("q2", DefaultGeometry(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	scene := qs.World.Scene()
	return qs,
		detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil),
		detect.NewSimActionRecognizer(scene, detect.I3D, nil)
}

func TestParseQueryAndStream(t *testing.T) {
	qs, det, rec := quickWorld(t)
	plan, err := ParseQuery(`
		SELECT MERGE(clipID) AS Sequence
		FROM (PROCESS cam PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
		WHERE act = 'blowing_leaves' AND obj.include('car')`)
	if err != nil {
		t.Fatal(err)
	}
	meta := qs.World.Truth.Meta
	stream, err := NewStream(plan, det, rec, meta.Geom, StreamConfig{Dynamic: true, HorizonClips: meta.Clips()})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Engine() == nil {
		t.Fatal("conjunctive plan has no engine")
	}
	seqs, err := stream.Run(meta.Clips())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Action: "blowing_leaves", Objects: []Label{"car"}}
	truth, err := qs.World.Truth.GroundTruthClips(q)
	if err != nil {
		t.Fatal(err)
	}
	if f1 := metrics.SequenceF1(seqs, truth, 0.5).F1; f1 < 0.6 {
		t.Fatalf("facade stream F1 = %v", f1)
	}
	if !stream.Results().Equal(seqs) {
		t.Fatal("Results disagrees with Run")
	}
}

// leavesOrCarStatic is the SVAQ result of the disjunctive plan below on
// the noisy quickWorld (p0 = 1e-4 admits many background clips).
const leavesOrCarStatic = "{[1,1] [3,3] [9,14] [17,17] [19,20] [23,49] [51,52] [55,55] [58,58] [61,62] [65,88] [90,91] [93,95] [99,100] [106,110] [114,114] [117,119] [122,122] [124,124] [127,135] [139,143] [145,146] [148,150] [155,155] [157,181] [185,185] [189,189] [191,191] [193,193] [195,195] [201,201] [204,206] [208,209] [212,213] [215,216] [223,229] [231,231] [234,235] [237,237] [240,248] [252,252] [262,262] [265,265] [269,269] [271,271] [276,276] [278,280] [283,285] [287,294] [298,301] [303,306] [308,308] [313,314] [316,317] [319,322] [324,328] [330,330] [333,334] [339,339] [344,345] [348,349] [356,357] [361,362] [364,366] [368,368] [373,373] [376,376] [383,384] [387,388] [394,399] [402,402] [405,405] [407,407] [410,434] [443,443] [446,446] [450,450] [453,453] [456,460] [462,475] [477,478] [480,480] [485,486] [488,488] [490,501] [504,504] [506,510] [512,512] [514,516] [519,519] [521,523] [526,526] [528,528] [532,533] [536,536] [538,543] [545,546] [549,551] [553,553] [555,555] [560,562] [565,566] [568,570] [573,574] [577,578] [584,584] [588,594] [601,601] [606,607] [609,611] [615,617] [623,624] [626,626] [630,637] [639,659] [666,667] [669,669] [673,675] [677,677] [680,680] [682,708] [710,710] [712,712] [714,714] [716,716] [719,719] [721,721] [724,724] [726,726] [729,729] [732,733] [735,735] [737,738] [745,747]}"

// TestCNFPlanRunsOnEngine: a disjunctive plan runs on the same online
// engine as a conjunctive one, and reproduces — sequences, Invocations()
// and final critical values — the literals captured from the separate
// CNF engine it replaced, under SVAQ and SVAQD × dense / Plan.Rate 1 /
// Plan.Rate 4.
func TestCNFPlanRunsOnEngine(t *testing.T) {
	plan, err := ParseQuery(`
		SELECT MERGE(clipID) FROM (PROCESS cam PRODUCE clipID, obj, act)
		WHERE act = 'blowing_leaves' OR obj.include('car')`)
	if err != nil {
		t.Fatal(err)
	}
	goldens := []struct {
		dynamic     bool
		rate        int
		seqs        string
		invocations int
		kcrit       string
	}{
		{false, 0, leavesOrCarStatic, 41140, "act:blowing_leaves=2 obj:car=2"},
		{false, 1, leavesOrCarStatic, 41140, "act:blowing_leaves=2 obj:car=2"},
		{false, 4, leavesOrCarStatic, 32987, "act:blowing_leaves=2 obj:car=2"},
		{true, 0, "{[1,1] [24,49] [65,85] [107,107] [131,135] [157,181] [204,204] [226,226] [240,247] [287,292] [305,305] [396,398] [413,434] [459,460] [462,475] [491,501] [549,549] [561,561] [573,573] [642,658] [673,674] [684,697] [699,705] [746,747]}", 41140, "act:blowing_leaves=4 obj:car=9"},
		{true, 1, "{[1,1] [24,49] [65,85] [107,107] [131,135] [157,181] [204,204] [226,226] [240,247] [287,292] [305,305] [396,398] [413,434] [459,460] [462,475] [491,501] [549,549] [561,561] [573,573] [642,658] [673,674] [684,697] [699,705] [746,747]}", 41140, "act:blowing_leaves=4 obj:car=9"},
		{true, 4, "{[1,1] [20,20] [24,49] [65,85] [107,107] [131,135] [157,181] [204,204] [226,226] [240,247] [287,292] [305,305] [396,398] [413,434] [459,460] [462,475] [491,501] [549,549] [561,561] [573,573] [642,658] [673,674] [684,697] [699,705] [746,747]}", 18734, "act:blowing_leaves=4 obj:car=9"},
	}
	for _, g := range goldens {
		qs, det, rec := quickWorld(t)
		meta := qs.World.Truth.Meta
		stream, err := NewStream(plan, det, rec, meta.Geom, StreamConfig{
			HorizonClips: meta.Clips(), Dynamic: g.dynamic, Plan: PlanConfig{Rate: g.rate},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stream.Engine() == nil {
			t.Fatal("disjunctive plan has no engine")
		}
		if _, err := stream.ProcessClip(0); err != nil {
			t.Fatal(err)
		}
		seqs, err := stream.Run(meta.Clips())
		if err != nil {
			t.Fatal(err)
		}
		obj, act := stream.CriticalValues()
		kcrit := fmt.Sprintf("act:blowing_leaves=%d obj:car=%d", act, obj["car"])
		if seqs.String() != g.seqs || stream.Invocations() != g.invocations || kcrit != g.kcrit {
			t.Errorf("dynamic=%v rate=%d:\n got %s %d %s\nwant %s %d %s", g.dynamic, g.rate,
				seqs, stream.Invocations(), kcrit, g.seqs, g.invocations, g.kcrit)
		}
	}
}

func TestNewStreamValidation(t *testing.T) {
	_, det, rec := quickWorld(t)
	if _, err := NewStream(nil, det, rec, DefaultGeometry(), StreamConfig{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := NewStreamQuery(Query{}, det, rec, DefaultGeometry(), StreamConfig{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestRepositoryFacadeEndToEnd(t *testing.T) {
	qs, det, rec := quickWorld(t)
	truth := qs.World.Truth
	vd, err := IngestVideo(det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(), IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add("v1", vd); err != nil {
		t.Fatal(err)
	}
	if got := repo.Videos(); len(got) != 1 || got[0] != "v1" {
		t.Fatalf("Videos = %v", got)
	}
	q := Query{Action: "blowing_leaves", Objects: []Label{"car"}}
	results, stats, err := repo.TopKOpts("v1", q, 3, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || stats.Candidates == 0 {
		t.Fatalf("no results: %v %+v", results, stats)
	}
	if _, _, err := repo.TopKOpts("ghost", q, 3, ExecOptions{}); err == nil {
		t.Error("unknown video accepted")
	}
	all, _, err := repo.TopKGlobalOpts(q, 2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || all[0].Video != "v1" {
		t.Fatalf("TopKGlobalOpts = %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Fatal("TopKGlobalOpts not sorted")
		}
	}
	if err := repo.Remove("v1"); err != nil {
		t.Fatal(err)
	}
	if len(repo.Videos()) != 0 {
		t.Fatal("remove failed")
	}
}

func TestTopKGlobalMatchesPerVideoMerge(t *testing.T) {
	qs, det, rec := quickWorld(t)
	truth := qs.World.Truth
	vd, err := IngestVideo(det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(), IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add("v1", vd); err != nil {
		t.Fatal(err)
	}
	// A second, distinct video.
	qs2, err := synth.YouTubeScaled("q1", DefaultGeometry(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	scene2 := qs2.World.Scene()
	det2 := detect.NewSimObjectDetector(scene2, detect.MaskRCNN, nil)
	rec2 := detect.NewSimActionRecognizer(scene2, detect.I3D, nil)
	truth2 := qs2.World.Truth
	// Give both videos the "car" and "blowing_leaves" labels: v2 simply
	// has no blowing_leaves episodes, so all matches come from v1.
	vd2, err := IngestVideo(det2, rec2, truth2.Meta,
		append(truth2.ObjectLabels(), "car"), append(truth2.ActionLabels(), "blowing_leaves"), IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add("v2", vd2); err != nil {
		t.Fatal(err)
	}

	q := Query{Action: "blowing_leaves", Objects: []Label{"car"}}
	global, _, err := repo.TopKGlobalOpts(q, 4, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The reference: each video ranked on its own, then merged in the
	// namespace's total order and cut to k.
	var perVideo []VideoTopKResult
	for _, name := range repo.Videos() {
		res, _, err := repo.TopKOpts(name, q, 4, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			perVideo = append(perVideo, VideoTopKResult{Video: name, TopKResult: r})
		}
	}
	sortVideoResults(perVideo)
	if len(perVideo) > 4 {
		perVideo = perVideo[:4]
	}
	if len(global) != len(perVideo) {
		t.Fatalf("lengths differ: %d vs %d", len(global), len(perVideo))
	}
	for i := range global {
		g, p := global[i], perVideo[i]
		if g.Video != p.Video || g.Seq != p.Seq {
			t.Fatalf("rank %d: global %s %v vs per-video %s %v", i, g.Video, g.Seq, p.Video, p.Seq)
		}
		if diff := g.Score - p.Score; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("rank %d: scores differ: %v vs %v", i, g.Score, p.Score)
		}
	}
}

// TestSharedInferenceIngestThenSession: ingesting a video through a
// SharedInference domain (every label on every frame, in one call per
// frame) leaves one memo entry per (frame, label), so a later session
// on the video through the same domain pays no backend object call and
// still reports what a private stack reports.
func TestSharedInferenceIngestThenSession(t *testing.T) {
	qs, err := synth.YouTubeScaled("q2", DefaultGeometry(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	scene, truth := qs.World.Scene(), qs.World.Truth
	var objMeter detect.CostMeter
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, &objMeter)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	si, err := NewSharedInference(SharedInferenceConfig{CacheCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IngestVideo(si.WrapDetector(det), si.WrapRecognizer(rec), truth.Meta,
		truth.ObjectLabels(), truth.ActionLabels(), IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	ingestCalls := objMeter.Calls()
	if ingestCalls == 0 {
		t.Fatal("ingest made no object calls")
	}

	cfg := StreamConfig{Dynamic: true, HorizonClips: truth.Meta.Clips()}
	run := func(det ObjectDetector, rec ActionRecognizer, opts ...StreamOption) (Sequences, int) {
		s, err := NewStreamQuery(qs.Query, det, rec, truth.Meta.Geom, cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := s.Run(truth.Meta.Clips())
		if err != nil {
			t.Fatal(err)
		}
		return seqs, s.Invocations()
	}
	shared, invocations := run(det, rec, WithSharedInference(si))
	if calls := objMeter.Calls() - ingestCalls; calls != 0 {
		t.Fatalf("session after ingest made %d backend object calls, want 0", calls)
	}
	if invocations == 0 {
		t.Fatal("session invoked no detector")
	}
	private, _ := run(detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil), detect.NewSimActionRecognizer(scene, detect.I3D, nil))
	if !shared.Equal(private) {
		t.Fatalf("session through the ingest-warmed domain: %v, private stack: %v", shared, private)
	}
}

// scoreOrdered is a library detector that orders its detections by
// score across labels: it does not keep the per-label contract
// (detect.PerLabelConcat) the simulators declare.
type scoreOrdered struct{ d *detect.SimObjectDetector }

func (s scoreOrdered) Name() string { return s.d.Name() }

func (s scoreOrdered) Detect(v video.FrameIdx, labels []Label) []detect.Detection {
	dets := s.d.Detect(v, labels)
	sort.SliceStable(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
	return dets
}

// TestSharedInferenceScoreOrderedDetector: a detector that interleaves
// labels gives the same ingest (every label per frame), the same stream
// results and the same multi-label detections, in the same order, with
// and without WithSharedInference. Serving its multi-label calls from
// per-label entries would reorder the detections Tracker.Update matches
// greedily.
func TestSharedInferenceScoreOrderedDetector(t *testing.T) {
	qs, err := synth.YouTubeScaled("q2", DefaultGeometry(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	scene, truth := qs.World.Scene(), qs.World.Truth
	det := scoreOrdered{detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)}
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	si, err := NewSharedInference(SharedInferenceConfig{CacheCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ingestWith := func(det ObjectDetector, rec ActionRecognizer) *VideoData {
		vd, err := IngestVideo(det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(), IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return vd
	}
	if private, shared := ingestWith(det, rec), ingestWith(si.WrapDetector(det), si.WrapRecognizer(rec)); !reflect.DeepEqual(private, shared) {
		t.Fatalf("ingest through the domain differs from the private ingest (%d vs %d tracks)", shared.TracksOpened, private.TracksOpened)
	}
	cfg := StreamConfig{Dynamic: true, HorizonClips: truth.Meta.Clips()}
	run := func(opts ...StreamOption) Sequences {
		s, err := NewStreamQuery(qs.Query, det, rec, truth.Meta.Geom, cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := s.Run(truth.Meta.Clips())
		if err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	if private, shared := run(), run(WithSharedInference(si)); !reflect.DeepEqual(private, shared) {
		t.Fatalf("stream through the domain: %v, private: %v", shared, private)
	}
	if st := si.Stats(); st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("stats %+v: the stream never used the domain", st)
	}
	wrapped, labels := si.WrapDetector(det), truth.ObjectLabels()
	for v := video.FrameIdx(0); int(v) < truth.Meta.Frames; v++ {
		if got, want := wrapped.Detect(v, labels), det.Detect(v, labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d %v through the domain: %v, direct: %v", v, labels, got, want)
		}
	}
}

// TestSharedInferenceConcurrentSessions runs eight identical sessions
// concurrently, once with a private detector stack each and once through
// one SharedInference domain: every session must report the same
// sequences on both legs, and the shared leg must cut backend
// invocations at least 5x (with the video's working set cached, each
// distinct unit is invoked about once, so the expected cut is ~8x).
func TestSharedInferenceConcurrentSessions(t *testing.T) {
	const sessions = 8
	qs, err := synth.YouTubeScaled("q2", DefaultGeometry(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	scene, meta := qs.World.Scene(), qs.World.Truth.Meta
	cfg := StreamConfig{Dynamic: true, HorizonClips: meta.Clips()}
	runLeg := func(mk func() (ObjectDetector, ActionRecognizer, []StreamOption)) []Sequences {
		seqs := make([]Sequences, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				det, rec, opts := mk()
				s, err := NewStreamQuery(qs.Query, det, rec, meta.Geom, cfg, opts...)
				if err != nil {
					errs[i] = err
					return
				}
				seqs[i], errs[i] = s.Run(meta.Clips())
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		return seqs
	}

	var baseMeter detect.CostMeter
	base := runLeg(func() (ObjectDetector, ActionRecognizer, []StreamOption) {
		return detect.NewSimObjectDetector(scene, detect.MaskRCNN, &baseMeter),
			detect.NewSimActionRecognizer(scene, detect.I3D, &baseMeter), nil
	})
	si, err := NewSharedInference(SharedInferenceConfig{CacheCapacity: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var sharedMeter detect.CostMeter
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, &sharedMeter)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, &sharedMeter)
	shared := runLeg(func() (ObjectDetector, ActionRecognizer, []StreamOption) {
		return det, rec, []StreamOption{WithSharedInference(si)}
	})

	for i := range sessions {
		if !base[i].Equal(base[0]) || !shared[i].Equal(base[0]) {
			t.Fatalf("session %d diverged: base %v, shared %v, want %v", i, base[i], shared[i], base[0])
		}
	}
	if sharedMeter.Calls() == 0 || baseMeter.Calls() < 5*sharedMeter.Calls() {
		t.Errorf("backend invocations: %d with per-session stacks, %d shared; want a >= 5x cut",
			baseMeter.Calls(), sharedMeter.Calls())
	}
	if si.Stats().CacheHits == 0 {
		t.Error("no cache hits across identical sessions")
	}
}
