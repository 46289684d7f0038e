package resilience_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/fault"
	"vaq/internal/interval"
	"vaq/internal/resilience"
	"vaq/internal/svaq"
	"vaq/internal/video"
)

// testScene builds the small deterministic world the svaq tests use:
// one action with three episodes and one correlated object.
func testScene(seed int64) (*detect.Scene, annot.Query) {
	geom := video.DefaultGeometry()
	meta := video.Meta{Name: "t", Frames: 60000, Geom: geom}
	truth := annot.NewVideo(meta)
	truth.AddAction("run", interval.Set{{Lo: 100, Hi: 179}, {Lo: 2000, Hi: 2119}, {Lo: 4500, Hi: 4559}})
	truth.AddObject("car", interval.Set{
		{Lo: 950, Hi: 1850}, {Lo: 19900, Hi: 21300}, {Lo: 44900, Hi: 45700},
		{Lo: 30000, Hi: 31000},
	})
	return &detect.Scene{Truth: truth, Seed: seed}, annot.Query{Action: "run", Objects: []annot.Label{"car"}}
}

// fastPolicy is a test policy with sub-millisecond backoffs so retry
// storms don't slow the suite.
func fastPolicy(retries int) resilience.Policy {
	return resilience.Policy{
		MaxRetries:  retries,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  200 * time.Microsecond,
		Seed:        99,
	}
}

var labels = []annot.Label{"car"}

// failingObject always errors; for breaker/fallback tests.
type failingObject struct{ calls int }

func (f *failingObject) Name() string { return "dead" }

func (f *failingObject) DetectCtx(context.Context, video.FrameIdx, []annot.Label) ([]detect.Detection, error) {
	f.calls++
	return nil, errors.New("backend down")
}

func TestWrapTransparentOnHealthyBackend(t *testing.T) {
	scene, _ := testScene(7)
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	m := resilience.WrapFallible(detect.AsFallibleObject(det), detect.AsFallibleAction(rec), resilience.DefaultPolicy(), resilience.Options{})
	for f := 0; f < 500; f++ {
		got := m.Det.Detect(video.FrameIdx(f), labels)
		want := det.Detect(video.FrameIdx(f), labels)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: wrapped %+v != direct %+v", f, got, want)
		}
	}
	for s := 0; s < 100; s++ {
		got := m.Rec.Recognize(video.ShotIdx(s), labels)
		want := rec.Recognize(video.ShotIdx(s), labels)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shot %d: wrapped %+v != direct %+v", s, got, want)
		}
	}
	st := m.Stats()
	if st.Fallbacks != 0 || st.Errors != 0 || st.Retries != 0 {
		t.Errorf("healthy backend produced resilience events: %+v", st)
	}
	if m.Degraded() {
		t.Error("healthy backend reported degraded")
	}
	if st.BreakerState != "closed" {
		t.Errorf("breaker state = %s", st.BreakerState)
	}
}

func TestRetriesRecoverTransientFaults(t *testing.T) {
	scene, _ := testScene(8)
	base := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	sched := fault.Schedule{Seed: 21, Episodes: []fault.Episode{{Kind: fault.Error, Lo: 0, Hi: -1, Rate: 0.3}}}
	inj := fault.NewObject(detect.AsFallibleObject(base), sched)
	d := resilience.NewDetector(inj, fastPolicy(4), resilience.Options{})

	mismatches, degradedSeen := 0, 0
	for f := 0; f < 1000; f++ {
		dets, degraded := d.DetectCtx(context.Background(), video.FrameIdx(f), labels)
		if degraded {
			degradedSeen++
			continue
		}
		if !reflect.DeepEqual(dets, base.Detect(video.FrameIdx(f), labels)) {
			mismatches++
		}
	}
	st := d.Stats()
	if st.Retries == 0 {
		t.Error("30% fault rate produced no retries")
	}
	if mismatches != 0 {
		t.Errorf("%d non-degraded results differ from the clean backend", mismatches)
	}
	// 0.3^5 ≈ 0.24% of frames exhaust 5 attempts.
	if st.Fallbacks != int64(degradedSeen) {
		t.Errorf("fallbacks counter %d != degraded results seen %d", st.Fallbacks, degradedSeen)
	}
	if got := len(d.DegradedFrames()); got != degradedSeen {
		t.Errorf("DegradedFrames len %d != %d", got, degradedSeen)
	}
}

func TestBreakerShedsDeadBackend(t *testing.T) {
	dead := &failingObject{}
	p := fastPolicy(1)
	p.BreakerFailures = 4
	p.BreakerCooldown = time.Hour // never probes during the test
	d := resilience.NewDetector(dead, p, resilience.Options{})
	for f := 0; f < 100; f++ {
		dets, degraded := d.DetectCtx(context.Background(), video.FrameIdx(f), labels)
		if !degraded {
			t.Fatalf("frame %d: dead backend not degraded", f)
		}
		for _, det := range dets {
			if det.Score < 0.5 {
				t.Errorf("prior fallback emitted below-threshold detection %+v", det)
			}
		}
	}
	st := d.Stats()
	if st.BreakerState != "open" {
		t.Fatalf("breaker state = %s, want open", st.BreakerState)
	}
	if st.BreakerRejects == 0 {
		t.Error("open breaker shed nothing")
	}
	if st.Fallbacks != 100 {
		t.Errorf("fallbacks = %d, want 100", st.Fallbacks)
	}
	// The breaker capped backend calls: 4 failures trip it, after which
	// calls shed without touching the backend.
	if dead.calls > 10 {
		t.Errorf("dead backend was called %d times; breaker should shed", dead.calls)
	}
}

func TestBreakerRecovers(t *testing.T) {
	scene, _ := testScene(9)
	base := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	// Faults only on frames 0–49: the breaker trips there, then heals.
	sched := fault.Schedule{Seed: 5, Episodes: []fault.Episode{{Kind: fault.Error, Lo: 0, Hi: 49, Rate: 1}}}
	inj := fault.NewObject(detect.AsFallibleObject(base), sched)
	p := fastPolicy(0)
	p.BreakerFailures = 3
	p.BreakerCooldown = 10 * time.Millisecond
	d := resilience.NewDetector(inj, p, resilience.Options{})

	for f := 0; f < 50; f++ {
		d.DetectCtx(context.Background(), video.FrameIdx(f), labels)
	}
	if st := d.Stats(); st.BreakerState != "open" {
		t.Fatalf("breaker state after fault burst = %s", st.BreakerState)
	}
	time.Sleep(20 * time.Millisecond) // cooldown elapses
	// Healthy region: the half-open probe succeeds and the circuit closes.
	if _, degraded := d.DetectCtx(context.Background(), 60, labels); degraded {
		t.Error("post-recovery probe degraded")
	}
	if st := d.Stats(); st.BreakerState != "closed" {
		t.Errorf("breaker state after successful probe = %s", st.BreakerState)
	}
}

func TestDeadlineCutsStalls(t *testing.T) {
	scene, _ := testScene(10)
	base := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	sched := fault.Schedule{Seed: 2, Episodes: []fault.Episode{{Kind: fault.Stall, Lo: 0, Hi: -1, Rate: 1, Delay: time.Minute}}}
	inj := fault.NewObject(detect.AsFallibleObject(base), sched)
	p := fastPolicy(1)
	p.Deadline = 5 * time.Millisecond
	d := resilience.NewDetector(inj, p, resilience.Options{})

	start := time.Now()
	_, degraded := d.DetectCtx(context.Background(), 0, labels)
	if !degraded {
		t.Fatal("permanently stalled backend not degraded")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("stalled call took %v despite 5ms deadline", el)
	}
	st := d.Stats()
	if st.DeadlineExceeded == 0 {
		t.Errorf("no deadline_exceeded recorded: %+v", st)
	}
}

func TestFallbackProfile(t *testing.T) {
	scene, _ := testScene(11)
	cheap := detect.NewSimObjectDetector(scene, detect.YOLOv3, nil)
	d := resilience.NewDetector(&failingObject{}, fastPolicy(0), resilience.Options{
		FallbackObjects: []detect.FallibleObjectDetector{detect.AsFallibleObject(cheap)},
	})
	dets, degraded := d.DetectCtx(context.Background(), 1000, labels)
	if !degraded {
		t.Fatal("failing backend not degraded")
	}
	if want := cheap.Detect(1000, labels); !reflect.DeepEqual(dets, want) {
		t.Errorf("fallback-profile result %+v != cheap detector %+v", dets, want)
	}
	if hops := d.Stats().FallbackHops; len(hops) != 1 || hops[0] != 1 {
		t.Errorf("FallbackHops = %v, want the unit on hop 1", hops)
	}
	if got := d.DegradedHops(); got[1000] != 1 {
		t.Errorf("DegradedHops = %v, want frame 1000 on hop 1", got)
	}
}

func TestPriorRecognizerFallbackShape(t *testing.T) {
	scene, _ := testScene(12)
	sched := fault.Schedule{Seed: 4, Episodes: []fault.Episode{{Kind: fault.Error, Lo: 0, Hi: -1, Rate: 1}}}
	inj := fault.NewAction(detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil)), sched)
	r := resilience.NewRecognizer(inj, fastPolicy(0), resilience.Options{})
	scores, degraded := r.RecognizeCtx(context.Background(), 3, []annot.Label{"run", "walk"})
	if !degraded {
		t.Fatal("not degraded")
	}
	if len(scores) != 2 {
		t.Fatalf("prior fallback returned %d scores, want one per label", len(scores))
	}
	for _, s := range scores {
		if s.Score < 0 || s.Score > 1 {
			t.Errorf("score %v outside [0,1]", s.Score)
		}
	}
	if got := r.DegradedShots(); len(got) != 1 || got[0] != 3 {
		t.Errorf("DegradedShots = %v", got)
	}
}

// TestDeterministicDegradation is the determinism satellite: the same
// fault seed + schedule must yield byte-identical degraded query
// results and identical resilience counters across two full svaq runs.
func TestDeterministicDegradation(t *testing.T) {
	sched := fault.Schedule{Seed: 33, Episodes: []fault.Episode{
		{Kind: fault.Error, Lo: 0, Hi: -1, Rate: 0.08},
		{Kind: fault.Corrupt, Lo: 1000, Hi: 5000, Rate: 0.1},
	}}
	run := func() (any, resilience.Stats, []int) {
		scene, q := testScene(13)
		base := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		m := resilience.WrapFallible(
			fault.NewObject(detect.AsFallibleObject(base), sched),
			fault.NewAction(detect.AsFallibleAction(rec), sched),
			fastPolicy(2), resilience.Options{})
		e, err := svaq.New(q, m.Det, m.Rec, scene.Truth.Meta.Geom, svaq.Config{HorizonClips: 150})
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := e.Run(150)
		if err != nil {
			t.Fatal(err)
		}
		return seqs, m.Stats(), m.Det.DegradedFrames()
	}
	seqs1, st1, deg1 := run()
	seqs2, st2, deg2 := run()
	if !reflect.DeepEqual(seqs1, seqs2) {
		t.Errorf("query results differ across identical fault runs:\n%v\n%v", seqs1, seqs2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("resilience counters differ:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(deg1, deg2) {
		t.Errorf("degraded frame sets differ: %v vs %v", deg1, deg2)
	}
	if st1.Retries == 0 || st1.Errors == 0 {
		t.Errorf("fault schedule produced no resilience activity: %+v", st1)
	}
}

func TestCancelledContextDegradesWithoutRetry(t *testing.T) {
	dead := &failingObject{}
	d := resilience.NewDetector(dead, fastPolicy(5), resilience.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, degraded := d.DetectCtx(ctx, 0, labels)
	if !degraded {
		t.Fatal("cancelled call not degraded")
	}
	if dead.calls != 0 {
		t.Errorf("cancelled call still reached the backend %d times", dead.calls)
	}
	if st := d.Stats(); st.Retries != 0 {
		t.Errorf("cancelled call retried %d times", st.Retries)
	}
}
