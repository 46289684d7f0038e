package detect

import (
	"math"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/interval"
	"vaq/internal/video"
)

func testScene(seed int64) *Scene {
	meta := video.Meta{Name: "t", Frames: 20000, Geom: video.DefaultGeometry()}
	truth := annot.NewVideo(meta)
	truth.AddObject("car", interval.Set{{Lo: 5000, Hi: 9999}})
	truth.AddAction("run", interval.Set{{Lo: 500, Hi: 999}})
	return &Scene{
		Truth:             truth,
		ObjectDistractors: map[annot.Label]interval.Set{"car": {{Lo: 15000, Hi: 15499}}},
		ActionDistractors: map[annot.Label]interval.Set{"run": {{Lo: 1500, Hi: 1549}}},
		Seed:              seed,
	}
}

func TestBoxIoU(t *testing.T) {
	a := Box{0, 0, 1, 1}
	if got := a.IoU(a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self IoU = %v", got)
	}
	b := Box{0.5, 0, 0.5, 1}
	if got := a.IoU(b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("IoU = %v, want 0.5", got)
	}
	c := Box{2, 2, 1, 1}
	if got := a.IoU(c); got != 0 {
		t.Errorf("disjoint IoU = %v", got)
	}
	if got := (Box{}).IoU(Box{}); got != 0 {
		t.Errorf("degenerate IoU = %v", got)
	}
}

func TestDetectorDeterministic(t *testing.T) {
	sc := testScene(1)
	d1 := NewSimObjectDetector(sc, MaskRCNN, nil)
	d2 := NewSimObjectDetector(sc, MaskRCNN, nil)
	labels := []annot.Label{"car"}
	// Query frames in different orders: same results.
	for _, v := range []video.FrameIdx{7000, 100, 7000, 15100} {
		a := d1.Detect(v, labels)
		b := d2.Detect(v, labels)
		if len(a) != len(b) {
			t.Fatalf("frame %d: lengths %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i].Label != b[i].Label || a[i].Score != b[i].Score || a[i].Box != b[i].Box {
				t.Fatalf("frame %d: detection %d differs: %+v vs %+v", v, i, a[i], b[i])
			}
		}
	}
}

func TestDetectorRatesMatchProfile(t *testing.T) {
	sc := testScene(2)
	det := NewSimObjectDetector(sc, MaskRCNN, nil)
	labels := []annot.Label{"car"}
	th := DefaultThresholds()

	// TPR over the presence interval: at least one detection fires at
	// a rate near the per-frame detection probability (≥ TPR thanks to
	// multiple instances).
	hits := 0
	for v := 5000; v < 10000; v++ {
		for _, d := range det.Detect(video.FrameIdx(v), labels) {
			if d.Score >= th.Object {
				hits++
				break
			}
		}
	}
	tpr := float64(hits) / 5000
	if tpr < MaskRCNN.TPR-0.02 {
		t.Errorf("observed TPR %.3f below profile %.3f", tpr, MaskRCNN.TPR)
	}

	// Base FPR where the object is absent and no distractor plays.
	fp := 0
	for v := 0; v < 5000; v++ {
		if len(det.Detect(video.FrameIdx(v), labels)) > 0 {
			fp++
		}
	}
	fpr := float64(fp) / 5000
	if math.Abs(fpr-MaskRCNN.FPRBase) > 0.006 {
		t.Errorf("observed base FPR %.4f vs profile %.4f", fpr, MaskRCNN.FPRBase)
	}

	// Distractor interval: elevated FPR.
	fp = 0
	for v := 15000; v < 15500; v++ {
		if len(det.Detect(video.FrameIdx(v), labels)) > 0 {
			fp++
		}
	}
	distFPR := float64(fp) / 500
	if math.Abs(distFPR-MaskRCNN.FPRDistractor) > 0.08 {
		t.Errorf("observed distractor FPR %.3f vs profile %.3f", distFPR, MaskRCNN.FPRDistractor)
	}
}

func TestIdealDetectorMatchesTruth(t *testing.T) {
	sc := testScene(3)
	det := NewSimObjectDetector(sc, IdealObject, nil)
	rec := NewSimActionRecognizer(sc, IdealAction, nil)
	for v := 0; v < 20000; v += 37 {
		fired := len(det.Detect(video.FrameIdx(v), []annot.Label{"car"})) > 0
		if fired != sc.Truth.Objects["car"].Contains(v) {
			t.Fatalf("ideal detector disagrees with truth at frame %d", v)
		}
	}
	for s := 0; s < 2000; s += 7 {
		fired := len(rec.Recognize(video.ShotIdx(s), []annot.Label{"run"})) > 0
		want := sc.Truth.Actions["run"].Contains(s)
		if fired != want {
			t.Fatalf("ideal recognizer disagrees with truth at shot %d", s)
		}
	}
}

func TestRecognizerRates(t *testing.T) {
	sc := testScene(4)
	rec := NewSimActionRecognizer(sc, I3D, nil)
	th := DefaultThresholds()
	hits := 0
	for s := 500; s < 1000; s++ {
		for _, a := range rec.Recognize(video.ShotIdx(s), []annot.Label{"run"}) {
			if a.Score >= th.Action {
				hits++
			}
		}
	}
	tpr := float64(hits) / 500
	if math.Abs(tpr-I3D.TPR) > 0.04 {
		t.Errorf("observed action TPR %.3f vs profile %.3f", tpr, I3D.TPR)
	}
}

func TestDriftScalesFPR(t *testing.T) {
	sc := testScene(5)
	sc.Drift = func(frame int) float64 {
		if frame >= 10000 {
			return 10
		}
		return 1
	}
	det := NewSimObjectDetector(sc, MaskRCNN, nil)
	countFP := func(lo, hi int) int {
		n := 0
		for v := lo; v < hi; v++ {
			if len(det.Detect(video.FrameIdx(v), []annot.Label{"car"})) > 0 {
				n++
			}
		}
		return n
	}
	before := countFP(0, 5000)     // object absent, drift 1
	after := countFP(10000, 15000) // object absent, drift 10
	if after < before*4 {          // should be ~10x
		t.Errorf("drift did not raise FPR enough: before=%d after=%d", before, after)
	}
}

func TestLabelAccuracyBoost(t *testing.T) {
	sc := testScene(6)
	sc.LabelAccuracy = map[annot.Label]float64{"car": 5}
	det := NewSimObjectDetector(sc, YOLOv3, nil)
	misses := 0
	for v := 5000; v < 10000; v++ {
		if len(det.Detect(video.FrameIdx(v), []annot.Label{"car"})) == 0 {
			misses++
		}
	}
	// Miss rate should drop to roughly (1-TPR)/5 per instance.
	if rate := float64(misses) / 5000; rate > (1-YOLOv3.TPR)/3 {
		t.Errorf("boosted miss rate %.4f too high", rate)
	}
}

func TestTrajectoryBoxWithinFrame(t *testing.T) {
	for i := 0; i < 3; i++ {
		for off := 0; off < 3000; off += 13 {
			b := trajectoryBox(12345, i, off)
			if b.X < -1e-9 || b.Y < -1e-9 || b.X+b.W > 1+1e-9 || b.Y+b.H > 1+1e-9 {
				t.Fatalf("box out of frame at instance %d offset %d: %+v", i, off, b)
			}
		}
	}
}

func TestReflect01(t *testing.T) {
	for _, p := range []float64{-3.7, -1, 0, 0.3, 1, 2.5, 10} {
		got := reflect01(p, 0.8)
		if got < 0 || got > 0.8 {
			t.Errorf("reflect01(%v) = %v out of [0, 0.8]", p, got)
		}
	}
	if reflect01(0.5, 0) != 0 {
		t.Error("zero limit should clamp to 0")
	}
}

func TestCostMeter(t *testing.T) {
	var m CostMeter
	m.Add(10 * time.Millisecond)
	m.Add(5 * time.Millisecond)
	if m.Total() != 15*time.Millisecond || m.Calls() != 2 {
		t.Fatalf("meter = %v/%d", m.Total(), m.Calls())
	}
	var nilMeter *CostMeter
	nilMeter.Add(time.Second) // must not panic
	if nilMeter.Total() != 0 || nilMeter.Calls() != 0 {
		t.Fatal("nil meter should be inert")
	}
}

func TestMeterCountsInvocations(t *testing.T) {
	sc := testScene(7)
	var m CostMeter
	det := NewSimObjectDetector(sc, MaskRCNN, &m)
	det.Detect(0, []annot.Label{"car"})
	det.Detect(1, []annot.Label{"car"})
	if m.Calls() != 2 {
		t.Fatalf("calls = %d, want 2", m.Calls())
	}
	if m.Total() != 2*MaskRCNN.Cost {
		t.Fatalf("total = %v", m.Total())
	}
}

func TestScoreDistSample(t *testing.T) {
	d := ScoreDist{Mean: 0.9, Spread: 0.5}
	if got := d.sample(1, 1); got != 1 {
		t.Errorf("clamped high sample = %v", got)
	}
	d = ScoreDist{Mean: 0.1, Spread: 0.5}
	if got := d.sample(0, 0); got != 0 {
		t.Errorf("clamped low sample = %v", got)
	}
	d = ScoreDist{Mean: 0.5, Spread: 0.2}
	if got := d.sample(0.5, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("centered sample = %v", got)
	}
}

func TestNames(t *testing.T) {
	sc := testScene(8)
	if NewSimObjectDetector(sc, MaskRCNN, nil).Name() != "MaskRCNN" {
		t.Error("detector name")
	}
	if NewSimActionRecognizer(sc, I3D, nil).Name() != "I3D" {
		t.Error("recognizer name")
	}
}

// True-positive scores concentrate above the threshold; false-positive
// scores straddle it — the asymmetry the ranking experiments rely on.
func TestScoreDistributions(t *testing.T) {
	sc := testScene(9)
	det := NewSimObjectDetector(sc, MaskRCNN, nil)
	th := DefaultThresholds()
	var tpSum float64
	var tpN int
	for v := 5000; v < 10000; v++ {
		for _, d := range det.Detect(video.FrameIdx(v), []annot.Label{"car"}) {
			tpSum += d.Score
			tpN++
		}
	}
	if tpN == 0 {
		t.Fatal("no true detections")
	}
	tpMean := tpSum / float64(tpN)
	if tpMean < th.Object+0.1 {
		t.Fatalf("TP mean score %v barely above threshold", tpMean)
	}
	var fpSum float64
	var fpN int
	for v := 15000; v < 15500; v++ { // distractor region
		for _, d := range det.Detect(video.FrameIdx(v), []annot.Label{"car"}) {
			fpSum += d.Score
			fpN++
		}
	}
	if fpN == 0 {
		t.Fatal("no false detections in distractor region")
	}
	fpMean := fpSum / float64(fpN)
	if fpMean >= tpMean {
		t.Fatalf("FP mean %v not below TP mean %v", fpMean, tpMean)
	}
}
