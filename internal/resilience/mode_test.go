package resilience_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/resilience"
	"vaq/internal/video"
)

// modeStack builds a healthy primary with one healthy chain hop (the
// cheaper YOLOv3 profile), sharing one ModeVar across both wrappers —
// the shape the server's brownout controller drives.
func modeStack(seed int64, mode *resilience.ModeVar) (*resilience.Models, annot.Query) {
	scene, q := testScene(seed)
	opt := resilience.Options{
		Mode: mode,
		FallbackObjects: []detect.FallibleObjectDetector{
			detect.AsFallibleObject(detect.NewSimObjectDetector(scene, detect.YOLOv3, nil)),
		},
		FallbackActions: []detect.FallibleActionRecognizer{
			detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil)),
		},
	}
	m := resilience.WrapFallible(
		detect.AsFallibleObject(detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)),
		detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil)),
		fastPolicy(0), opt)
	return m, q
}

// TestModeCheapServesChainHopOne pins the cheap-profile posture: every
// unit skips the healthy primary and is served by chain hop 1,
// recorded as degraded.
func TestModeCheapServesChainHopOne(t *testing.T) {
	mode := &resilience.ModeVar{}
	mode.Set(resilience.ModeCheap)
	m, q := modeStack(7, mode)
	actLabels := []annot.Label{q.Action}

	for i := 0; i < 10; i++ {
		if _, degraded := m.Det.DetectCtx(context.Background(), video.FrameIdx(i), labels); !degraded {
			t.Fatalf("frame %d under ModeCheap not reported degraded", i)
		}
		if _, degraded := m.Rec.DetectCtx(context.Background(), video.ShotIdx(i), actLabels); !degraded {
			t.Fatalf("shot %d under ModeCheap not reported degraded", i)
		}
	}
	for unit, hop := range m.Det.DegradedHops() {
		if hop != 1 {
			t.Errorf("frame %d served by hop %d, want 1 (the chain's cheap profile)", unit, hop)
		}
	}
	for unit, hop := range m.Rec.DegradedHops() {
		if hop != 1 {
			t.Errorf("shot %d served by hop %d, want 1", unit, hop)
		}
	}
	if st := m.Stats(); st.DegradedUnits != 20 {
		t.Errorf("DegradedUnits = %d, want 20", st.DegradedUnits)
	}
}

// TestModePriorSkipsModels pins the prior-only posture: units are
// served by the bgprob sampler at hop len(chain)+1, and the answers
// are deterministic for a fixed seed.
func TestModePriorSkipsModels(t *testing.T) {
	run := func() ([]detect.Detection, map[int]int) {
		mode := &resilience.ModeVar{}
		mode.Set(resilience.ModePrior)
		m, _ := modeStack(7, mode)
		dets, degraded := m.Det.DetectCtx(context.Background(), 42, labels)
		if !degraded {
			t.Fatal("ModePrior serve not reported degraded")
		}
		return dets, m.Det.DegradedHops()
	}
	dets, hops := run()
	if hops[42] != 2 {
		t.Errorf("frame 42 served by hop %d, want 2 (prior past a 1-hop chain)", hops[42])
	}
	again, _ := run()
	if !reflect.DeepEqual(dets, again) {
		t.Errorf("prior answers differ across identical runs: %v vs %v", dets, again)
	}
}

// TestModeNoHedgeSuppressesHedging warms a hedging wrapper past its
// sample floor, flips the shared mode var, and checks the slow unit
// that would have hedged no longer does.
func TestModeNoHedgeSuppressesHedging(t *testing.T) {
	mode := &resilience.ModeVar{}
	backend := &hedgeAwareObject{slowFrom: 1000, delay: 20 * time.Millisecond}
	pol := resilience.Policy{Seed: 1, HedgeQuantile: 0.9, HedgeMinSamples: 8}
	det := resilience.NewDetector(backend, pol, resilience.Options{Mode: mode})

	for i := 0; i < 20; i++ {
		det.Detect(video.FrameIdx(i), labels)
	}
	det.Detect(2000, labels)
	before := det.Stats().Hedges
	if before == 0 {
		t.Fatal("armed wrapper never hedged on the slow unit")
	}
	mode.Set(resilience.ModeNoHedge)
	for i := 0; i < 5; i++ {
		det.Detect(video.FrameIdx(3000+i), labels)
	}
	if got := det.Stats().Hedges; got != before {
		t.Errorf("ModeNoHedge still hedged (total %d, want the pre-flip %d)", got, before)
	}
	// Results stay full-fidelity: no degraded serves under no-hedge.
	if st := det.Stats(); st.Fallbacks != 0 {
		t.Errorf("ModeNoHedge recorded %d fallbacks, want 0", st.Fallbacks)
	}
}

// TestModeFlipMidStream verifies the shared var takes effect on the
// next call with no per-session plumbing: full-fidelity serves before
// the flip, degraded ones after, full again after stepping back down.
func TestModeFlipMidStream(t *testing.T) {
	mode := &resilience.ModeVar{}
	m, _ := modeStack(7, mode)

	if _, degraded := m.Det.DetectCtx(context.Background(), 1, labels); degraded {
		t.Fatal("ModeFull serve reported degraded")
	}
	mode.Set(resilience.ModePrior)
	if _, degraded := m.Det.DetectCtx(context.Background(), 2, labels); !degraded {
		t.Fatal("post-flip serve not degraded")
	}
	mode.Set(resilience.ModeFull)
	if _, degraded := m.Det.DetectCtx(context.Background(), 3, labels); degraded {
		t.Fatal("serve after stepping back down still degraded")
	}
	if hops := m.Det.DegradedHops(); len(hops) != 1 || hops[2] != 2 {
		t.Errorf("DegradedHops = %v, want only frame 2 at hop 2", hops)
	}
}

// TestNilModeVar pins the nil contract: a nil *ModeVar reads ModeFull
// and Set on nil is a no-op, so unarmed servers pay nothing.
func TestNilModeVar(t *testing.T) {
	var mv *resilience.ModeVar
	if got := mv.Get(); got != resilience.ModeFull {
		t.Errorf("nil Get() = %v, want ModeFull", got)
	}
	mv.Set(resilience.ModePrior) // must not panic
	m, _ := modeStack(7, nil)
	if _, degraded := m.Det.DetectCtx(context.Background(), 1, labels); degraded {
		t.Error("nil-mode wrapper served degraded")
	}
}
