package resilience_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/fault"
	"vaq/internal/resilience"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// hedgeAwareObject is slow on frames at or past slowFrom — but only
// for the primary racer (Replica 0); a hedge replica answers
// immediately. That makes a hedge win deterministic once hedging arms.
type hedgeAwareObject struct {
	slowFrom video.FrameIdx
	delay    time.Duration
	calls    atomic.Int64
}

func (h *hedgeAwareObject) Name() string { return "hedge-aware" }

func (h *hedgeAwareObject) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	h.calls.Add(1)
	if c, ok := fault.CallFrom(ctx); v >= h.slowFrom && (!ok || c.Replica == 0) {
		select {
		case <-time.After(h.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, nil
}

// TestHedgeRacesSlowPrimary covers the hedged-request round: before
// enough samples exist no replica launches; once armed, a primary that
// outlives the observed quantile is raced, the replica's fast answer
// decides the round, and nothing is counted degraded.
func TestHedgeRacesSlowPrimary(t *testing.T) {
	backend := &hedgeAwareObject{slowFrom: 1000, delay: 20 * time.Millisecond}
	pol := resilience.Policy{Seed: 1, HedgeQuantile: 0.9, HedgeMinSamples: 8}
	det := resilience.NewDetector(backend, pol, resilience.Options{})

	// Unarmed: the very first slow call must not hedge (no samples).
	cold := resilience.NewDetector(&hedgeAwareObject{slowFrom: 0, delay: time.Millisecond}, pol, resilience.Options{})
	cold.Detect(0, labels)
	if st := cold.Stats(); st.Hedges != 0 {
		t.Errorf("cold wrapper hedged %d times before HedgeMinSamples", st.Hedges)
	}

	// Warm the latency sketch with fast units, then hit a slow one.
	for i := 0; i < 20; i++ {
		det.Detect(video.FrameIdx(i), labels)
	}
	det.Detect(2000, labels)
	st := det.Stats()
	if st.Hedges != 1 {
		t.Fatalf("slow primary launched %d hedges, want 1", st.Hedges)
	}
	if st.HedgeWins != 1 {
		t.Errorf("hedge replica won %d rounds, want 1 (replica answers in µs, primary sleeps %v)",
			st.HedgeWins, backend.delay)
	}
	if st.Fallbacks != 0 || st.Errors != 0 {
		t.Errorf("hedged round recorded failures: %+v", st)
	}
	if det.Name() != "hedge-aware" {
		t.Errorf("Name() = %q", det.Name())
	}
}

// failingAction always errors; the recognizer-side dead backend.
type failingAction struct{}

func (failingAction) Name() string { return "dead-act" }

func (failingAction) DetectCtx(context.Context, video.ShotIdx, []annot.Label) ([]detect.ActionScore, error) {
	return nil, errors.New("recognizer down")
}

// TestRecognizerFallbackChainHops covers the action-side chain walk: a
// dead first hop passes the unit on, a healthy second hop serves it
// (hop 2), and with every hop dead the prior closes the chain
// (hop len(chain)+1).
func TestRecognizerFallbackChainHops(t *testing.T) {
	scene, q := testScene(7)
	healthyHop := detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil))
	actLabels := []annot.Label{q.Action}

	rec := resilience.NewRecognizer(failingAction{}, fastPolicy(0), resilience.Options{
		FallbackActions: []detect.FallibleActionRecognizer{failingAction{}, healthyHop},
	})
	if _, degraded := rec.DetectCtx(context.Background(), 5, actLabels); !degraded {
		t.Fatal("dead primary not reported degraded")
	}
	if hops := rec.DegradedHops(); hops[5] != 2 {
		t.Errorf("shot 5 served by hop %d, want 2 (first hop is dead)", hops[5])
	}
	st := rec.Stats()
	if want := []int64{0, 1}; len(st.FallbackHops) != 2 || st.FallbackHops[0] != want[0] || st.FallbackHops[1] != want[1] {
		t.Errorf("FallbackHops = %v, want %v", st.FallbackHops, want)
	}
	if rec.Name() != "dead-act" {
		t.Errorf("Name() = %q", rec.Name())
	}
	if rec.Breaker() == nil {
		t.Error("Breaker() accessor returned nil")
	}
	if b := rec.LabelBreaker(q.Action); b != nil {
		t.Error("LabelBreaker non-nil with the per-label policy off")
	}

	// All hops dead: the prior sampler answers as hop len(chain)+1,
	// and the infallible interface still returns scores for every label.
	allDead := resilience.NewRecognizer(failingAction{}, fastPolicy(0), resilience.Options{
		FallbackActions: []detect.FallibleActionRecognizer{failingAction{}},
	})
	scores := allDead.Recognize(9, actLabels)
	if len(scores) != len(actLabels) {
		t.Fatalf("prior served %d scores for %d labels", len(scores), len(actLabels))
	}
	if hops := allDead.DegradedHops(); hops[9] != 2 {
		t.Errorf("shot 9 served by hop %d, want 2 (the prior past one dead hop)", hops[9])
	}
	m := resilience.WrapFallible(&hedgeAwareObject{slowFrom: 1 << 30}, failingAction{}, fastPolicy(0), resilience.Options{})
	m.Rec.Recognize(1, actLabels)
	if !m.Degraded() {
		t.Error("Models.Degraded() false after a degraded recognizer serve")
	}
}

// TestHedgeArmedTimesInfallibleBackends: an armed hedge keeps the
// policy path over an infallible adapter, so its latency sketch (what
// /metricsz reports) fills; unarmed, the adapter takes the fast path.
func TestHedgeArmedTimesInfallibleBackends(t *testing.T) {
	scene, _ := testScene(1)
	for _, hq := range []float64{0, 0.9} {
		tr := trace.New()
		pol := resilience.Policy{Seed: 1, HedgeQuantile: hq, HedgeMinSamples: 8}
		sim := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		det := resilience.NewDetector(detect.AsFallibleObject(sim), pol, resilience.Options{Tracer: tr})
		for i := 0; i < 10; i++ {
			det.Detect(video.FrameIdx(i), labels)
		}
		name := "resilience.latency.obj." + strings.ToLower(sim.Name())
		st, timed := tr.Stages()[name]
		if want := hq > 0; timed != want || (want && st.Count != 10) {
			t.Fatalf("hedge quantile %v: stage %s present %v with %+v, want timed rounds %v", hq, name, timed, st, want)
		}
	}
}
