package detect

import (
	"context"
	"errors"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/video"
)

// countObj records whether the wrapped model was ever invoked.
type countObj struct{ calls int }

func (c *countObj) Name() string { return "count-obj" }
func (c *countObj) Detect(video.FrameIdx, []annot.Label) []Detection {
	c.calls++
	return []Detection{{Label: "car", Score: 1}}
}

type countAct struct{ calls int }

func (c *countAct) Name() string { return "count-act" }
func (c *countAct) Recognize(video.ShotIdx, []annot.Label) []ActionScore {
	c.calls++
	return []ActionScore{{Label: "running", Score: 1}}
}

func TestInfallibleAdaptersHonourCancelledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	obj := &countObj{}
	fd := AsFallibleObject(obj)
	if dets, err := fd.DetectCtx(ctx, 0, []annot.Label{"car"}); !errors.Is(err, context.Canceled) || dets != nil {
		t.Fatalf("DetectCtx = %v, %v; want nil, context.Canceled", dets, err)
	}
	if obj.calls != 0 {
		t.Fatalf("detector invoked %d times under a cancelled ctx, want 0", obj.calls)
	}

	act := &countAct{}
	fa := AsFallibleAction(act)
	if scores, err := fa.DetectCtx(ctx, 0, []annot.Label{"running"}); !errors.Is(err, context.Canceled) || scores != nil {
		t.Fatalf("DetectCtx = %v, %v; want nil, context.Canceled", scores, err)
	}
	if act.calls != 0 {
		t.Fatalf("recognizer invoked %d times under a cancelled ctx, want 0", act.calls)
	}
}

func TestInfallibleAdaptersInvokeWithLiveCtx(t *testing.T) {
	obj := &countObj{}
	fd := AsFallibleObject(obj)
	dets, err := fd.DetectCtx(context.Background(), 0, []annot.Label{"car"})
	if err != nil || len(dets) != 1 || obj.calls != 1 {
		t.Fatalf("DetectCtx = %v, %v (calls %d)", dets, err, obj.calls)
	}
	act := &countAct{}
	fa := AsFallibleAction(act)
	scores, err := fa.DetectCtx(context.Background(), 0, []annot.Label{"running"})
	if err != nil || len(scores) != 1 || act.calls != 1 {
		t.Fatalf("DetectCtx = %v, %v (calls %d)", scores, err, act.calls)
	}
}

func TestInfallibleAdaptersUnwrap(t *testing.T) {
	obj := &countObj{}
	if u, ok := AsFallibleObject(obj).(interface{ Unwrap() ObjectDetector }); !ok || u.Unwrap() != ObjectDetector(obj) {
		t.Fatal("object adapter does not unwrap to the adapted detector")
	}
	act := &countAct{}
	if u, ok := AsFallibleAction(act).(interface{ Unwrap() ActionRecognizer }); !ok || u.Unwrap() != ActionRecognizer(act) {
		t.Fatal("action adapter does not unwrap to the adapted recognizer")
	}
}

func TestAsFalliblePassesThroughExistingFallible(t *testing.T) {
	obj := &countObj{}
	in := adapterAsDetector{AsFallibleObject(obj)}
	if g := AsFallibleObject(in); g != FallibleObjectDetector(in) {
		// Wrapping a FallibleObjectDetector again must not stack adapters.
		t.Fatal("fallible backend was re-wrapped")
	}
}

// adapterAsDetector gives a fallible backend the plain face too, to
// exercise the pass-through branch.
type adapterAsDetector struct{ f FallibleObjectDetector }

func (a adapterAsDetector) Name() string { return a.f.Name() }
func (a adapterAsDetector) Detect(v video.FrameIdx, labels []annot.Label) []Detection {
	dets, _ := a.f.DetectCtx(context.Background(), v, labels)
	return dets
}
func (a adapterAsDetector) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]Detection, error) {
	return a.f.DetectCtx(ctx, v, labels)
}

// TestSleep pins the shared ctx-aware wait: a non-positive delay
// returns nil at once even on a done ctx, a positive one waits it out,
// and a ctx that fires first cuts the wait short with its error.
func TestSleep(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(done, 0); err != nil {
		t.Errorf("Sleep(done, 0) = %v, want nil", err)
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Errorf("Sleep(1ms) = %v, want nil", err)
	}
	if err := Sleep(done, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep(done, 1h) = %v, want context.Canceled", err)
	}
}
