package detect

import (
	"context"

	"vaq/internal/annot"
	"vaq/internal/video"
)

// The ObjectDetector / ActionRecognizer interfaces the query algorithms
// consume are infallible by construction — the paper's pipelines assume
// the models always answer. Production backends do not: they stall,
// error transiently, and time out. The fallible interfaces below are the
// context-aware, error-returning face of a detection backend; the
// resilience layer (package resilience) consumes them and presents the
// infallible interfaces back to the engines, absorbing faults through
// retries, deadlines, circuit breaking and graceful degradation. The
// fault injector (package fault) implements them to simulate misbehaving
// backends deterministically.

// FallibleObjectDetector is an object detection backend that can fail:
// DetectCtx honours ctx (cancellation, deadlines) and reports transport
// or model errors instead of silently returning nothing.
type FallibleObjectDetector interface {
	// Name identifies the backend (used in reports, per-backend breakers
	// and fault counters).
	Name() string
	// DetectCtx returns the detections on frame v for the given labels,
	// or an error when the backend fails or ctx expires first.
	DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]Detection, error)
}

// FallibleActionRecognizer is an action recognition backend that can
// fail; the shot-level counterpart of FallibleObjectDetector.
type FallibleActionRecognizer interface {
	Name() string
	// RecognizeCtx returns the scores of the given action labels on shot
	// s, or an error when the backend fails or ctx expires first.
	RecognizeCtx(ctx context.Context, s video.ShotIdx, labels []annot.Label) ([]ActionScore, error)
}

// InfallibleBackend marks the adapters AsFallibleObject and
// AsFallibleAction return: backends that never error and never observe
// ctx. The resilience layer checks for it to skip the per-call deadline
// context and breaker round-trip, which such backends cannot react to
// anyway — that is what keeps wrapping the plain simulators near-free.
type InfallibleBackend interface {
	InfallibleBackend()
}

// PerLabelConcat marks backends whose result for a label list is each
// label's own result concatenated in call order, with nothing for a
// label not asked for; the simulators carry it. A memo (package infer)
// may then split one multi-label call into per-label entries and serve
// any later label list from them. Over a backend without the marker it
// memoizes single-label calls only. The fallible adapters expose the
// marker of what they adapt through Unwrap.
type PerLabelConcat interface {
	PerLabelConcat()
}

// AsFallibleObject adapts an infallible detector to the fallible
// interface (never erroring, ignoring ctx). Detectors that already
// implement FallibleObjectDetector pass through unwrapped.
func AsFallibleObject(d ObjectDetector) FallibleObjectDetector {
	if f, ok := d.(FallibleObjectDetector); ok {
		return f
	}
	return infallibleObject{d}
}

// AsFallibleAction adapts an infallible recognizer to the fallible
// interface; recognizers that already implement it pass through.
func AsFallibleAction(r ActionRecognizer) FallibleActionRecognizer {
	if f, ok := r.(FallibleActionRecognizer); ok {
		return f
	}
	return infallibleAction{r}
}

type infallibleObject struct{ d ObjectDetector }

func (a infallibleObject) Name() string       { return a.d.Name() }
func (a infallibleObject) InfallibleBackend() {}

// Unwrap exposes the adapted detector so layers below the adapter (the
// micro-batcher in package infer) can discover optional capabilities
// such as BatchObjectDetector.
func (a infallibleObject) Unwrap() ObjectDetector { return a.d }

// DetectCtx honours ctx before invoking: a cancelled or expired session
// must not spend (simulated or real) inference on dead work — cache-miss
// storms after a client disconnect would otherwise still run the model.
func (a infallibleObject) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.d.Detect(v, labels), nil
}

type infallibleAction struct{ r ActionRecognizer }

func (a infallibleAction) Name() string       { return a.r.Name() }
func (a infallibleAction) InfallibleBackend() {}

// Unwrap exposes the adapted recognizer (see infallibleObject.Unwrap).
func (a infallibleAction) Unwrap() ActionRecognizer { return a.r }

// RecognizeCtx honours ctx before invoking (see infallibleObject).
func (a infallibleAction) RecognizeCtx(ctx context.Context, s video.ShotIdx, labels []annot.Label) ([]ActionScore, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.r.Recognize(s, labels), nil
}
