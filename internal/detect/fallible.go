package detect

import (
	"context"
	"time"

	"vaq/internal/annot"
	"vaq/internal/video"
)

// The ObjectDetector / ActionRecognizer interfaces the query algorithms
// consume are infallible by construction — the paper's pipelines assume
// the models always answer. Production backends do not: they stall,
// error transiently, and time out. Backend below is the context-aware,
// error-returning face of a detection backend; the resilience layer
// (package resilience) consumes it and presents the infallible
// interfaces back to the engines, absorbing faults through retries,
// deadlines, circuit breaking and graceful degradation. The fault
// injector (package fault) implements it to simulate misbehaving
// backends deterministically. Objects and actions are one abstraction
// at two granularities — a model applied to an occurrence unit — so
// every layer over a backend is written once, generic over the unit U
// and the per-label result R.

// Unit is an occurrence unit a model scores: a frame or a shot.
type Unit interface{ video.FrameIdx | video.ShotIdx }

// Result is one label's result on a unit: a frame's detection or a
// shot's action score.
type Result interface{ Detection | ActionScore }

// Backend is a detection backend that can fail: DetectCtx honours ctx
// (cancellation, deadlines) and reports transport or model errors
// instead of silently returning nothing.
type Backend[U Unit, R Result] interface {
	// Name identifies the backend (used in reports, per-backend breakers
	// and fault counters).
	Name() string
	// DetectCtx returns the results on unit u for the given labels, or
	// an error when the backend fails or ctx expires first.
	DetectCtx(ctx context.Context, u U, labels []annot.Label) ([]R, error)
}

// FallibleObjectDetector is an object detection backend that can fail.
type FallibleObjectDetector = Backend[video.FrameIdx, Detection]

// FallibleActionRecognizer is an action recognition backend that can
// fail; the shot-level counterpart of FallibleObjectDetector.
type FallibleActionRecognizer = Backend[video.ShotIdx, ActionScore]

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

// Kind is what the layers over a backend need to know of one model
// kind; Objects and Actions are the two kinds.
type Kind[U Unit, R Result] struct {
	// Salt names the kind in every seeded draw made above a backend —
	// fault decisions and corrupt scores, backoff jitter, prior samples
	// — and in the resilience.latency.<salt>.<backend> stage.
	Salt string
	// Label is a result's label; the memo splits multi-label fills by it.
	Label func(R) annot.Label
	// Rescore is r with its score replaced; fault corruption uses it.
	Rescore func(r R, score float64) R
}

// Objects is the frame-level kind: object detections.
var Objects = &Kind[video.FrameIdx, Detection]{
	Salt:    "obj",
	Label:   func(d Detection) annot.Label { return d.Label },
	Rescore: func(d Detection, score float64) Detection { d.Score = score; return d },
}

// Actions is the shot-level kind: action scores.
var Actions = &Kind[video.ShotIdx, ActionScore]{
	Salt:    "act",
	Label:   func(a ActionScore) annot.Label { return a.Label },
	Rescore: func(a ActionScore, score float64) ActionScore { a.Score = score; return a },
}

// AsFallibleObject adapts an infallible detector to the fallible
// interface (never erroring, ignoring ctx). Detectors that already
// implement FallibleObjectDetector pass through unwrapped.
func AsFallibleObject(d ObjectDetector) FallibleObjectDetector {
	return asFallible(d, ObjectDetector.Detect)
}

// AsFallibleAction adapts an infallible recognizer to the fallible
// interface; recognizers that already implement it pass through.
func AsFallibleAction(r ActionRecognizer) FallibleActionRecognizer {
	return asFallible(r, ActionRecognizer.Recognize)
}

func asFallible[M interface{ Name() string }, U Unit, R Result](model M, call func(M, U, []annot.Label) []R) Backend[U, R] {
	if f, ok := any(model).(Backend[U, R]); ok {
		return f
	}
	return &infallible[M, U, R]{model, call}
}

// infallible adapts model, an ObjectDetector or ActionRecognizer, whose
// scoring method is call.
type infallible[M interface{ Name() string }, U Unit, R Result] struct {
	model M
	call  func(M, U, []annot.Label) []R
}

func (a *infallible[M, U, R]) Name() string       { return a.model.Name() }
func (a *infallible[M, U, R]) InfallibleBackend() {}

// Unwrap exposes the adapted model so layers below the adapter (the
// memo and the batcher in package infer) can discover its optional
// capabilities: PerLabelConcat and Batcher.
func (a *infallible[M, U, R]) Unwrap() M { return a.model }

// DetectCtx honours ctx before invoking: a cancelled or expired session
// must not spend (simulated or real) inference on dead work — cache-miss
// storms after a client disconnect would otherwise still run the model.
func (a *infallible[M, U, R]) DetectCtx(ctx context.Context, u U, labels []annot.Label) ([]R, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.call(a.model, u, labels), nil
}

// Sleep waits for d, returning ctx's error if it fires first; a
// non-positive d returns nil at once. The layers over a backend use it
// for injected latency (fault) and retry backoff (resilience).
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
