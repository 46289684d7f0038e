package infer

import (
	"cmp"
	"context"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// ObjectSource is the upstream a flight binds: the resilient detector
// face (result plus degraded flag, no error; resilience has already
// absorbed faults). *resilience.Detector implements it.
type ObjectSource interface {
	DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, bool)
}

// ActionSource is the shot-level counterpart; *resilience.Recognizer
// implements it.
type ActionSource interface {
	RecognizeCtx(ctx context.Context, s video.ShotIdx, labels []annot.Label) ([]detect.ActionScore, bool)
}

// ObjectFlight binds a resilient detector over this domain's memo to a
// session's lifetime. It does no deduplication of its own: concurrent
// same-unit calls coalesce in the memo below resilience, which also
// hands every caller its own copy of the result.
type ObjectFlight struct {
	src  ObjectSource
	name string
}

// ObjectFlight fronts src, reported under name.
func (sh *Shared) ObjectFlight(name string, src ObjectSource) *ObjectFlight {
	return &ObjectFlight{src: src, name: name}
}

// Bind returns the infallible engine-facing detector scoped to ctx (a
// session's lifetime): the engines keep calling plain Detect, and a
// cancelled ctx abandons the session's waits on fills other callers
// lead.
func (f *ObjectFlight) Bind(ctx context.Context) detect.ObjectDetector {
	return boundObject{f: f, ctx: bindCtx(ctx)}
}

// binding is a bound ctx and its twin without cancellation, made once
// per Bind rather than once per fill the session leads.
type binding struct{ ctx, detached context.Context }

type bindingKey struct{}

// bindCtx is ctx carrying its binding, when ctx can be cancelled.
func bindCtx(ctx context.Context) context.Context {
	if ctx == nil || ctx.Done() == nil {
		return cmp.Or(ctx, context.Background())
	}
	b := &binding{}
	b.ctx = context.WithValue(ctx, bindingKey{}, b)
	b.detached = context.WithoutCancel(b.ctx)
	return b.ctx
}

// detached is ctx without its cancellation, for a fill its leader must
// finish. A bound ctx, passed down unchanged (resilience's fast path),
// has its twin ready; any other ctx is detached here.
func detached(ctx context.Context) context.Context {
	if ctx.Done() == nil {
		return ctx
	}
	if b, ok := ctx.Value(bindingKey{}).(*binding); ok && b.ctx == ctx {
		return b.detached
	}
	return context.WithoutCancel(ctx)
}

type boundObject struct {
	f   *ObjectFlight
	ctx context.Context
}

func (b boundObject) Name() string { return b.f.name }

func (b boundObject) Detect(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	dets, _ := b.f.src.DetectCtx(b.ctx, v, labels)
	return dets
}

// ActionFlight is the shot-level counterpart of ObjectFlight.
type ActionFlight struct {
	src  ActionSource
	name string
}

// ActionFlight fronts src, reported under name.
func (sh *Shared) ActionFlight(name string, src ActionSource) *ActionFlight {
	return &ActionFlight{src: src, name: name}
}

// Bind returns the infallible engine-facing recognizer scoped to ctx.
func (f *ActionFlight) Bind(ctx context.Context) detect.ActionRecognizer {
	return boundAction{f: f, ctx: bindCtx(ctx)}
}

type boundAction struct {
	f   *ActionFlight
	ctx context.Context
}

func (b boundAction) Name() string { return b.f.name }

func (b boundAction) Recognize(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	scores, _ := b.f.src.RecognizeCtx(b.ctx, s, labels)
	return scores
}

// FallibleObjectSource adapts a fallible backend into an ObjectSource
// for stacks without a resilience layer (the library facade): errors
// (only ctx expiry for the adapted simulators) surface as empty,
// non-degraded results.
func FallibleObjectSource(d detect.FallibleObjectDetector) ObjectSource {
	return fallibleObjSource{d}
}

type fallibleObjSource struct{ d detect.FallibleObjectDetector }

func (p fallibleObjSource) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, bool) {
	dets, _ := p.d.DetectCtx(ctx, v, labels)
	return dets, false
}

// FallibleActionSource is the shot-level counterpart of
// FallibleObjectSource.
func FallibleActionSource(r detect.FallibleActionRecognizer) ActionSource {
	return fallibleActSource{r}
}

type fallibleActSource struct {
	r detect.FallibleActionRecognizer
}

func (p fallibleActSource) RecognizeCtx(ctx context.Context, s video.ShotIdx, labels []annot.Label) ([]detect.ActionScore, bool) {
	scores, _ := p.r.RecognizeCtx(ctx, s, labels)
	return scores, false
}
