package infer

import (
	"cmp"
	"context"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// Source is the upstream a flight binds: the resilient face of a
// backend of either kind (results plus degraded flag, no error;
// resilience has already absorbed faults). *resilience.Detector and
// *resilience.Recognizer implement it.
type Source[U detect.Unit, R detect.Result] interface {
	DetectCtx(ctx context.Context, u U, labels []annot.Label) ([]R, bool)
}

// FallibleSource adapts a fallible backend into a Source for stacks
// without a resilience layer (the library facade): errors (only ctx
// expiry for the adapted simulators) surface as empty, non-degraded
// results.
func FallibleSource[U detect.Unit, R detect.Result](b detect.Backend[U, R]) Source[U, R] {
	return fallibleSource[U, R]{b}
}

type fallibleSource[U detect.Unit, R detect.Result] struct{ b detect.Backend[U, R] }

func (p fallibleSource[U, R]) DetectCtx(ctx context.Context, u U, labels []annot.Label) ([]R, bool) {
	res, _ := p.b.DetectCtx(ctx, u, labels)
	return res, false
}

// ObjectFlight binds a resilient detector over this domain's memo to a
// session's lifetime. It does no deduplication of its own: concurrent
// same-unit calls coalesce in the memo below resilience, which also
// hands every caller its own copy of the result.
type ObjectFlight session[video.FrameIdx, detect.Detection]

// ObjectFlight fronts src, reported under name.
func (sh *Shared) ObjectFlight(name string, src Source[video.FrameIdx, detect.Detection]) *ObjectFlight {
	return &ObjectFlight{src: src, name: name}
}

// Bind returns the infallible engine-facing detector scoped to ctx (a
// session's lifetime): the engines keep calling plain Detect, and a
// cancelled ctx abandons the session's waits on fills other callers
// lead.
func (f *ObjectFlight) Bind(ctx context.Context) detect.ObjectDetector {
	return boundObject{session[video.FrameIdx, detect.Detection]{f.src, f.name, bindCtx(ctx)}}
}

// ActionFlight is the shot-level counterpart of ObjectFlight.
type ActionFlight session[video.ShotIdx, detect.ActionScore]

// ActionFlight fronts src, reported under name.
func (sh *Shared) ActionFlight(name string, src Source[video.ShotIdx, detect.ActionScore]) *ActionFlight {
	return &ActionFlight{src: src, name: name}
}

// Bind returns the infallible engine-facing recognizer scoped to ctx.
func (f *ActionFlight) Bind(ctx context.Context) detect.ActionRecognizer {
	return boundAction{session[video.ShotIdx, detect.ActionScore]{f.src, f.name, bindCtx(ctx)}}
}

// session is a flight's source and reported name scoped to one
// session's ctx; a flight is an unbound session, and boundObject and
// boundAction give a bound one the engines' method names.
type session[U detect.Unit, R detect.Result] struct {
	src  Source[U, R]
	name string
	ctx  context.Context
}

func (s session[U, R]) Name() string { return s.name }

func (s session[U, R]) call(u U, labels []annot.Label) []R {
	res, _ := s.src.DetectCtx(s.ctx, u, labels)
	return res
}

type boundObject struct {
	session[video.FrameIdx, detect.Detection]
}

func (b boundObject) Detect(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	return b.call(v, labels)
}

type boundAction struct {
	session[video.ShotIdx, detect.ActionScore]
}

func (b boundAction) Recognize(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	return b.call(s, labels)
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
