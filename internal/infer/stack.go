package infer

import (
	"context"
	"strings"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// Object wraps a fallible object backend with the domain's below-fault
// layers: the memo on top of the micro-batcher (when BatchWindow > 0)
// on top of the backend. The returned backend is what the fault
// injector (and above it the resilience layer) should wrap: every
// engine-visible invocation still crosses fault's deterministic draws,
// and a fault-corrupted result is produced above this layer, so the
// memo only ever holds clean results. Over an infallible backend the
// result carries detect.InfallibleBackend too.
func (sh *Shared) Object(backend detect.FallibleObjectDetector) detect.FallibleObjectDetector {
	inner := backend
	if sh.cfg.BatchWindow > 0 {
		inner = sh.newBatchedObject(inner)
	}
	m := &memoObject{inner: inner, b: &memoBackend{sh, sh.intern("o" + backend.Name()), perLabelConcat[detect.ObjectDetector](backend)}}
	if _, ok := inner.(detect.InfallibleBackend); ok {
		return infallibleMemoObject{m}
	}
	return m
}

// Action is the shot-level counterpart of Object.
func (sh *Shared) Action(backend detect.FallibleActionRecognizer) detect.FallibleActionRecognizer {
	inner := backend
	if sh.cfg.BatchWindow > 0 {
		inner = sh.newBatchedAction(inner)
	}
	m := &memoAction{inner: inner, b: &memoBackend{sh, sh.intern("a" + backend.Name()), perLabelConcat[detect.ActionRecognizer](backend)}}
	if _, ok := inner.(detect.InfallibleBackend); ok {
		return infallibleMemoAction{m}
	}
	return m
}

// perLabelConcat reports whether backend, or the D a fallible adapter
// wraps (Unwrap), declares detect.PerLabelConcat.
func perLabelConcat[D any](backend any) bool {
	if u, ok := backend.(interface{ Unwrap() D }); ok {
		backend = u.Unwrap()
	}
	_, ok := backend.(detect.PerLabelConcat)
	return ok
}

type memoObject struct {
	inner detect.FallibleObjectDetector
	b     *memoBackend
}

func (m *memoObject) Name() string { return m.inner.Name() }

func (m *memoObject) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	return memoCall(m.b, ctx, int64(v), labels,
		func(ctx context.Context, ls []annot.Label) ([]detect.Detection, error) {
			return m.inner.DetectCtx(ctx, v, ls)
		},
		func(d detect.Detection) annot.Label { return d.Label })
}

// infallibleMemoObject forwards the inner backend's InfallibleBackend
// marker: the memo adds no failure of its own beyond a caller's expired
// ctx, which the infallible adapters report too.
type infallibleMemoObject struct{ *memoObject }

func (infallibleMemoObject) InfallibleBackend() {}

type memoAction struct {
	inner detect.FallibleActionRecognizer
	b     *memoBackend
}

func (m *memoAction) Name() string { return m.inner.Name() }

func (m *memoAction) RecognizeCtx(ctx context.Context, s video.ShotIdx, labels []annot.Label) ([]detect.ActionScore, error) {
	return memoCall(m.b, ctx, int64(s), labels,
		func(ctx context.Context, ls []annot.Label) ([]detect.ActionScore, error) {
			return m.inner.RecognizeCtx(ctx, s, ls)
		},
		func(a detect.ActionScore) annot.Label { return a.Label })
}

type infallibleMemoAction struct{ *memoAction }

func (infallibleMemoAction) InfallibleBackend() {}

// batchedObject funnels same-label-list invocations through the bounded-
// delay accumulator. When the wrapped backend (unwrapped through the
// infallible adapter) supports DetectBatch, multi-unit flushes become
// one vectorized call; otherwise the flush loops per unit, which still
// bounds concurrent backend pressure without changing results.
type batchedObject struct {
	inner detect.FallibleObjectDetector
	acc   *accumulator[[]detect.Detection]
}

func (sh *Shared) newBatchedObject(backend detect.FallibleObjectDetector) *batchedObject {
	var vec detect.BatchObjectDetector
	if u, ok := backend.(interface{ Unwrap() detect.ObjectDetector }); ok {
		vec, _ = u.Unwrap().(detect.BatchObjectDetector)
	}
	run := func(ctx context.Context, units []int, labels []annot.Label) ([][]detect.Detection, error) {
		if vec != nil && len(units) > 1 {
			vs := make([]video.FrameIdx, len(units))
			for i, u := range units {
				vs[i] = video.FrameIdx(u)
			}
			return vec.DetectBatch(vs, labels), nil
		}
		out := make([][]detect.Detection, len(units))
		for i, u := range units {
			dets, err := backend.DetectCtx(ctx, video.FrameIdx(u), labels)
			if err != nil {
				return nil, err
			}
			out[i] = dets
		}
		return out, nil
	}
	acc, err := newAccumulator(sh.cfg.BatchWindow, sh.cfg.BatchMax, run, sh.observeFlush)
	if err != nil {
		// Unreachable: New rejects invalid batching configurations.
		panic(err)
	}
	return &batchedObject{inner: backend, acc: acc}
}

func (b *batchedObject) Name() string { return b.inner.Name() }

func (b *batchedObject) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	return b.acc.do(ctx, labelsKey(labels), int(v), labels)
}

type batchedAction struct {
	inner detect.FallibleActionRecognizer
	acc   *accumulator[[]detect.ActionScore]
}

func (sh *Shared) newBatchedAction(backend detect.FallibleActionRecognizer) *batchedAction {
	var vec detect.BatchActionRecognizer
	if u, ok := backend.(interface {
		Unwrap() detect.ActionRecognizer
	}); ok {
		vec, _ = u.Unwrap().(detect.BatchActionRecognizer)
	}
	run := func(ctx context.Context, units []int, labels []annot.Label) ([][]detect.ActionScore, error) {
		if vec != nil && len(units) > 1 {
			ss := make([]video.ShotIdx, len(units))
			for i, u := range units {
				ss[i] = video.ShotIdx(u)
			}
			return vec.RecognizeBatch(ss, labels), nil
		}
		out := make([][]detect.ActionScore, len(units))
		for i, u := range units {
			scores, err := backend.RecognizeCtx(ctx, video.ShotIdx(u), labels)
			if err != nil {
				return nil, err
			}
			out[i] = scores
		}
		return out, nil
	}
	acc, err := newAccumulator(sh.cfg.BatchWindow, sh.cfg.BatchMax, run, sh.observeFlush)
	if err != nil {
		// Unreachable: New rejects invalid batching configurations.
		panic(err)
	}
	return &batchedAction{inner: backend, acc: acc}
}

func (b *batchedAction) Name() string { return b.inner.Name() }

func (b *batchedAction) RecognizeCtx(ctx context.Context, s video.ShotIdx, labels []annot.Label) ([]detect.ActionScore, error) {
	return b.acc.do(ctx, labelsKey(labels), int(s), labels)
}

// observeFlush records one batch flush in the counters, the batch-size
// sketch (unitless: n observed as n microseconds) and the flush-latency
// sketch.
func (sh *Shared) observeFlush(n int, d time.Duration) {
	sh.batches.Add(1)
	sh.batchUnits.Add(int64(n))
	sh.sBatchSize.Observe(time.Duration(n) * time.Microsecond)
	sh.sBatchFlush.Observe(d)
}

// labelsKey is the batch grouping key: the label list in call order, so
// every member of a batch asked for the same labels in the same order
// and the vectorized call's results match each member's own call.
func labelsKey(labels []annot.Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(string(l))
	}
	return b.String()
}
