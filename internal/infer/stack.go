package infer

import (
	"context"
	"strings"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
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
	return wrap(sh, detect.Objects, backend, adapted[detect.ObjectDetector](backend))
}

// Action is the shot-level counterpart of Object.
func (sh *Shared) Action(backend detect.FallibleActionRecognizer) detect.FallibleActionRecognizer {
	return wrap(sh, detect.Actions, backend, adapted[detect.ActionRecognizer](backend))
}

// adapted is the D a fallible adapter wraps (Unwrap), or backend itself;
// its optional capabilities (detect.PerLabelConcat, detect.Batcher) are
// discovered on it.
func adapted[D any](backend any) any {
	if u, ok := backend.(interface{ Unwrap() D }); ok {
		return u.Unwrap()
	}
	return backend
}

// wrap stacks the memo over the batcher over backend, whose model is
// the one it adapts. Both kinds share the domain's one table: a backend
// is keyed by its kind's initial and name.
func wrap[U detect.Unit, R detect.Result](sh *Shared, k *detect.Kind[U, R], backend detect.Backend[U, R], model any) detect.Backend[U, R] {
	inner := backend
	if sh.cfg.BatchWindow > 0 {
		vec, _ := model.(detect.Batcher[U, R])
		inner = newBatched(sh, inner, vec)
	}
	_, concat := model.(detect.PerLabelConcat)
	m := &memo[U, R]{sh: sh, id: sh.intern(k.Salt[:1] + backend.Name()), concat: concat, inner: inner, label: k.Label}
	if _, ok := inner.(detect.InfallibleBackend); ok {
		return infallibleMemo[U, R]{m}
	}
	return m
}

// infallibleMemo forwards the inner backend's InfallibleBackend marker:
// the memo adds no failure of its own beyond a caller's expired ctx,
// which the infallible adapters report too.
type infallibleMemo[U detect.Unit, R detect.Result] struct{ *memo[U, R] }

func (infallibleMemo[U, R]) InfallibleBackend() {}

// batched funnels same-label-list invocations through the bounded-delay
// accumulator. When the wrapped backend adapts a detect.Batcher (vec),
// multi-unit flushes become one vectorized call; otherwise the flush
// loops per unit, which still bounds concurrent backend pressure
// without changing results.
type batched[U detect.Unit, R detect.Result] struct {
	inner detect.Backend[U, R]
	acc   *accumulator[[]R]
}

func newBatched[U detect.Unit, R detect.Result](sh *Shared, backend detect.Backend[U, R], vec detect.Batcher[U, R]) *batched[U, R] {
	run := func(ctx context.Context, units []int, labels []annot.Label) ([][]R, error) {
		if vec != nil && len(units) > 1 {
			us := make([]U, len(units))
			for i, u := range units {
				us[i] = U(u)
			}
			return vec.DetectBatch(us, labels), nil
		}
		out := make([][]R, len(units))
		for i, u := range units {
			res, err := backend.DetectCtx(ctx, U(u), labels)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	acc, err := newAccumulator(sh.cfg.BatchWindow, sh.cfg.BatchMax, run, sh.observeFlush)
	if err != nil {
		// Unreachable: New rejects invalid batching configurations.
		panic(err)
	}
	return &batched[U, R]{inner: backend, acc: acc}
}

func (b *batched[U, R]) Name() string { return b.inner.Name() }

func (b *batched[U, R]) DetectCtx(ctx context.Context, u U, labels []annot.Label) ([]R, error) {
	return b.acc.do(ctx, labelsKey(labels), int(u), labels)
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
