package infer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vaq/internal/annot"
)

// accumulator implements bounded-delay micro-batching: invocations for
// the same label-list key arriving within window of each other (and up
// to maxN of them) are flushed as one vectorized call. The first
// arrival arms a timer; reaching maxN flushes immediately (concurrent
// arrivals racing the flush may ride along, so maxN is a soft cap). The
// flush runs on a context detached from the first arrival, so a caller
// cancelling mid-window abandons only its own wait, not the batch.
type accumulator[T any] struct {
	window time.Duration
	maxN   int
	// run performs the vectorized call for one flushed batch.
	run func(ctx context.Context, units []int, labels []annot.Label) ([]T, error)
	// observe reports each flush's size and duration for instrumentation.
	observe func(n int, d time.Duration)

	mu     sync.Mutex
	groups map[string]*bgroup[T]
}

type bgroup[T any] struct {
	key     string
	ctx     context.Context
	labels  []annot.Label
	units   []int
	outs    []chan batchOut[T]
	timer   *time.Timer
	flushed bool
}

type batchOut[T any] struct {
	val T
	err error
}

// newAccumulator validates its sizing at construction. A maxN ≤ 0 would
// silently degenerate the batcher — every arrival is instantly "full",
// so nothing ever batches while a window timer is still armed per call
// — and a window ≤ 0 would flush every group the moment its timer is
// created; both are configuration bugs, not operating points, so they
// are rejected rather than clamped.
func newAccumulator[T any](window time.Duration, maxN int,
	run func(ctx context.Context, units []int, labels []annot.Label) ([]T, error),
	observe func(n int, d time.Duration)) (*accumulator[T], error) {
	if window <= 0 {
		return nil, fmt.Errorf("infer: batch window must be positive, got %v", window)
	}
	if maxN <= 0 {
		return nil, fmt.Errorf("infer: batch max must be positive, got %d", maxN)
	}
	return &accumulator[T]{
		window:  window,
		maxN:    maxN,
		run:     run,
		observe: observe,
		groups:  make(map[string]*bgroup[T]),
	}, nil
}

// do enqueues unit under the label-list key and waits for its result
// from the batch flush. ctx expiry abandons the wait (the batch still
// serves the remaining members).
func (a *accumulator[T]) do(ctx context.Context, key string, unit int, labels []annot.Label) (T, error) {
	out := make(chan batchOut[T], 1)
	a.mu.Lock()
	g, ok := a.groups[key]
	if !ok {
		g = &bgroup[T]{
			key:    key,
			ctx:    context.WithoutCancel(ctx),
			labels: append([]annot.Label(nil), labels...),
		}
		a.groups[key] = g
		g.timer = time.AfterFunc(a.window, func() { a.flush(g) })
	}
	g.units = append(g.units, unit)
	g.outs = append(g.outs, out)
	full := len(g.units) >= a.maxN
	a.mu.Unlock()
	if full {
		a.flush(g)
	}
	select {
	case r := <-out:
		return r.val, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// flush closes the group (idempotently), runs the vectorized call and
// fans results out to every member.
func (a *accumulator[T]) flush(g *bgroup[T]) {
	a.mu.Lock()
	if g.flushed {
		a.mu.Unlock()
		return
	}
	g.flushed = true
	g.timer.Stop()
	if a.groups[g.key] == g {
		delete(a.groups, g.key)
	}
	units, outs := g.units, g.outs
	a.mu.Unlock()

	start := time.Now()
	vals, err := a.run(g.ctx, units, g.labels)
	if err == nil && len(vals) != len(units) {
		// A well-behaved backend returns one result per unit; anything
		// else is a contract violation surfaced to every waiter.
		err = errBatchShape
	}
	if a.observe != nil {
		a.observe(len(units), time.Since(start))
	}
	for i, out := range outs {
		if err != nil {
			var zero T
			out <- batchOut[T]{zero, err}
			continue
		}
		out <- batchOut[T]{vals[i], nil}
	}
}

type batchShapeError struct{}

func (batchShapeError) Error() string { return "infer: batch backend returned wrong result count" }

var errBatchShape = batchShapeError{}
