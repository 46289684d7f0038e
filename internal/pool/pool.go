// Package pool provides the bounded-parallelism execution layer shared
// by the serving daemon's online sessions and the offline query paths:
// a context-aware counting semaphore. One Pool per process boundary
// (e.g. the daemon's -workers flag) makes online clip evaluations and
// offline per-video RVAQ runs compete for the same bounded concurrency
// instead of oversubscribing the machine.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"vaq/internal/trace"
)

// Acquire failures distinguish *why* the caller never got a slot: a
// queue wait that outlived the caller's deadline is the pool's fault
// (overload — the admission controller sheds on these), while a caller
// that went away mid-wait is not. Both wrap the underlying context
// error, so errors.Is(err, context.DeadlineExceeded) etc. keep working.
var (
	// ErrQueueTimeout — the wait for a slot exceeded the deadline.
	ErrQueueTimeout = errors.New("pool: queue wait exceeded deadline")
	// ErrQueueCancelled — the caller was cancelled while queued.
	ErrQueueCancelled = errors.New("pool: caller cancelled while queued")
)

// Pool is a counting semaphore with context-aware acquisition. The zero
// value is not usable; build with New.
type Pool struct {
	slots    chan struct{}
	observer atomic.Value // func(time.Duration), set via SetObserver
}

// New sizes a pool. Non-positive n falls back to runtime.GOMAXPROCS(0).
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, n)}
}

// Cap returns the pool's slot count.
func (p *Pool) Cap() int { return cap(p.slots) }

// InUse returns the number of slots currently held.
func (p *Pool) InUse() int { return len(p.slots) }

// SetObserver installs a callback receiving every Acquire's wait time
// (successful or not); the serving daemon feeds its load-shedding
// window from it. Safe to call concurrently; nil clears nothing —
// install a no-op instead.
func (p *Pool) SetObserver(fn func(wait time.Duration)) {
	if fn != nil {
		p.observer.Store(fn)
	}
}

// wrapAcquireErr classifies a context failure during acquisition.
func wrapAcquireErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrQueueTimeout, err)
	}
	return fmt.Errorf("%w: %w", ErrQueueCancelled, err)
}

// Acquire blocks until a slot is free or ctx is done, in which case it
// returns ErrQueueTimeout or ErrQueueCancelled (wrapping ctx's error)
// without holding a slot. A nil ctx never gives up. When ctx carries a
// tracer, the time spent waiting is recorded in the "pool.wait" stage
// sketch (including cancelled waits).
func (p *Pool) Acquire(ctx context.Context) error {
	if ctx == nil {
		p.slots <- struct{}{}
		return nil
	}
	start := time.Now()
	st := trace.FromContext(ctx).Stage("pool.wait")
	defer func() {
		waited := time.Since(start)
		st.Observe(waited)
		if fn, ok := p.observer.Load().(func(time.Duration)); ok {
			fn(waited)
		}
	}()
	// Prefer the cancellation signal when both are ready, so a cancelled
	// caller never grabs a slot it would release unused.
	if err := ctx.Err(); err != nil {
		return wrapAcquireErr(err)
	}
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return wrapAcquireErr(ctx.Err())
	}
}

// Release returns a slot taken by Acquire.
func (p *Pool) Release() {
	select {
	case <-p.slots:
	default:
		panic("pool: Release without Acquire")
	}
}

// Do runs f while holding a slot; it propagates the acquisition error
// when ctx expires first.
func (p *Pool) Do(ctx context.Context, f func() error) error {
	if err := p.Acquire(ctx); err != nil {
		return err
	}
	defer p.Release()
	return f()
}
