package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCapDefaults(t *testing.T) {
	if got := New(0).Cap(); got <= 0 {
		t.Fatalf("New(0).Cap() = %d, want > 0", got)
	}
	if got := New(3).Cap(); got != 3 {
		t.Fatalf("New(3).Cap() = %d, want 3", got)
	}
}

func TestBoundsConcurrency(t *testing.T) {
	const slots, tasks = 3, 32
	p := New(slots)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			defer p.Release()
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > slots {
		t.Fatalf("peak concurrency %d exceeds pool cap %d", got, slots)
	}
	if p.InUse() != 0 {
		t.Fatalf("%d slots leaked", p.InUse())
	}
}

func TestAcquireHonoursCancellation(t *testing.T) {
	p := New(1)
	if err := p.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Acquire(ctx); err == nil {
		t.Fatal("Acquire with a cancelled context succeeded")
	}
	// The failed Acquire must not have consumed the waiting slot.
	p.Release()
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Release()
}

func TestAcquireUnblocksOnCancel(t *testing.T) {
	p := New(1)
	if err := p.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.Acquire(ctx) }()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Acquire = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not unblock on cancellation")
	}
	p.Release()
}

// TestAcquireErrorClassification is the satellite's contract: callers
// can tell a queue timeout (overload — shed) from a client that went
// away (not overload), while errors.Is on the raw context errors keeps
// working.
func TestAcquireErrorClassification(t *testing.T) {
	p := New(1)
	if err := p.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	// Queue timeout: the wait outlives the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := p.Acquire(ctx)
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("deadline wait: err = %v, want ErrQueueTimeout", err)
	}
	if errors.Is(err, ErrQueueCancelled) {
		t.Fatalf("deadline wait misclassified as cancelled: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrQueueTimeout does not wrap DeadlineExceeded: %v", err)
	}

	// Client cancel: the caller goes away mid-wait.
	cctx, ccancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.Acquire(cctx) }()
	time.Sleep(5 * time.Millisecond)
	ccancel()
	err = <-errc
	if !errors.Is(err, ErrQueueCancelled) {
		t.Fatalf("cancelled wait: err = %v, want ErrQueueCancelled", err)
	}
	if errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("cancelled wait misclassified as timeout: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrQueueCancelled does not wrap Canceled: %v", err)
	}
}

// TestObserverSeesEveryAcquire: the observer (the daemon's load
// signal) receives one wait per Acquire, immediate or queued, including
// a queued wait that timed out.
func TestObserverSeesEveryAcquire(t *testing.T) {
	p := New(1)
	var waits []time.Duration
	p.SetObserver(func(w time.Duration) { waits = append(waits, w) })

	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued Acquire = %v, want ErrQueueTimeout", err)
	}
	p.Release()
	if len(waits) != 2 || waits[1] < time.Millisecond {
		t.Fatalf("observed waits %v, want an immediate one and a ≥1ms queued one", waits)
	}
}

func TestDoReleasesOnError(t *testing.T) {
	p := New(1)
	wantErr := context.DeadlineExceeded
	if err := p.Do(context.Background(), func() error { return wantErr }); err != wantErr {
		t.Fatalf("Do = %v, want %v", err, wantErr)
	}
	if p.InUse() != 0 {
		t.Fatal("Do leaked its slot on error")
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release on an idle pool did not panic")
		}
	}()
	New(1).Release()
}
