package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// shedWindow is the daemon's load signal. Every pool acquisition
// reports its queue wait; the window keeps the recent samples and
// reports their p90, which walks the brownout ladder (whose last rung
// sheds at the door), warms the adaptive retry budget and shows in
// /healthz. It also counts shed requests and scales their Retry-After.
//
// The window is a bounded deque (arrival order) plus a parallel
// sorted multiset of the same waits, maintained incrementally: each
// observe binary-searches one insert, each eviction one removal, and
// waitP90 is a single index into the sorted slice. The admission hot
// path allocates nothing — the previous implementation copied and
// sort.Slice'd the whole window per check.
type shedWindow struct {
	span    time.Duration // how far back samples count
	minSamp int           // fewer samples than this report no p90
	now     func() time.Time

	mu    sync.Mutex
	when  []time.Time     // arrival ring, oldest at head
	wait  []time.Duration // parallel waits
	head  int
	count int
	// sorted holds exactly the live window's waits in ascending
	// order; stale samples are evicted lazily from the deque's old
	// end on every observe and read, so the two structures never
	// disagree.
	sorted []time.Duration

	sheds atomic.Int64
}

// shedRing bounds the window's memory; at typical request rates it
// spans well past the freshness horizon.
const shedRing = 256

func newShedWindow() *shedWindow {
	return &shedWindow{
		span:    10 * time.Second,
		minSamp: 8,
		now:     time.Now,
		when:    make([]time.Time, shedRing),
		wait:    make([]time.Duration, shedRing),
		sorted:  make([]time.Duration, 0, shedRing),
	}
}

// observe records one pool-acquisition wait; wired via pool.SetObserver.
// Samples are kept whether or not the brownout ladder is armed —
// /healthz reports the p90 queue wait either way.
func (sw *shedWindow) observe(wait time.Duration) {
	if sw == nil {
		return
	}
	now := sw.now()
	sw.mu.Lock()
	sw.evictLocked(now)
	if sw.count == len(sw.when) {
		sw.removeOldestLocked()
	}
	tail := (sw.head + sw.count) % len(sw.when)
	sw.when[tail] = now
	sw.wait[tail] = wait
	sw.count++
	i := sort.Search(len(sw.sorted), func(i int) bool { return sw.sorted[i] >= wait })
	sw.sorted = sw.sorted[:len(sw.sorted)+1]
	copy(sw.sorted[i+1:], sw.sorted[i:])
	sw.sorted[i] = wait
	sw.mu.Unlock()
}

// evictLocked drops samples older than the freshness span from the
// deque's old end (and from the sorted multiset). Amortized O(1): each
// sample is evicted once.
func (sw *shedWindow) evictLocked(now time.Time) {
	cutoff := now.Add(-sw.span)
	for sw.count > 0 && !sw.when[sw.head].After(cutoff) {
		sw.removeOldestLocked()
	}
}

func (sw *shedWindow) removeOldestLocked() {
	w := sw.wait[sw.head]
	i := sort.Search(len(sw.sorted), func(i int) bool { return sw.sorted[i] >= w })
	copy(sw.sorted[i:], sw.sorted[i+1:])
	sw.sorted = sw.sorted[:len(sw.sorted)-1]
	sw.head = (sw.head + 1) % len(sw.when)
	sw.count--
}

// waitP90 returns the p90 queue wait over the fresh samples; ok is
// false with fewer than minSamp of them (a daemon that has barely
// served anything has no load reading).
func (sw *shedWindow) waitP90() (time.Duration, bool) {
	if sw == nil {
		return 0, false
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.evictLocked(sw.now())
	if sw.count < sw.minSamp {
		return 0, false
	}
	return sw.sorted[sw.count*9/10], true
}

// shedRetry counts one rejected request and returns the Retry-After
// hint in seconds: the threshold (the brownout ladder's High
// watermark), scaled by how far the p90 wait overshoots it (capped at
// 8×) and clamped to [1, 60] — the hotter the queue, the longer
// clients are told to stay away.
func (sw *shedWindow) shedRetry(threshold time.Duration) int {
	sw.sheds.Add(1)
	retry := float64(threshold) / float64(time.Second)
	if retry < 1 {
		retry = 1
	}
	if p90, ok := sw.waitP90(); ok && threshold > 0 && p90 > threshold {
		ratio := float64(p90) / float64(threshold)
		if ratio > 8 {
			ratio = 8
		}
		retry *= ratio
	}
	if retry > 60 {
		retry = 60
	}
	return int(retry)
}

// Sheds returns the total requests rejected by admission control.
func (sw *shedWindow) Sheds() int64 {
	if sw == nil {
		return 0
	}
	return sw.sheds.Load()
}
