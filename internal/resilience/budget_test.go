package resilience

import (
	"sort"
	"testing"
	"time"
)

// TestAdaptiveBudgetNilAndDisabled pins the nil-safety contract: a nil
// budget, a zero threshold, and a non-positive max all leave the
// static budget untouched.
func TestAdaptiveBudgetNilAndDisabled(t *testing.T) {
	hot := func() (time.Duration, bool) { return time.Hour, true }
	var nilB *AdaptiveBudget
	if got := nilB.Retries(3); got != 3 {
		t.Errorf("nil budget Retries(3) = %d, want 3", got)
	}
	off := NewAdaptiveBudget(0, hot)
	if got := off.Retries(3); got != 3 {
		t.Errorf("disabled budget Retries(3) = %d, want 3", got)
	}
	b := NewAdaptiveBudget(time.Second, hot)
	if got := b.Retries(0); got != 0 {
		t.Errorf("Retries(0) = %d, want 0", got)
	}
}

// TestAdaptiveBudgetTrimsWithHeat walks the formula
// retries(max) = ⌊max·(1 − min(1, p90/threshold))⌋ through its
// regimes: no reading (full budget), saturated (zero), no reading again
// (full), half heat (half budget).
func TestAdaptiveBudgetTrimsWithHeat(t *testing.T) {
	var (
		p90 time.Duration
		ok  bool
	)
	b := NewAdaptiveBudget(100*time.Millisecond, func() (time.Duration, bool) { return p90, ok })

	// Too few fresh samples for a reading: full budget.
	p90 = 100 * time.Millisecond
	if got := b.Retries(4); got != 4 {
		t.Errorf("cold budget Retries(4) = %d, want 4", got)
	}

	// p90 past the threshold: no retries at all.
	p90, ok = 150*time.Millisecond, true
	if got := b.Retries(4); got != 0 {
		t.Errorf("saturated budget Retries(4) = %d, want 0", got)
	}

	// Everything aged out of the window: full budget again.
	ok = false
	if got := b.Retries(4); got != 4 {
		t.Errorf("stale-window Retries(4) = %d, want 4", got)
	}

	// p90 at half the threshold: half the budget.
	p90, ok = 50*time.Millisecond, true
	if got := b.Retries(4); got != 2 {
		t.Errorf("half-heat Retries(4) = %d, want 2", got)
	}
}

// TestAdaptiveBudgetRingWraps feeds the budget from a fixed-size ring
// of queue waits, the shape of the daemon's shed window, and overfills
// it: each Retries call reads the source afresh, so once the ring has
// wrapped the newest samples alone set the budget, in both directions.
func TestAdaptiveBudgetRingWraps(t *testing.T) {
	const size = 16
	var (
		ring [size]time.Duration
		next int
		n    int
	)
	observe := func(d time.Duration) {
		ring[next] = d
		next = (next + 1) % size
		if n < size {
			n++
		}
	}
	p90 := func() (time.Duration, bool) {
		if n < size {
			return 0, false
		}
		s := append([]time.Duration(nil), ring[:n]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[(n*9)/10], true
	}
	b := NewAdaptiveBudget(time.Millisecond, p90)

	for i := 0; i < size+50; i++ {
		observe(0)
	}
	if got := b.Retries(5); got != 5 {
		t.Errorf("idle overfilled budget Retries(5) = %d, want 5", got)
	}
	for i := 0; i < size+50; i++ {
		observe(2 * time.Millisecond)
	}
	if n != size {
		t.Errorf("ring holds %d samples after overfill, want %d", n, size)
	}
	if got := b.Retries(5); got != 0 {
		t.Errorf("overfilled hot budget Retries(5) = %d, want 0", got)
	}
	for i := 0; i < size; i++ {
		observe(0)
	}
	if got := b.Retries(5); got != 5 {
		t.Errorf("cooled budget Retries(5) = %d, want 5", got)
	}
}
