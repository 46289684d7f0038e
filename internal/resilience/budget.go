package resilience

import "time"

// AdaptiveBudget shrinks retry budgets as serving load rises, so
// resilience spending stops amplifying overload: retries are worth
// burning when workers are idle and poison when requests already queue.
// It reads the p90 queue wait of the shared worker pool — the daemon's
// shed window, one load signal for every consumer — and scales the
// effective retry count linearly down to zero as that p90 approaches
// the configured threshold:
//
//	retries(max) = ⌊max · (1 − min(1, p90/threshold))⌋
//
// Cold pool → the full budget; at or past the threshold → no retries
// at all (first attempt then straight to the fallback chain). All
// methods are nil-safe: a nil budget never trims.
type AdaptiveBudget struct {
	threshold time.Duration
	p90       func() (time.Duration, bool)
}

// NewAdaptiveBudget returns a budget that starts trimming as the p90
// pool wait reported by p90 warms toward threshold; threshold <= 0
// disables trimming. p90's second result is false when the window has
// too few fresh samples to give a reading.
func NewAdaptiveBudget(threshold time.Duration, p90 func() (time.Duration, bool)) *AdaptiveBudget {
	return &AdaptiveBudget{threshold: threshold, p90: p90}
}

// Retries maps the current heat to an effective retry count for a
// policy allowing max; with no load reading (a cold or idle pool) the
// full budget stands.
func (b *AdaptiveBudget) Retries(max int) int {
	if b == nil || b.threshold <= 0 || max <= 0 {
		return max
	}
	p90, ok := b.p90()
	if !ok {
		return max
	}
	heat := float64(p90) / float64(b.threshold)
	if heat >= 1 {
		return 0
	}
	if heat < 0 {
		heat = 0
	}
	return int(float64(max) * (1 - heat))
}
