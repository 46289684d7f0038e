// Package quantile implements a streaming estimator for targeted
// quantiles after Cormode, Korn, Muthukrishnan and Srivastava,
// "Effective Computation of Biased Quantiles over Data Streams" (ICDE
// 2005). The sketch keeps a small, merge-compressed sample of the
// stream whose per-sample rank uncertainty is bounded by the invariant
// function of the targeted-quantiles variant: each requested quantile φ
// is answered within ±ε·n ranks while the space stays logarithmic in
// the relative error rather than linear in the stream.
//
// The server's /metricsz endpoint feeds one sketch per route with
// request latencies and reads p50/p90/p99 back out; the §5.2 runtime
// experiment (internal/experiments) uses the same sketch for per-clip
// latency tails. A Sketch is not safe for
// concurrent use — callers serialize access (see server.metrics).
package quantile

import (
	"math"
	"sort"
)

// Target requests that quantile φ = Quantile be answered within
// ±Epsilon·n ranks.
type Target struct {
	Quantile float64 // in (0, 1)
	Epsilon  float64 // in (0, 1); smaller is tighter and larger
}

// DefaultTargets covers the latency-reporting quantiles of /metricsz:
// the median loosely, the tail tightly.
func DefaultTargets() []Target {
	return []Target{
		{Quantile: 0.50, Epsilon: 0.02},
		{Quantile: 0.90, Epsilon: 0.01},
		{Quantile: 0.99, Epsilon: 0.001},
	}
}

// sample is one retained stream element: g is the gap between this
// sample's minimum possible rank and the previous sample's, delta the
// uncertainty span of its own rank.
type sample struct {
	v     float64
	g     float64
	delta float64
}

// Sketch is a CKMS targeted-quantiles sketch.
type Sketch struct {
	targets []Target
	samples []sample // ascending by v
	buf     []float64
	n       float64 // observations absorbed into samples
}

// New builds a sketch answering the given targets (DefaultTargets when
// none are supplied). Targets with out-of-range fields are clamped.
func New(targets ...Target) *Sketch {
	if len(targets) == 0 {
		targets = DefaultTargets()
	}
	ts := make([]Target, len(targets))
	copy(ts, targets)
	for i := range ts {
		q := clamp(ts[i].Quantile, 1e-6, 1-1e-6)
		ts[i].Quantile = q
		// ε must stay below q(1−q)/2: beyond it the invariant admits
		// rank uncertainty at the front of the stream exceeding the
		// target rank itself, and the first-crossing query degenerates.
		ts[i].Epsilon = clamp(ts[i].Epsilon, 1e-6, 0.9*q*(1-q)/2)
	}
	return &Sketch{targets: ts, buf: make([]float64, 0, bufCap)}
}

const bufCap = 500

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// invariant is f(r, n): the maximum permitted rank uncertainty for a
// sample of minimum rank r, the minimum over all targets' constraints
// (floored at 1 so adjacent duplicates can still merge).
func (s *Sketch) invariant(r, n float64) float64 {
	m := math.MaxFloat64
	for _, t := range s.targets {
		var f float64
		if r <= t.Quantile*n {
			f = 2 * t.Epsilon * (n - r) / (1 - t.Quantile)
		} else {
			f = 2 * t.Epsilon * r / t.Quantile
		}
		if f < m {
			m = f
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Observe adds one value to the stream.
func (s *Sketch) Observe(v float64) {
	s.buf = append(s.buf, v)
	if len(s.buf) >= bufCap {
		s.flush()
	}
}

// flush merges the insert buffer into the sample list and compresses.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	merged := make([]sample, 0, len(s.samples)+len(s.buf))
	var r float64 // minimum rank of the last appended retained sample
	i := 0
	for _, smp := range s.samples {
		for i < len(s.buf) && s.buf[i] < smp.v {
			// New element inserted before smp: its rank is known only
			// to the uncertainty already present at this position.
			merged = append(merged, sample{v: s.buf[i], g: 1, delta: s.invariant(r, s.n) - 1})
			s.n++
			r++
			i++
		}
		merged = append(merged, smp)
		r += smp.g
	}
	for ; i < len(s.buf); i++ {
		// Appended at the end: exact maximum rank, no uncertainty.
		merged = append(merged, sample{v: s.buf[i], g: 1})
		s.n++
	}
	if len(merged) > 0 {
		merged[0].delta = 0 // the minimum is always exact
		merged[len(merged)-1].delta = 0
	}
	s.samples = merged
	s.buf = s.buf[:0]
	s.compress()
}

// compress merges adjacent samples whose combined uncertainty still
// satisfies the invariant, scanning right to left so ranks of samples
// not yet visited are unaffected.
func (s *Sketch) compress() {
	if len(s.samples) < 3 {
		return
	}
	// Precompute minimum ranks.
	r := make([]float64, len(s.samples))
	acc := 0.0
	for i, smp := range s.samples {
		acc += smp.g
		r[i] = acc
	}
	out := s.samples
	for i := len(out) - 2; i >= 1; i-- {
		if out[i].g+out[i+1].g+out[i+1].delta <= s.invariant(r[i-1], s.n) {
			out[i+1].g += out[i].g
			copy(out[i:], out[i+1:])
			out = out[:len(out)-1]
			copy(r[i:], r[i+1:])
			r = r[:len(r)-1]
		}
	}
	s.samples = out
}

// Query returns the estimated value of quantile q (any q in [0,1], best
// accuracy at the sketch's targets). It returns 0 on an empty sketch.
func (s *Sketch) Query(q float64) float64 {
	s.flush()
	if len(s.samples) == 0 {
		return 0
	}
	if q <= 0 {
		return s.samples[0].v
	}
	if q >= 1 {
		return s.samples[len(s.samples)-1].v
	}
	want := q * s.n
	tol := s.invariant(want, s.n) / 2
	var r float64
	for i := 0; i < len(s.samples)-1; i++ {
		r += s.samples[i].g
		nxt := s.samples[i+1]
		if r+nxt.g+nxt.delta > want+tol {
			return s.samples[i].v
		}
	}
	return s.samples[len(s.samples)-1].v
}

// Count returns the number of observed values.
func (s *Sketch) Count() int64 { return int64(s.n) + int64(len(s.buf)) }

// Min and Max return the exact stream extremes (0 on an empty sketch).
func (s *Sketch) Min() float64 { return s.Query(0) }

// Max returns the exact maximum observed value.
func (s *Sketch) Max() float64 { return s.Query(1) }
