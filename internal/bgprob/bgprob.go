// Package bgprob implements the dynamic background-probability estimator
// of §3.3 (Equation 6): a kernel-smoothed estimate of the per-occurrence-
// unit event probability p(t), updated online with an exponential kernel
// and edge correction so that the estimator is unbiased when the true
// background probability is constant.
//
// Internally the estimator keeps a decayed event mass
//
//	D(t) = Σ_n exp(−(t−t_n)/u)
//
// over the event times t_n seen so far, which admits an O(1) update per
// occurrence unit: D(t+1) = D(t)·e^(−1/u) + 1{event at t+1}. The edge
// correction divides by the decayed mass a constant-rate process would
// accumulate over the t units observed so far,
//
//	Σ_{j=1}^{t} exp(−(t−j)/u) = (1 − e^(−t/u)) / (1 − e^(−1/u)),
//
// yielding p̂(t) = D(t)·(1 − e^(−1/u)) / (1 − e^(−t/u)), whose
// expectation equals the true p for i.i.d. Bernoulli(p) events (the
// unbiasedness property Equation 6 establishes). Sudden changes of the
// background rate are tracked on the time scale u, while gradual drift
// is absorbed smoothly.
package bgprob

import (
	"fmt"
	"math"
)

// Estimator tracks the background probability of one event type (one
// object predicate or the action predicate). The zero value is not
// usable; construct with New.
type Estimator struct {
	u     float64 // kernel scale in occurrence units
	decay float64 // e^(−1/u), applied per occurrence unit
	mass  float64 // decayed event mass D(t)
	t     int     // occurrence units observed so far
	prior float64 // initial probability returned before any observations
}

// New returns an estimator with kernel scale u (in occurrence units) and
// the given initial background probability p0. The initial probability
// only matters until observations accumulate; §3.3's point is precisely
// that its influence vanishes.
func New(u float64, p0 float64) (*Estimator, error) {
	if !(u > 0) {
		return nil, fmt.Errorf("bgprob: kernel scale u must be positive, got %v", u)
	}
	if !(p0 >= 0 && p0 <= 1) {
		return nil, fmt.Errorf("bgprob: initial probability %v outside [0,1]", p0)
	}
	return &Estimator{u: u, decay: math.Exp(-1 / u), prior: p0}, nil
}

// Observe advances the estimator by one occurrence unit carrying the
// given event indicator (object detected on the frame / action predicted
// on the shot).
func (e *Estimator) Observe(event bool) {
	e.mass *= e.decay
	if event {
		e.mass++
	}
	e.t++
}

// ObserveRun advances the estimator by n occurrence units of which the
// given count carried events, spreading the events uniformly over the
// run. It is used when the caller processes a whole clip at a time
// (Algorithm 3 updates after each clip).
func (e *Estimator) ObserveRun(n, events int) {
	if n <= 0 {
		return
	}
	if events < 0 {
		events = 0
	}
	if events > n {
		events = n
	}
	// Spread events as evenly as possible across the run so the decayed
	// mass matches a uniform arrival pattern.
	placed := 0
	for i := 1; i <= n; i++ {
		want := (events*i + n - 1) / n // ceil(events*i/n)
		e.Observe(want > placed)
		if want > placed {
			placed++
		}
	}
}

// P returns the current estimate p̂(t) with edge correction. Before any
// observation it returns the initial probability.
func (e *Estimator) P() float64 {
	if e.t == 0 {
		return e.prior
	}
	denom := 1 - math.Exp(-float64(e.t)/e.u)
	if denom <= 0 {
		return e.prior
	}
	p := e.mass * (1 - e.decay) / denom
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// Units returns the number of occurrence units observed so far.
func (e *Estimator) Units() int { return e.t }

func (e *Estimator) String() string {
	return fmt.Sprintf("bgprob(u=%.0f, t=%d, p=%.6f)", e.u, e.t, e.P())
}
