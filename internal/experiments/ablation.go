package experiments

import (
	"math/rand"
	"time"

	"vaq/internal/annot"
	"vaq/internal/metrics"
	"vaq/internal/scanstat"
	"vaq/internal/svaq"
)

// Ablation benches for the design choices DESIGN.md §4 calls out.

// ShortCircuitResult reports the model invocations spent with and
// without Algorithm 2's predicate short-circuiting, for both predicate
// orders and with the adaptive ordering optimizer.
type ShortCircuitResult struct {
	Query                 string
	InvocationsFull       int
	InvocationsSC         int // objects evaluated first (query order)
	InvocationsSCReversed int // least selective predicate first
	InvocationsAdaptive   int // cost/(1−pass) adaptive ordering (order.go)
	SavedFraction         float64
	FinalOrder            []string
}

// AblationShortCircuit quantifies the invocation savings of evaluating
// predicates sequentially and skipping the rest of a failed clip
// (footnote 5 of the paper: the predicate order matters).
func (c *Context) AblationShortCircuit() (*ShortCircuitResult, error) {
	qs, err := c.youtube("q1")
	if err != nil {
		return nil, err
	}
	q := qs.Query
	run := func(query annot.Query, cfg svaq.Config) (*svaq.Engine, error) {
		cfg.P0Object, cfg.P0Action = FixedP0, FixedP0
		r, err := c.runOnline(qs, query, c.ObjProfile, c.ActProfile, cfg)
		if err != nil {
			return nil, err
		}
		return r.Engine, nil
	}
	full, err := run(q, svaq.Config{})
	if err != nil {
		return nil, err
	}
	sc, err := run(q, svaq.Config{ShortCircuit: true})
	if err != nil {
		return nil, err
	}
	reversed := annot.Query{Action: q.Action, Objects: reverseLabels(q.Objects)}
	scRev, err := run(reversed, svaq.Config{ShortCircuit: true})
	if err != nil {
		return nil, err
	}
	adaptive, err := run(q, svaq.Config{ShortCircuit: true, AdaptiveOrder: true})
	if err != nil {
		return nil, err
	}
	return &ShortCircuitResult{
		Query:                 q.String(),
		InvocationsFull:       full.Invocations(),
		InvocationsSC:         sc.Invocations(),
		InvocationsSCReversed: scRev.Invocations(),
		InvocationsAdaptive:   adaptive.Invocations(),
		SavedFraction:         1 - float64(sc.Invocations())/float64(full.Invocations()),
		FinalOrder:            adaptive.Order(),
	}, nil
}

// AlphaResult is one point of the significance-level sensitivity sweep.
type AlphaResult struct {
	Alpha     float64
	Precision float64
	Recall    float64
	F1        float64
}

// Alphas is the significance-level grid of the sweep.
var Alphas = []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.4}

// AblationAlpha sweeps the Equation 5 significance level for SVAQD on
// the blowing-leaves query: lower α demands stronger evidence per clip
// (precision up, recall down at the extremes).
func (c *Context) AblationAlpha() ([]AlphaResult, error) {
	qs, err := c.youtube("q2")
	if err != nil {
		return nil, err
	}
	q := annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}
	var out []AlphaResult
	for _, alpha := range Alphas {
		run, err := c.runOnline(qs, q, c.ObjProfile, c.ActProfile,
			svaq.Config{Dynamic: true, Alpha: alpha})
		if err != nil {
			return nil, err
		}
		prf := metrics.SequenceF1(run.Seqs, run.Truth, metrics.DefaultIOUThreshold)
		out = append(out, AlphaResult{Alpha: alpha, Precision: prf.Precision, Recall: prf.Recall, F1: prf.F1})
	}
	return out, nil
}

func reverseLabels(in []annot.Label) []annot.Label {
	out := make([]annot.Label, len(in))
	for i, l := range in {
		out[len(in)-1-i] = l
	}
	return out
}

// KernelUResult is one point of the kernel-scale sensitivity sweep.
type KernelUResult struct {
	KernelU float64
	F1      float64
}

// KernelUs is the §3.3 kernel-scale sweep (occurrence units).
var KernelUs = []float64{500, 1000, 2000, 4000, 8000, 16000}

// AblationKernelU sweeps SVAQD's estimator kernel scale on the
// blowing-leaves query.
func (c *Context) AblationKernelU() ([]KernelUResult, error) {
	qs, err := c.youtube("q2")
	if err != nil {
		return nil, err
	}
	q := annot.Query{Action: "blowing_leaves", Objects: []annot.Label{"car"}}
	var out []KernelUResult
	for _, u := range KernelUs {
		run, err := c.runOnline(qs, q, c.ObjProfile, c.ActProfile,
			svaq.Config{Dynamic: true, KernelU: u})
		if err != nil {
			return nil, err
		}
		out = append(out, KernelUResult{KernelU: u, F1: f1(run.Seqs, run.Truth)})
	}
	return out, nil
}

// CritValueResult compares the Naus closed-form critical value against
// the Monte-Carlo reference.
type CritValueResult struct {
	P              float64
	KClosed        int // closed form at the Monte-Carlo N
	KMonteCarlo    int
	ClosedTime     time.Duration // closed form at the engine's N = 100k
	MonteCarloTime time.Duration
}

// AblationCritValue compares the closed-form critical-value computation
// against a Monte-Carlo search (4000 trials per k) for the engine's
// object-window geometry, reporting agreement and latency.
func (c *Context) AblationCritValue() ([]CritValueResult, error) {
	rng := rand.New(rand.NewSource(99))
	const w, n, alpha, trials = 50, 100000, 0.05, 4000
	var out []CritValueResult
	for _, p := range []float64{1e-4, 1e-3, 1e-2, 5e-2} {
		pr := scanstat.Params{P: p, W: w, N: n}
		t0 := time.Now()
		if _, err := scanstat.CriticalValue(pr, alpha); err != nil {
			return nil, err
		}
		closedTime := time.Since(t0)
		// Monte-Carlo search over a smaller N (simulation cost): the
		// smallest k whose simulated tail is ≤ alpha.
		mcParams := scanstat.Params{P: p, W: w, N: 5000}
		t1 := time.Now()
		km := 1
		for ; km <= w; km++ {
			tail, err := scanstat.MonteCarloTail(mcParams, km, trials, rng)
			if err != nil {
				return nil, err
			}
			if tail <= alpha {
				break
			}
		}
		mcTime := time.Since(t1)
		// Closed form at the Monte-Carlo N for a fair agreement check.
		kcSmall, err := scanstat.CriticalValue(mcParams, alpha)
		if err != nil {
			return nil, err
		}
		out = append(out, CritValueResult{P: p, KClosed: kcSmall, KMonteCarlo: km, ClosedTime: closedTime, MonteCarloTime: mcTime})
	}
	return out, nil
}
