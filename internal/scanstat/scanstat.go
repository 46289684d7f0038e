// Package scanstat implements the scan statistics machinery of §3.2:
// the probability that some window of w consecutive occurrence units
// (frames or shots) contains at least k positive predictions, under a
// background Bernoulli success probability p, and the derived critical
// value k_crit of Equation 5.
//
// Following the approach of Naus (1982) as popularized by Turner,
// Ghahramani and Bottone (2010) — reference [45] of the paper — the tail
// probability is approximated as
//
//	P(S_w(N) ≥ k | p, w, L) ≈ 1 − Q₂ · (Q₃/Q₂)^(L−2),  L = N/w,
//
// where Q₂ = P(S_w(2w) < k) and Q₃ = P(S_w(3w) < k) are computed in
// closed form for Bernoulli trials using the binomial distribution
// b(i; w, p) with window mean ψ = p·w. The package also ships an exact
// Monte-Carlo estimator and, for small windows, tests compare the closed
// forms to brute-force enumeration.
package scanstat

import (
	"errors"
	"fmt"
	"math"
)

// Params bundles the inputs of the scan-statistic computation.
type Params struct {
	// P is the background probability of a positive prediction on one
	// occurrence unit (Bernoulli success probability).
	P float64
	// W is the scanning window length in occurrence units. For object
	// predicates this is the clip length in frames; for the action
	// predicate, the clip length in shots (§3.2).
	W int
	// N is the total number of occurrence units observed. L = N/W.
	N int
}

// Validate reports whether the parameters are usable.
func (pr Params) Validate() error {
	switch {
	case !(pr.P >= 0 && pr.P <= 1):
		return fmt.Errorf("scanstat: probability %v outside [0,1]", pr.P)
	case pr.W <= 0:
		return fmt.Errorf("scanstat: window %d must be positive", pr.W)
	case pr.N < pr.W:
		return fmt.Errorf("scanstat: N=%d shorter than window %d", pr.N, pr.W)
	}
	return nil
}

// lnFactTable holds ln(n!) for n ≤ 1024, covering every window the
// engines use; lnFact falls back to Lgamma beyond it.
var lnFactTable = func() (t [1025]float64) {
	for n := range t {
		t[n], _ = math.Lgamma(float64(n) + 1)
	}
	return t
}()

// lnFact returns ln(n!).
func lnFact(n int) float64 {
	if n < len(lnFactTable) {
		return lnFactTable[n]
	}
	v, _ := math.Lgamma(float64(n) + 1)
	return v
}

// pmfTerm returns b(k; w, p) for 0 < p < 1, 0 ≤ k ≤ w, in log space for
// numerical stability, from lw = ln w!, lp = ln p and lq = ln(1−p).
func pmfTerm(k, w int, lw, lp, lq float64) float64 {
	return math.Exp(lw - lnFact(k) - lnFact(w-k) + float64(k)*lp + float64(w-k)*lq)
}

// binomPMF returns P(X = k) for X ~ Binomial(w, p).
func binomPMF(k, w int, p float64) float64 {
	if k < 0 || k > w {
		return 0
	}
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == w {
			return 1
		}
		return 0
	}
	return pmfTerm(k, w, lnFact(w), math.Log(p), math.Log(1-p))
}

// binomCDF returns P(X ≤ k) for X ~ Binomial(w, p).
func binomCDF(k, w int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= w {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += binomPMF(i, w, p)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// BinomTail returns P(X ≥ k) for X ~ Binomial(n, p): the probability
// that at least k of n background units are positive. The adaptive
// sampling planner (package plan) uses it to prune clips whose
// unsampled remainder is overwhelmingly unlikely to reach the critical
// value. k ≤ 0 yields 1; k > n yields 0; n ≤ 0 degenerates to the
// point mass at zero.
func BinomTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if n < k {
		return 0
	}
	v := 1 - binomCDF(k-1, n, p)
	if v < 0 {
		return 0
	}
	return v
}

// binomTable is Binomial(w, p) tabulated once for a critical-value
// search. Each entry is the value binomPMF or binomCDF returns for the
// same arguments, bit for bit: the pmf takes the same expression with
// its logarithms hoisted, and the CDF is the same left-to-right sum
// with the same clamp.
type binomTable struct {
	w   int
	p   float64
	pmf []float64 // pmf[i] = b(i; w, p), i = 0..w
	cdf []float64 // cdf[i] = P(X ≤ i), i = 0..w−1
}

func newBinomTable(w int, p float64) *binomTable {
	buf := make([]float64, 2*w+1)
	tb := &binomTable{w: w, p: p, pmf: buf[:w+1], cdf: buf[w+1:]}
	switch p {
	case 0:
		tb.pmf[0] = 1
	case 1:
		tb.pmf[w] = 1
	default:
		lw, lp, lq := lnFact(w), math.Log(p), math.Log(1-p)
		for i := range tb.pmf {
			tb.pmf[i] = pmfTerm(i, w, lw, lp, lq)
		}
	}
	sum := 0.0
	for i := range tb.cdf {
		sum += tb.pmf[i]
		tb.cdf[i] = min(sum, 1)
	}
	return tb
}

// f returns b(i; w, p), zero outside 0..w.
func (tb *binomTable) f(i int) float64 {
	if i < 0 || i > tb.w {
		return 0
	}
	return tb.pmf[i]
}

// F returns P(X ≤ i): zero below 0, one from w on.
func (tb *binomTable) F(i int) float64 {
	if i < 0 {
		return 0
	}
	if i >= tb.w {
		return 1
	}
	return tb.cdf[i]
}

// q2 returns Q₂ = P(S_w(2w) < k) for Bernoulli trials (Naus 1982, with
// binomial b(i; w, p), F its CDF, and ψ = w·p):
//
//	Q₂ = F(k−1)² − (k−1)·b(k)·F(k−2) + ψ·b(k)·F(k−3)
func q2(k int, tb *binomTable) float64 {
	bk := tb.f(k)
	psi := float64(tb.w) * tb.p
	v := tb.F(k-1)*tb.F(k-1) - float64(k-1)*bk*tb.F(k-2) + psi*bk*tb.F(k-3)
	return clamp01(v)
}

// q3 returns Q₃ = P(S_w(3w) < k) for Bernoulli trials (Naus 1982, same
// substitution, f(i) = b(i; w, p)):
//
//	Q₃ = F(k−1)³ − A₁ + A₂ + A₃ − A₄
//	A₁ = 2·f(k)·F(k−1)·[(k−1)F(k−2) − ψF(k−3)]
//	A₂ = ½·f(k)²·[(k−1)(k−2)F(k−3) − 2(k−2)ψF(k−4) + ψ²F(k−5)]
//	A₃ = Σ_{r=1}^{k−1} f(2k−r)·F(r−1)²
//	A₄ = Σ_{r=2}^{k−1} f(2k−r)·f(r)·[(r−1)F(r−2) − ψF(r−3)]
func q3(k int, tb *binomTable) float64 {
	psi := float64(tb.w) * tb.p
	fk := tb.f(k)
	a1 := 2 * fk * tb.F(k-1) * (float64(k-1)*tb.F(k-2) - psi*tb.F(k-3))
	a2 := 0.5 * fk * fk *
		(float64(k-1)*float64(k-2)*tb.F(k-3) - 2*float64(k-2)*psi*tb.F(k-4) + psi*psi*tb.F(k-5))
	a3 := 0.0
	for r := 1; r <= k-1; r++ {
		a3 += tb.f(2*k-r) * tb.F(r-1) * tb.F(r-1)
	}
	a4 := 0.0
	for r := 2; r <= k-1; r++ {
		a4 += tb.f(2*k-r) * tb.f(r) * (float64(r-1)*tb.F(r-2) - psi*tb.F(r-3))
	}
	v := tb.F(k-1)*tb.F(k-1)*tb.F(k-1) - a1 + a2 + a3 - a4
	return clamp01(v)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// tail approximates P(S_w(N) ≥ k | p, w, L), L = N/w: the probability
// that some window of w consecutive occurrence units contains at least
// k events when the background event probability is p.
func (tb *binomTable) tail(k int, L float64) float64 {
	if k <= 0 {
		return 1
	}
	if tb.p == 0 {
		return 0
	}
	if L < 2 {
		// With fewer than two windows the two-window closed form is the
		// best available estimate; it upper-bounds the true tail.
		return clamp01(1 - q2(k, tb))
	}
	Q2 := q2(k, tb)
	Q3 := q3(k, tb)
	if Q2 <= 0 {
		return 1
	}
	ratio := Q3 / Q2
	if ratio > 1 {
		ratio = 1
	}
	return clamp01(1 - Q2*math.Pow(ratio, L-2))
}

// tailProb returns the tail of pr at k from a table built for the call.
func tailProb(pr Params, k int) (float64, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	return newBinomTable(pr.W, pr.P).tail(k, float64(pr.N)/float64(pr.W)), nil
}

// ErrNoCriticalValue is returned when even k = W events in a window is
// not significant at the requested level (background probability too
// high for the window to ever reject).
var ErrNoCriticalValue = errors.New("scanstat: no critical value at this significance level")

// CriticalValue returns the smallest k such that
// P(S_w(N) ≥ k | p, w, L) ≤ alpha (Equation 5). The result is clamped to
// at least 1 and at most W (a window cannot contain more events than
// occurrence units).
func CriticalValue(pr Params, alpha float64) (int, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	if !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("scanstat: significance level %v outside (0,1)", alpha)
	}
	if pr.P == 0 {
		return 1, nil
	}
	// The tail is non-increasing in k; binary search for the boundary
	// over one table of Binomial(W, P).
	tb := newBinomTable(pr.W, pr.P)
	L := float64(pr.N) / float64(pr.W)
	lo, hi := 1, pr.W
	if tb.tail(hi, L) > alpha {
		return 0, ErrNoCriticalValue
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if tb.tail(mid, L) <= alpha {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
