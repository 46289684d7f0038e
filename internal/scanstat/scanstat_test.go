package scanstat

import (
	"math"
	"math/rand"
	"testing"
)

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.3, 0.5, 1} {
		for _, w := range []int{1, 5, 50} {
			sum := 0.0
			for k := 0; k <= w; k++ {
				sum += binomPMF(k, w, p)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("w=%d p=%v: pmf sums to %v", w, p, sum)
			}
		}
	}
}

func TestBinomCDFMatchesPMF(t *testing.T) {
	w, p := 20, 0.17
	sum := 0.0
	for k := 0; k <= w; k++ {
		sum += binomPMF(k, w, p)
		if got := binomCDF(k, w, p); math.Abs(got-sum) > 1e-9 {
			t.Fatalf("CDF(%d) = %v, want %v", k, got, sum)
		}
	}
	if binomCDF(-1, w, p) != 0 {
		t.Error("CDF(-1) != 0")
	}
	if binomPMF(-3, w, p) != 0 {
		t.Error("PMF(-3) != 0")
	}
	if binomPMF(w+1, w, p) != 0 {
		t.Error("PMF(w+1) != 0")
	}
	if binomCDF(w, w, p) != 1 {
		t.Error("CDF(w) != 1")
	}
}

// exactScanBelow computes P(S_w(n) < k) by brute-force enumeration over
// all 2^n Bernoulli outcomes; only usable for small n.
func exactScanBelow(n, w, k int, p float64) float64 {
	total := 0.0
	for m := 0; m < 1<<n; m++ {
		ok := true
		for s := 0; s+w <= n && ok; s++ {
			c := 0
			for i := s; i < s+w; i++ {
				if m>>i&1 == 1 {
					c++
				}
			}
			if c >= k {
				ok = false
			}
		}
		if !ok {
			continue
		}
		prob := 1.0
		for i := 0; i < n; i++ {
			if m>>i&1 == 1 {
				prob *= p
			} else {
				prob *= 1 - p
			}
		}
		total += prob
	}
	return total
}

// TestQ2Q3AgainstExactEnumeration checks the closed-form Q2 and Q3
// against exhaustive enumeration for small windows.
func TestQ2Q3AgainstExactEnumeration(t *testing.T) {
	cases := []struct {
		w, k int
		p    float64
	}{
		{4, 2, 0.2}, {4, 3, 0.3}, {5, 2, 0.1}, {5, 3, 0.25}, {6, 3, 0.15}, {6, 4, 0.3}, {8, 3, 0.1},
	}
	for _, c := range cases {
		e2 := exactScanBelow(2*c.w, c.w, c.k, c.p)
		a2 := q2(c.k, newBinomTable(c.w, c.p))
		if math.Abs(e2-a2) > 0.02 {
			t.Errorf("w=%d k=%d p=%v: Q2 approx %.5f vs exact %.5f", c.w, c.k, c.p, a2, e2)
		}
		e3 := exactScanBelow(3*c.w, c.w, c.k, c.p)
		a3 := q3(c.k, newBinomTable(c.w, c.p))
		if math.Abs(e3-a3) > 0.025 {
			t.Errorf("w=%d k=%d p=%v: Q3 approx %.5f vs exact %.5f", c.w, c.k, c.p, a3, e3)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{P: -0.1, W: 10, N: 100},
		{P: 1.1, W: 10, N: 100},
		{P: 0.1, W: 0, N: 100},
		{P: 0.1, W: 10, N: 5},
	}
	for _, pr := range bad {
		if pr.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", pr)
		}
	}
	if err := (Params{P: 0.1, W: 10, N: 100}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestTailProbEdgeCases(t *testing.T) {
	pr := Params{P: 0.1, W: 10, N: 100}
	if got, _ := tailProb(pr, 0); got != 1 {
		t.Errorf("tailProb(k=0) = %v, want 1", got)
	}
	if got, _ := tailProb(Params{P: 0, W: 10, N: 100}, 1); got != 0 {
		t.Errorf("tailProb(p=0) = %v, want 0", got)
	}
	if _, err := tailProb(Params{P: 2, W: 10, N: 100}, 1); err == nil {
		t.Error("tailProb with invalid params: want error")
	}
}

func TestTailProbMonotoneInK(t *testing.T) {
	pr := Params{P: 0.05, W: 50, N: 5000}
	prev := 2.0
	for k := 1; k <= 50; k++ {
		got, err := tailProb(pr, k)
		if err != nil {
			t.Fatal(err)
		}
		if got > prev+1e-12 {
			t.Fatalf("tailProb not non-increasing at k=%d: %v > %v", k, got, prev)
		}
		prev = got
	}
}

func TestTailProbMonotoneInP(t *testing.T) {
	prev := -1.0
	for _, p := range []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.4} {
		got, err := tailProb(Params{P: p, W: 30, N: 3000}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev-1e-12 {
			t.Fatalf("tailProb not non-decreasing in p at p=%v: %v < %v", p, got, prev)
		}
		prev = got
	}
}

// TestTailProbAgainstMonteCarlo validates the Naus closed-form
// approximation against simulation across parameter regimes.
func TestTailProbAgainstMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo validation skipped in -short")
	}
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		pr Params
		k  int
	}{
		{Params{P: 0.02, W: 50, N: 2000}, 5},
		{Params{P: 0.02, W: 50, N: 2000}, 8},
		{Params{P: 0.05, W: 30, N: 1500}, 6},
		{Params{P: 0.10, W: 20, N: 1000}, 8},
		{Params{P: 0.01, W: 50, N: 5000}, 4},
	}
	for _, c := range cases {
		approx, err := tailProb(c.pr, c.k)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MonteCarloTail(c.pr, c.k, 4000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(approx-mc) > 0.08 {
			t.Errorf("params=%+v k=%d: approx=%.4f mc=%.4f differ too much", c.pr, c.k, approx, mc)
		}
	}
}

func TestCriticalValueThresholdProperty(t *testing.T) {
	pr := Params{P: 0.03, W: 50, N: 10000}
	alpha := 0.05
	k, err := CriticalValue(pr, alpha)
	if err != nil {
		t.Fatal(err)
	}
	at, _ := tailProb(pr, k)
	if at > alpha {
		t.Fatalf("tailProb(k_crit=%d) = %v > alpha", k, at)
	}
	if k > 1 {
		below, _ := tailProb(pr, k-1)
		if below <= alpha {
			t.Fatalf("k_crit=%d not minimal: tailProb(k-1) = %v <= alpha", k, below)
		}
	}
}

func TestCriticalValueMonotoneInP(t *testing.T) {
	prev := 0
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 5e-2} {
		k, err := CriticalValue(Params{P: p, W: 50, N: 100000}, 0.05)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if k < prev {
			t.Fatalf("k_crit decreased as p grew: p=%v k=%d prev=%d", p, k, prev)
		}
		prev = k
	}
}

func TestCriticalValueZeroP(t *testing.T) {
	k, err := CriticalValue(Params{P: 0, W: 50, N: 1000}, 0.05)
	if err != nil || k != 1 {
		t.Fatalf("CriticalValue(p=0) = %d, %v; want 1, nil", k, err)
	}
}

func TestCriticalValueNoSolution(t *testing.T) {
	// With p close to 1, even a full window of events is unsurprising.
	_, err := CriticalValue(Params{P: 0.99, W: 10, N: 1000}, 0.001)
	if err != ErrNoCriticalValue {
		t.Fatalf("err = %v, want ErrNoCriticalValue", err)
	}
}

func TestCriticalValueBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, 1, -0.5, 1.5} {
		if _, err := CriticalValue(Params{P: 0.1, W: 10, N: 100}, alpha); err == nil {
			t.Errorf("alpha=%v: want error", alpha)
		}
	}
}

func TestMaxWindowCount(t *testing.T) {
	cases := []struct {
		trials []bool
		w      int
		want   int
	}{
		{[]bool{true, false, true, true}, 2, 2},
		{[]bool{false, false, false}, 2, 0},
		{[]bool{true, true, true}, 5, 3}, // window longer than sequence
		{[]bool{true, false, false, true, true, true}, 3, 3},
	}
	for _, c := range cases {
		if got := maxWindowCount(c.trials, c.w); got != c.want {
			t.Errorf("maxWindowCount(%v, %d) = %d, want %d", c.trials, c.w, got, c.want)
		}
	}
}

func TestMonteCarloTailEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if got, _ := MonteCarloTail(Params{P: 0.5, W: 5, N: 50}, 0, 10, rng); got != 1 {
		t.Errorf("MonteCarloTail(k=0) = %v, want 1", got)
	}
	if _, err := MonteCarloTail(Params{P: -1, W: 5, N: 50}, 1, 10, rng); err == nil {
		t.Error("invalid params: want error")
	}
}
