package scanstat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The k_crit edge grid: CriticalValue and tailProb over p from 1e-12 to
// 1, w ∈ {5, 10, 30} and N from w to 10⁵·w, at the engine's default
// α = 0.05. These tests pin the properties of the closed form itself:
// minimality, agreement with simulation, the conservative short-stream
// bound, the no-solution boundary and monotonicity in p and N. That the
// tabulated kernel computes exactly this closed form is the oracle's job
// (TestTailKernelBitIdentical, FuzzTailKernel in kernel_test.go).

const edgeAlpha = 0.05

var (
	edgePs = []float64{1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.03, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 1}
	edgeWs = []int{5, 10, 30}
	edgeLs = []float64{1, 1.5, 2, 3, 10, 100, 1e3, 1e4, 1e5} // N = L·w
)

// edgeK is CriticalValue with no solution mapped to w+1, so "no k is
// significant" orders above every real critical value.
func edgeK(t *testing.T, pr Params) int {
	t.Helper()
	k, err := CriticalValue(pr, edgeAlpha)
	switch {
	case errors.Is(err, ErrNoCriticalValue):
		return pr.W + 1
	case err != nil:
		t.Fatalf("%+v: %v", pr, err)
	}
	return k
}

func edgeTail(t *testing.T, pr Params, k int) float64 {
	t.Helper()
	v, err := tailProb(pr, k)
	if err != nil {
		t.Fatalf("tailProb(%+v, %d): %v", pr, k, err)
	}
	return v
}

// TestCriticalValueEdgeGrid checks minimality (tail(k) ≤ α < tail(k−1)),
// that ErrNoCriticalValue is returned exactly where even k = w is not
// significant (every w at p ≥ 0.9), and that k_crit is non-decreasing
// in p and in N.
func TestCriticalValueEdgeGrid(t *testing.T) {
	for _, w := range edgeWs {
		kByLP := make([][]int, len(edgeLs))
		for li, L := range edgeLs {
			kByLP[li] = make([]int, len(edgePs))
			for pi, p := range edgePs {
				pr := Params{P: p, W: w, N: int(L * float64(w))}
				k := edgeK(t, pr)
				kByLP[li][pi] = k
				if k > w {
					if tw := edgeTail(t, pr, w); tw <= edgeAlpha {
						t.Errorf("%+v: ErrNoCriticalValue but tail(w) = %g ≤ α", pr, tw)
					}
					continue
				}
				if p >= 0.9 {
					t.Errorf("%+v: k_crit = %d, want ErrNoCriticalValue at p ≥ 0.9", pr, k)
				}
				if tk := edgeTail(t, pr, k); tk > edgeAlpha {
					t.Errorf("%+v: tail(k_crit=%d) = %g > α", pr, k, tk)
				}
				if k > 1 {
					if tb := edgeTail(t, pr, k-1); tb <= edgeAlpha {
						t.Errorf("%+v: k_crit = %d not minimal: tail(k−1) = %g ≤ α", pr, k, tb)
					}
				}
			}
		}
		for li, L := range edgeLs {
			for pi := 1; pi < len(edgePs); pi++ {
				if kByLP[li][pi] < kByLP[li][pi-1] {
					t.Errorf("w=%d L=%g: k_crit fell from %d to %d as p rose %g → %g",
						w, L, kByLP[li][pi-1], kByLP[li][pi], edgePs[pi-1], edgePs[pi])
				}
			}
		}
		for pi, p := range edgePs {
			for li := 1; li < len(edgeLs); li++ {
				if kByLP[li][pi] < kByLP[li-1][pi] {
					t.Errorf("w=%d p=%g: k_crit fell from %d to %d as L rose %g → %g",
						w, p, kByLP[li-1][pi], kByLP[li][pi], edgeLs[li-1], edgeLs[li])
				}
			}
		}
	}
}

// TestCriticalValueEdgeMonteCarlo compares the closed form with
// MonteCarloTail at k_crit and k_crit − 1: within tolerance for L ≥ 2,
// and never below the simulation for L < 2, where the two-window form
// is a conservative (upper) bound. Simulation is limited to N ≤ 100·w.
func TestCriticalValueEdgeMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo validation skipped in -short")
	}
	const trials = 2000
	// 4σ of a proportion estimate at p = ½ plus the approximation's own
	// error, which the Naus form keeps well under 0.03 in this range.
	tol := 4*math.Sqrt(0.25/trials) + 0.03
	rng := rand.New(rand.NewSource(7))
	worst := 0.0
	for _, w := range edgeWs {
		for _, L := range []float64{1, 1.5, 2, 10, 100} {
			for _, p := range []float64{1e-3, 1e-2, 0.03, 0.1, 0.3} {
				pr := Params{P: p, W: w, N: int(L * float64(w))}
				k := edgeK(t, pr)
				if k > w {
					continue
				}
				for _, kk := range []int{k - 1, k} {
					if kk < 1 {
						continue
					}
					approx := edgeTail(t, pr, kk)
					mc, err := MonteCarloTail(pr, kk, trials, rng)
					if err != nil {
						t.Fatal(err)
					}
					if L < 2 {
						if approx < mc-4*math.Sqrt(0.25/trials) {
							t.Errorf("%+v k=%d: two-window bound %.4f below simulation %.4f", pr, kk, approx, mc)
						}
						continue
					}
					worst = math.Max(worst, math.Abs(approx-mc))
					if math.Abs(approx-mc) > tol {
						t.Errorf("%+v k=%d: closed form %.4f, simulation %.4f (tolerance %.3f)", pr, kk, approx, mc, tol)
					}
				}
			}
		}
	}
	t.Logf("worst |closed form − simulation| for L ≥ 2: %.4f (tolerance %.3f)", worst, tol)
}
