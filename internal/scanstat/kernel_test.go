package scanstat

import (
	"errors"
	"math"
	"testing"
)

// The kernel oracle: the per-call form of the Naus tail, where every
// b(i) and F(i) is re-derived from Lgamma, Exp and Log on each read,
// kept as the reference the tabulated kernel must match bit for bit.

func refLnFact(n int) float64 {
	v, _ := math.Lgamma(float64(n) + 1)
	return v
}

func refPMF(k, w int, p float64) float64 {
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
	return math.Exp(refLnFact(w) - refLnFact(k) - refLnFact(w-k) +
		float64(k)*math.Log(p) + float64(w-k)*math.Log(1-p))
}

func refCDF(k, w int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= w {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += refPMF(i, w, p)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

func refQ2(k, w int, p float64) float64 {
	F := func(i int) float64 { return refCDF(i, w, p) }
	bk := refPMF(k, w, p)
	psi := float64(w) * p
	v := F(k-1)*F(k-1) - float64(k-1)*bk*F(k-2) + psi*bk*F(k-3)
	return clamp01(v)
}

func refQ3(k, w int, p float64) float64 {
	F := func(i int) float64 { return refCDF(i, w, p) }
	f := func(i int) float64 { return refPMF(i, w, p) }
	psi := float64(w) * p
	fk := f(k)
	a1 := 2 * fk * F(k-1) * (float64(k-1)*F(k-2) - psi*F(k-3))
	a2 := 0.5 * fk * fk *
		(float64(k-1)*float64(k-2)*F(k-3) - 2*float64(k-2)*psi*F(k-4) + psi*psi*F(k-5))
	a3 := 0.0
	for r := 1; r <= k-1; r++ {
		a3 += f(2*k-r) * F(r-1) * F(r-1)
	}
	a4 := 0.0
	for r := 2; r <= k-1; r++ {
		a4 += f(2*k-r) * f(r) * (float64(r-1)*F(r-2) - psi*F(r-3))
	}
	v := F(k-1)*F(k-1)*F(k-1) - a1 + a2 + a3 - a4
	return clamp01(v)
}

// refKernel is the per-call tail for one (w, p). It memoizes Q₂ and Q₃
// per k, so the grid can compose them for several L without
// re-deriving them.
type refKernel struct {
	w   int
	p   float64
	q23 map[int][2]float64
}

func newRefKernel(w int, p float64) *refKernel {
	return &refKernel{w: w, p: p, q23: map[int][2]float64{}}
}

func (r *refKernel) tail(k int, L float64) float64 {
	if k <= 0 {
		return 1
	}
	if r.p == 0 {
		return 0
	}
	q, ok := r.q23[k]
	if !ok {
		q = [2]float64{refQ2(k, r.w, r.p), refQ3(k, r.w, r.p)}
		r.q23[k] = q
	}
	Q2, Q3 := q[0], q[1]
	if L < 2 {
		return clamp01(1 - Q2)
	}
	if Q2 <= 0 {
		return 1
	}
	ratio := Q3 / Q2
	if ratio > 1 {
		ratio = 1
	}
	return clamp01(1 - Q2*math.Pow(ratio, L-2))
}

// criticalValue is the binary search of CriticalValue over tail.
func (r *refKernel) criticalValue(L, alpha float64) (int, error) {
	if r.p == 0 {
		return 1, nil
	}
	lo, hi := 1, r.w
	if r.tail(hi, L) > alpha {
		return 0, ErrNoCriticalValue
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if r.tail(mid, L) <= alpha {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// checkKernel compares the tabulated kernel at pr with ref, built for
// the same (w, p): the tail bit for bit at every k in ks, and k_crit
// with its error at α = 0.05.
func checkKernel(t *testing.T, pr Params, ks []int, ref *refKernel) {
	t.Helper()
	L := float64(pr.N) / float64(pr.W)
	for _, k := range ks {
		got, err := tailProb(pr, k)
		if err != nil {
			t.Fatalf("tailProb(%+v, %d): %v", pr, k, err)
		}
		if want := ref.tail(k, L); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v k=%d: tail %v (%#x), reference %v (%#x)",
				pr, k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	k, err := CriticalValue(pr, 0.05)
	wantK, wantErr := ref.criticalValue(L, 0.05)
	if k != wantK || !errors.Is(err, wantErr) {
		t.Fatalf("%+v: CriticalValue = %d, %v; reference %d, %v", pr, k, err, wantK, wantErr)
	}
}

// TestTailKernelBitIdentical pins the tabulated kernel to the per-call
// form: every tail over w ∈ {1, 2, 5, 10, 30, 50}, p at half-decades
// from 1e-12 to 1 plus {0.03, 0.9, 0.99}, L ∈ {1, 1.5, 2, 3, 2000} and
// k from 0 to w+1 has the same bits, and every k_crit is the same.
func TestTailKernelBitIdentical(t *testing.T) {
	ps := []float64{0.03, 0.9, 0.99}
	for e := -24; e <= 0; e++ {
		ps = append(ps, math.Pow(10, float64(e)/2))
	}
	for _, w := range []int{1, 2, 5, 10, 30, 50} {
		ks := make([]int, w+2)
		for k := range ks {
			ks[k] = k
		}
		for _, p := range ps {
			ref := newRefKernel(w, p)
			for _, L := range []float64{1, 1.5, 2, 3, 2000} {
				checkKernel(t, Params{P: p, W: w, N: int(L * float64(w))}, ks, ref)
			}
		}
	}
}

// FuzzTailKernel compares the tabulated kernel with the reference over
// p ∈ [0, 1], w ≤ 64, N ≥ w and k from −1 to w+1.
func FuzzTailKernel(f *testing.F) {
	f.Add(0.03, uint8(50), uint32(100000), uint16(9))
	f.Add(1e-4, uint8(5), uint32(10000), uint16(2))
	f.Add(0.9, uint8(10), uint32(0), uint16(10))
	f.Add(0.0, uint8(1), uint32(7), uint16(0))
	f.Add(1.0, uint8(64), uint32(3), uint16(65))
	f.Fuzz(func(t *testing.T, p float64, w8 uint8, extra uint32, k16 uint16) {
		if math.IsNaN(p) {
			t.Skip()
		}
		if p = math.Abs(p); p > 1 {
			p = 1 / p
		}
		w := int(w8%64) + 1
		pr := Params{P: p, W: w, N: w + int(extra%uint32(100000*w))}
		checkKernel(t, pr, []int{int(k16)%(w+3) - 1}, newRefKernel(w, p))
	})
}
