package score

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdditiveCombineLabel(t *testing.T) {
	a := Additive{}
	if got := a.CombineLabel(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := a.CombineLabel([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("sum = %v", got)
	}
}

func TestAdditiveCombineClip(t *testing.T) {
	a := Additive{}
	if got := a.CombineClip(2, []float64{3, 4}); got != 14 {
		t.Errorf("g = %v, want a*(sum o) = 14", got)
	}
	if got := a.CombineClip(2, nil); got != 2 {
		t.Errorf("action-only g = %v", got)
	}
	if got := a.CombineClip(0, []float64{3, 4}); got != 0 {
		t.Errorf("zero action g = %v", got)
	}
}

// seqScore folds a sequence's clip scores the way the engines do: Merge
// from Zero.
func seqScore(f F, clipScores []float64) float64 {
	s := f.Zero()
	for _, v := range clipScores {
		s = f.Merge(s, v)
	}
	return s
}

func TestAdditiveSeq(t *testing.T) {
	a := Additive{}
	if got := seqScore(a, []float64{1, 2, 3}); got != 6 {
		t.Errorf("f = %v", got)
	}
	if a.Merge(2, 3) != 5 || a.MergeN(2, 3) != 6 {
		t.Error("merge wrong")
	}
}

func TestMaxSeq(t *testing.T) {
	m := MaxSeq{}
	if got := seqScore(m, []float64{1, 5, 3}); got != 5 {
		t.Errorf("f = %v", got)
	}
	if m.Merge(2, 3) != 3 || m.Merge(4, 1) != 4 {
		t.Error("merge wrong")
	}
	if m.MergeN(2, 0) != 0 || m.MergeN(2, 5) != 2 {
		t.Error("mergeN wrong")
	}
}

func TestDefaultComplete(t *testing.T) {
	fns := Default()
	if fns.H == nil || fns.G == nil || fns.F == nil {
		t.Fatal("Default scheme incomplete")
	}
}

// fContract checks the §4.1 sequence-score contract for an F over
// non-negative clip scores.
func fContract(t *testing.T, name string, f F) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64() * 10
		}
		total := seqScore(f, scores)
		// Monotonicity: raising any clip score cannot lower the total.
		i := rng.Intn(n)
		bumped := append([]float64{}, scores...)
		bumped[i] += 1
		if seqScore(f, bumped) < total-1e-9 {
			t.Fatalf("%s: not monotone", name)
		}
		// Sub-sequence dominance.
		cut := rng.Intn(n)
		if seqScore(f, scores[:cut]) > total+1e-9 {
			t.Fatalf("%s: sub-sequence outscores sequence", name)
		}
		// Decomposability: S(z) = S(z1) ⊙ S(z2).
		merged := f.Merge(seqScore(f, scores[:cut]), seqScore(f, scores[cut:]))
		if math.Abs(merged-total) > 1e-9 {
			t.Fatalf("%s: decomposition %v != %v", name, merged, total)
		}
		// MergeN agrees with repeated Merge.
		s := rng.Float64() * 5
		k := rng.Intn(6)
		iter := f.Zero()
		for j := 0; j < k; j++ {
			iter = f.Merge(iter, s)
		}
		if math.Abs(f.MergeN(s, k)-iter) > 1e-9 {
			t.Fatalf("%s: MergeN(%v,%d)=%v != iterated %v", name, s, k, f.MergeN(s, k), iter)
		}
	}
}

func TestAdditiveContract(t *testing.T) { fContract(t, "Additive", Additive{}) }
func TestMaxSeqContract(t *testing.T)   { fContract(t, "MaxSeq", MaxSeq{}) }

func TestQuickGMonotone(t *testing.T) {
	g := Additive{}
	f := func(a uint8, objs []uint8, bumpIdx uint8) bool {
		if len(objs) == 0 {
			return true
		}
		act := float64(a) / 10
		base := make([]float64, len(objs))
		for i, o := range objs {
			base[i] = float64(o) / 10
		}
		before := g.CombineClip(act, base)
		i := int(bumpIdx) % len(objs)
		base[i] += 1
		return g.CombineClip(act, base) >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
