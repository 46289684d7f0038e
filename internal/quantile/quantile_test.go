package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact returns the true quantile of data (which it sorts).
func exact(data []float64, q float64) float64 {
	sort.Float64s(data)
	idx := int(q * float64(len(data)))
	if idx >= len(data) {
		idx = len(data) - 1
	}
	return data[idx]
}

// rankOf returns the rank (0-based count of elements <= v) of v in
// sorted data.
func rankOf(sorted []float64, v float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
}

// checkTargets asserts every target quantile is answered within
// 2·ε·n ranks of the truth (the CKMS bound is ε·n; the factor 2 gives
// headroom for the buffered-merge variant).
func checkTargets(t *testing.T, s *Sketch, data []float64) {
	t.Helper()
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	n := float64(len(data))
	for _, tgt := range s.targets {
		got := s.Query(tgt.Quantile)
		wantRank := tgt.Quantile * n
		gotRank := float64(rankOf(sorted, got))
		if d := math.Abs(gotRank - wantRank); d > 2*tgt.Epsilon*n+1 {
			t.Errorf("q=%.3f: estimate %v has rank %v, want %v ± %v",
				tgt.Quantile, got, gotRank, wantRank, 2*tgt.Epsilon*n+1)
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	s := New()
	if got := s.Query(0.5); got != 0 {
		t.Fatalf("empty sketch Query = %v, want 0", got)
	}
	if s.Count() != 0 {
		t.Fatalf("empty sketch Count = %d", s.Count())
	}
	s.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Query(q); got != 42 {
			t.Fatalf("single-sample Query(%v) = %v, want 42", q, got)
		}
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestUniformStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	data := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := rng.Float64()
		s.Observe(v)
		data = append(data, v)
	}
	checkTargets(t, s, data)
}

func TestExponentialTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	data := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := rng.ExpFloat64() * 10 // latency-like heavy tail
		s.Observe(v)
		data = append(data, v)
	}
	checkTargets(t, s, data)
}

func TestSortedAndReversedInput(t *testing.T) {
	for name, order := range map[string]func(i, n int) float64{
		"ascending":  func(i, n int) float64 { return float64(i) },
		"descending": func(i, n int) float64 { return float64(n - i) },
	} {
		s := New()
		data := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := order(i, 20000)
			s.Observe(v)
			data = append(data, v)
		}
		t.Run(name, func(t *testing.T) { checkTargets(t, s, data) })
	}
}

func TestCompressionBoundsSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New()
	for i := 0; i < 200000; i++ {
		s.Observe(rng.NormFloat64())
	}
	if s.Count() != 200000 {
		t.Fatalf("Count = %d, want 200000", s.Count())
	}
	s.flush()
	if got := len(s.samples); got > 2000 {
		t.Errorf("sketch retains %d samples for 200k observations; compression is not working", got)
	}
}

func TestMinMax(t *testing.T) {
	s := New()
	for _, v := range []float64{5, -3, 17, 0.5} {
		s.Observe(v)
	}
	if s.Min() != -3 || s.Max() != 17 {
		t.Fatalf("Min/Max = %v/%v, want -3/17", s.Min(), s.Max())
	}
}

func TestCustomTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New(Target{Quantile: 0.999, Epsilon: 0.0005})
	data := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := rng.ExpFloat64()
		s.Observe(v)
		data = append(data, v)
	}
	checkTargets(t, s, data)
}

func BenchmarkObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	s := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(vals[i&4095])
	}
}

func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	for i := 0; i < 100000; i++ {
		s.Observe(rng.ExpFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(0.99)
	}
}
