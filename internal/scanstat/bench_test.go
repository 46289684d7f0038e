package scanstat

import (
	"errors"
	"testing"
)

// BenchmarkCriticalValue measures the per-update cost SVAQD pays when a
// background probability moves outside the recompute tolerance.
func BenchmarkCriticalValue(b *testing.B) {
	pr := Params{P: 0.03, W: 50, N: 100000}
	for i := 0; i < b.N; i++ {
		if _, err := CriticalValue(pr, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalValueGrid cycles through the (w, p) grid the online
// engine visits: 50 frames or 5 shots per clip, p from 1e-4 to 0.1 and
// N = 2000·w. One op is one search.
func BenchmarkCriticalValueGrid(b *testing.B) {
	var grid []Params
	for _, w := range []int{50, 5} {
		for _, p := range []float64{1e-4, 1e-3, 0.01, 0.03, 0.1} {
			grid = append(grid, Params{P: p, W: w, N: 2000 * w})
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := CriticalValue(grid[i%len(grid)], 0.05); err != nil && !errors.Is(err, ErrNoCriticalValue) {
			b.Fatal(err)
		}
	}
}

func BenchmarkTailProb(b *testing.B) {
	pr := Params{P: 0.03, W: 50, N: 100000}
	for i := 0; i < b.N; i++ {
		if _, err := tailProb(pr, 9); err != nil {
			b.Fatal(err)
		}
	}
}
