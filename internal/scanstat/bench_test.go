package scanstat

import "testing"

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

func BenchmarkTailProb(b *testing.B) {
	pr := Params{P: 0.03, W: 50, N: 100000}
	for i := 0; i < b.N; i++ {
		if _, err := TailProb(pr, 9); err != nil {
			b.Fatal(err)
		}
	}
}
