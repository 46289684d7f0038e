package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {1, 10}, {25, 30},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty slice must give NaN")
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// The definition itself: samples strictly beyond the chosen rank.
	for n := 20; n < 3000; n += 37 {
		p := highestPercentile(n)
		if beyond := n - nearestRank(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves only %d samples beyond it", n, p, beyond)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns, since the PR driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5}, // clamps to the outer pair, extrapolating like Python
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{100, 100, 100}); s != 0 {
		t.Errorf("spread of equal values = %v", s)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	sum := func(vs ...float64) *metricSummary { return summarize("u", vs) }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b *metricSummary
		want string
	}{
		{"steady and equal", lower, sum(100, 101, 99), sum(100, 102, 99), "ok"},
		{"steady and 20% slower", lower, sum(100, 101, 99), sum(120, 121, 119), "regressed"},
		{"steady and 20% faster", lower, sum(100, 101, 99), sum(80, 81, 79), "ok"},
		{"throughput down 20%", higher, sum(100, 101, 99), sum(80, 81, 79), "regressed"},
		{"throughput up", higher, sum(100, 101, 99), sum(130, 131, 129), "ok"},
		{"noisy and overlapping", lower, sum(100, 140, 70), sum(110, 150, 80), "unresolved"},
		{"noisy but every run better", lower, sum(100, 140, 70), sum(50, 60, 40), "ok"},
		{"noisy but every run worse", lower, sum(100, 140, 70), sum(200, 260, 150), "regressed"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCheckSpans(t *testing.T) {
	good := []spanRec{
		{ID: 1, Req: 1, Name: "request.topk", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "server.http_topk", Start: 10, End: 60},
		{ID: 3, Parent: 2, Req: 1, Name: "inner", Start: 20, End: 30},
		{ID: 4, Parent: 1, Req: 1, Name: "verify", Start: 60, End: 90},
		{ID: 5, Req: 2, Name: "rvaq.topk", Start: 5, End: 50},
	}
	totals, err := checkSpans(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := totals["request.topk"].SelfNS; got != 20 {
		t.Errorf("root self = %d, want 20", got)
	}
	if got := totals["server.http_topk"].SelfNS; got != 40 {
		t.Errorf("child self = %d, want 40", got)
	}
	escaped := append([]spanRec(nil), good...)
	escaped[2].End = 70 // grandchild outlives its parent
	if _, err := checkSpans(escaped); err == nil {
		t.Error("a child ending after its parent must be rejected")
	}
	overlapping := append([]spanRec(nil), good...)
	overlapping[3].Start, overlapping[1].End = 15, 95 // siblings cover more than the root
	if _, err := checkSpans(overlapping); err == nil {
		t.Error("siblings covering more than their parent must be rejected")
	}
	orphan := append([]spanRec(nil), good...)
	orphan[1].Parent = 99
	if _, err := checkSpans(orphan); err == nil {
		t.Error("an unknown parent must be rejected")
	}
}
