package svaq

import (
	"math/rand"
	"testing"

	"vaq/internal/scanstat"
)

func TestLabelTrackerValidation(t *testing.T) {
	if _, err := NewLabelTracker(TrackerConfig{UnitsPerClip: 0, HorizonClips: 10}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewLabelTracker(TrackerConfig{UnitsPerClip: 50, HorizonClips: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := NewLabelTracker(TrackerConfig{UnitsPerClip: 50, HorizonClips: 100, P0: 1e-4}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestStaticTrackerKeepsK(t *testing.T) {
	lt, err := NewLabelTracker(TrackerConfig{
		UnitsPerClip: 50, HorizonClips: 2000, P0: 1e-3, Dynamic: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	k0 := lt.K()
	for i := 0; i < 200; i++ {
		if err := lt.ObserveRun(50, i%50); err != nil {
			t.Fatal(err)
		}
	}
	if lt.K() != k0 {
		t.Fatalf("static tracker changed k: %d -> %d", k0, lt.K())
	}
}

func TestDynamicTrackerConvergesToNoiseRate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lt, err := NewLabelTracker(TrackerConfig{
		UnitsPerClip: 50, HorizonClips: 2000, P0: 1e-4, Dynamic: true, KernelU: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pure-noise stream at 1% per unit.
	const noise = 0.01
	for c := 0; c < 3000; c++ {
		count := 0
		for u := 0; u < 50; u++ {
			if rng.Float64() < noise {
				count++
			}
		}
		if err := lt.ObserveRun(50, count); err != nil {
			t.Fatal(err)
		}
	}
	if p := lt.P(); p < 0.004 || p > 0.02 {
		t.Fatalf("estimated background %v far from %v", lt.P(), noise)
	}
	// A true event burst (45/50 units) must be flagged positive and
	// must NOT move the background estimate.
	before := lt.P()
	if 45 < lt.K() {
		t.Fatalf("dense clip not positive: k = %d", lt.K())
	}
	if err := lt.ObserveRun(50, 45); err != nil {
		t.Fatal(err)
	}
	if lt.P() != before {
		t.Fatalf("dense clip contaminated the estimate: %v -> %v", before, lt.P())
	}
}

func TestDynamicTrackerPriorWashesOut(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	finalK := map[float64]int{}
	for _, p0 := range []float64{1e-6, 1e-2} {
		lt, err := NewLabelTracker(TrackerConfig{
			UnitsPerClip: 50, HorizonClips: 2000, P0: p0, Dynamic: true, KernelU: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(rng.Int63()))
		_ = r
		local := rand.New(rand.NewSource(7)) // same stream for both priors
		for c := 0; c < 4000; c++ {
			count := 0
			for u := 0; u < 50; u++ {
				if local.Float64() < 0.008 {
					count++
				}
			}
			if err := lt.ObserveRun(50, count); err != nil {
				t.Fatal(err)
			}
		}
		finalK[p0] = lt.K()
	}
	if finalK[1e-6] != finalK[1e-2] {
		t.Fatalf("priors did not wash out: k=%v", finalK)
	}
}

func TestMinKFloor(t *testing.T) {
	lt, err := NewLabelTracker(TrackerConfig{
		UnitsPerClip: 50, HorizonClips: 100, P0: 1e-9, Dynamic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lt.K() < 2 {
		t.Fatalf("dynamic k = %d, want ≥ 2", lt.K())
	}
	lt2, _ := NewLabelTracker(TrackerConfig{
		UnitsPerClip: 50, HorizonClips: 100, P0: 1e-9, Dynamic: true, MinK: 5,
	})
	if lt2.K() < 5 {
		t.Fatalf("explicit MinK ignored: %d", lt2.K())
	}
}

func TestSaturatedBackgroundDegradesToFullWindow(t *testing.T) {
	lt, err := NewLabelTracker(TrackerConfig{
		UnitsPerClip: 10, HorizonClips: 1000, P0: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lt.K() != 10 {
		t.Fatalf("k = %d, want full window 10", lt.K())
	}
}

// TestAlphaZeroSentinel pins the MinK/Alpha sentinel semantics: the
// zero value means "engine default", not "significance level zero",
// and out-of-range values are rejected rather than silently defaulted.
func TestAlphaZeroSentinel(t *testing.T) {
	base := TrackerConfig{UnitsPerClip: 50, HorizonClips: 1000, P0: 1e-3}
	for _, alpha := range []float64{-0.1, 1, 1.5} {
		cfg := base
		cfg.Alpha = alpha
		if _, err := NewLabelTracker(cfg); err == nil {
			t.Errorf("Alpha %v accepted", alpha)
		}
	}
	def, err := NewLabelTracker(base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Alpha = 0.05
	exp, err := NewLabelTracker(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if def.K() != exp.K() {
		t.Errorf("zero Alpha k = %d, explicit 0.05 k = %d", def.K(), exp.K())
	}
}

func TestMinKSentinels(t *testing.T) {
	base := TrackerConfig{UnitsPerClip: 50, HorizonClips: 100, P0: 1e-9, Dynamic: true}

	cfg := base
	cfg.MinK = MinKNone - 1
	if _, err := NewLabelTracker(cfg); err == nil {
		t.Error("MinK below MinKNone accepted")
	}

	// MinKNone lifts the dynamic floor of 2: with a near-zero background
	// the raw critical value is 1 and must be allowed to stand.
	cfg = base
	cfg.MinK = MinKNone
	lt, err := NewLabelTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lt.K() != 1 {
		t.Errorf("MinKNone k = %d, want the raw minimum 1", lt.K())
	}

	// MinKAuto (the zero value) keeps the dynamic default floor.
	auto, err := NewLabelTracker(base)
	if err != nil {
		t.Fatal(err)
	}
	if auto.K() < 2 {
		t.Errorf("MinKAuto dynamic k = %d, want >= 2", auto.K())
	}
}

// TestCriticalOrMax pins the degradation path: when no k rejects at the
// requested level (ErrNoCriticalValue), the tracker requires a full
// window of events instead of failing.
func TestCriticalOrMax(t *testing.T) {
	pr := scanstat.Params{P: 0.95, W: 10, N: 10000}
	if _, err := scanstat.CriticalValue(pr, 0.05); err != scanstat.ErrNoCriticalValue {
		t.Fatalf("precondition: want ErrNoCriticalValue, got %v", err)
	}
	k, err := criticalOrMax(pr, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k != pr.W {
		t.Errorf("criticalOrMax = %d, want full window %d", k, pr.W)
	}

	// The normal path passes the scan-statistic value through.
	pr2 := scanstat.Params{P: 1e-3, W: 50, N: 100000}
	want, err := scanstat.CriticalValue(pr2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, err := criticalOrMax(pr2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("criticalOrMax = %d, want %d", got, want)
	}

	// Other errors (invalid params) still propagate.
	if _, err := criticalOrMax(scanstat.Params{P: -1, W: 10, N: 100}, 0.05); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestObserveRunValidation(t *testing.T) {
	lt, err := NewLabelTracker(TrackerConfig{UnitsPerClip: 50, HorizonClips: 100, P0: 1e-3, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, units := range []int{0, -1, 51} {
		if err := lt.ObserveRun(units, 0); err == nil {
			t.Errorf("units %d accepted", units)
		}
	}
}

// TestObserveRunExcludesSignificantRuns pins the exclusion rule on fully
// sampled clips: a run at or above the single-window exclusion threshold
// leaves the estimate alone, a background run moves it.
func TestObserveRunExcludesSignificantRuns(t *testing.T) {
	lt, err := NewLabelTracker(TrackerConfig{UnitsPerClip: 50, HorizonClips: 2000, P0: 1e-4, Dynamic: true, KernelU: 500})
	if err != nil {
		t.Fatal(err)
	}
	before := lt.P()
	if err := lt.ObserveRun(50, lt.kExcl); err != nil {
		t.Fatal(err)
	}
	if lt.P() != before {
		t.Errorf("significant run moved the estimate: %v -> %v", before, lt.P())
	}
	if err := lt.ObserveRun(50, lt.kExcl-1); err != nil {
		t.Fatal(err)
	}
	if lt.P() == before {
		t.Error("background run excluded from the estimator")
	}
}

// TestObserveRunScaledExclusionFloor pins the subsample-exclusion fix:
// with kExcl at its floor of 2, the threshold scaled to a sparse run
// rounds to 1, and without the floor every run containing a single
// positive would be excluded — the estimator would only ever see zeros
// and the background estimate would collapse.
func TestObserveRunScaledExclusionFloor(t *testing.T) {
	mk := func() *LabelTracker {
		lt, err := NewLabelTracker(TrackerConfig{UnitsPerClip: 50, HorizonClips: 2000, P0: 1e-4, Dynamic: true, KernelU: 200})
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	// 1 positive in a 10-unit run: scaled threshold ceil(2*10/50) = 1,
	// floored to 2, so the run must be fed to the estimator.
	lt := mk()
	before := lt.P()
	if err := lt.ObserveRun(10, 1); err != nil {
		t.Fatal(err)
	}
	if lt.P() == before {
		t.Error("single-positive sparse run excluded from the estimator")
	}
	// A saturated run (every sampled unit positive) always clears the
	// scaled threshold and must be excluded.
	lt = mk()
	before = lt.P()
	if err := lt.ObserveRun(10, 10); err != nil {
		t.Fatal(err)
	}
	if lt.P() != before {
		t.Error("saturated sparse run contaminated the estimator")
	}
}

func TestObserveRunStaticNoop(t *testing.T) {
	lt, err := NewLabelTracker(TrackerConfig{UnitsPerClip: 50, HorizonClips: 100, P0: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	p, k := lt.P(), lt.K()
	if err := lt.ObserveRun(10, 0); err != nil {
		t.Fatal(err)
	}
	if lt.P() != p || lt.K() != k {
		t.Error("static tracker mutated by ObserveRun")
	}
}

func TestWithinTol(t *testing.T) {
	if !withinTol(1.0, 1.01, 0.02) {
		t.Error("within tolerance rejected")
	}
	if withinTol(1.0, 1.5, 0.02) {
		t.Error("out of tolerance accepted")
	}
	if withinTol(0.5, 0, 0.02) {
		t.Error("uninitialized ref accepted")
	}
	if !withinTol(0, 0, 0.02) {
		t.Error("zero-zero rejected")
	}
	if withinTol(1.0, 1.0, -1) {
		t.Error("negative tolerance must force recompute")
	}
}
