package bgprob

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.1); err == nil {
		t.Error("u=0: want error")
	}
	if _, err := New(-5, 0.1); err == nil {
		t.Error("u<0: want error")
	}
	if _, err := New(100, -0.1); err == nil {
		t.Error("p0<0: want error")
	}
	if _, err := New(100, 1.1); err == nil {
		t.Error("p0>1: want error")
	}
	if _, err := New(100, 0.5); err != nil {
		t.Errorf("valid args rejected: %v", err)
	}
}

func TestPriorReturnedBeforeObservations(t *testing.T) {
	e, _ := New(500, 0.123)
	if got := e.P(); got != 0.123 {
		t.Fatalf("P() before observations = %v, want prior", got)
	}
}

// The estimator must be (approximately) unbiased for a constant
// background rate: the edge-corrected estimate averaged over many
// independent runs should converge to the true p.
func TestUnbiasedUnderConstantRate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const p = 0.07
	const runs = 300
	const steps = 2000
	sum := 0.0
	for r := 0; r < runs; r++ {
		e, _ := New(400, 0.5)
		for i := 0; i < steps; i++ {
			e.Observe(rng.Float64() < p)
		}
		sum += e.P()
	}
	mean := sum / runs
	if math.Abs(mean-p) > 0.01 {
		t.Fatalf("mean estimate %v far from true p=%v", mean, p)
	}
}

// A sudden change of the background rate must be tracked within a few
// kernel scales, while the prior's influence disappears.
func TestTracksSuddenChange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e, _ := New(200, 0.9) // wildly wrong prior
	for i := 0; i < 3000; i++ {
		e.Observe(rng.Float64() < 0.02)
	}
	low := e.P()
	if math.Abs(low-0.02) > 0.02 {
		t.Fatalf("after low phase P=%v, want near 0.02", low)
	}
	for i := 0; i < 3000; i++ {
		e.Observe(rng.Float64() < 0.30)
	}
	high := e.P()
	if math.Abs(high-0.30) > 0.07 {
		t.Fatalf("after high phase P=%v, want near 0.30", high)
	}
}

func TestPRangeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e, _ := New(50, 0.5)
	for i := 0; i < 5000; i++ {
		e.Observe(rng.Float64() < 0.5)
		if p := e.P(); p < 0 || p > 1 {
			t.Fatalf("P out of range at step %d: %v", i, p)
		}
	}
}

func TestAllEventsDrivesPToOne(t *testing.T) {
	e, _ := New(100, 0.1)
	for i := 0; i < 2000; i++ {
		e.Observe(true)
	}
	if p := e.P(); math.Abs(p-1) > 1e-6 {
		t.Fatalf("P after all events = %v, want 1", p)
	}
}

func TestNoEventsDrivesPToZero(t *testing.T) {
	e, _ := New(100, 0.9)
	for i := 0; i < 2000; i++ {
		e.Observe(false)
	}
	if p := e.P(); p != 0 {
		t.Fatalf("P after no events = %v, want 0", p)
	}
}

func TestObserveRunMatchesEventCount(t *testing.T) {
	a, _ := New(300, 0.1)
	a.ObserveRun(50, 10)
	if a.Units() != 50 {
		t.Fatalf("Units = %d, want 50", a.Units())
	}
	// The run-based estimate should land near 10/50 = 0.2.
	if p := a.P(); math.Abs(p-0.2) > 0.05 {
		t.Fatalf("P after run = %v, want near 0.2", p)
	}
}

func TestObserveRunClampsEvents(t *testing.T) {
	e, _ := New(300, 0.1)
	e.ObserveRun(10, 50) // more events than units: clamp to 10
	if p := e.P(); math.Abs(p-1) > 1e-6 {
		t.Fatalf("P = %v, want 1 when events saturate the run", p)
	}
	e.ObserveRun(0, 5) // no-op
	if e.Units() != 10 {
		t.Fatalf("Units changed by empty run: %d", e.Units())
	}
	e.ObserveRun(5, -3) // negative clamped to 0
	if e.Units() != 15 {
		t.Fatalf("Units = %d, want 15", e.Units())
	}
}

func TestString(t *testing.T) {
	e, _ := New(100, 0.25)
	if e.String() == "" {
		t.Error("String empty")
	}
}
