package brownout

import (
	"sync"
	"testing"
	"time"

	"vaq/internal/trace"
)

// fakeClock is an injectable clock the tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newController(t *testing.T, cfg Config, opt Options) *Controller {
	t.Helper()
	ctl, err := New(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// TestTrajectoryDeterministic pins the acceptance criterion: the same
// p90 trace through two fresh controllers under the same fake clock
// walks byte-identical level trajectories.
func TestTrajectoryDeterministic(t *testing.T) {
	ramp := []time.Duration{
		10, 20, 100, 120, 150, 200, 250, 300, 300, 250,
		200, 120, 80, 50, 40, 20, 10, 0, 0, 0,
	}
	for i := range ramp {
		ramp[i] *= time.Millisecond
	}
	run := func() []Level {
		clk := &fakeClock{t: time.Unix(0, 0)}
		ctl := newController(t, Config{High: 100 * time.Millisecond, Dwell: 2 * time.Second, Now: clk.now}, Options{})
		out := make([]Level, 0, len(ramp))
		for _, p90 := range ramp {
			clk.advance(time.Second)
			out = append(out, ctl.Observe(p90, true))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: run A at %v, run B at %v — trajectory not deterministic", i, a[i], b[i])
		}
	}
	// The ramp must actually exercise the ladder: it climbs to shed and
	// returns to full.
	sawShed := false
	for _, l := range a {
		if l == LevelShed {
			sawShed = true
		}
	}
	if !sawShed {
		t.Errorf("ramp never reached LevelShed: %v", a)
	}
	if last := a[len(a)-1]; last != LevelFull {
		t.Errorf("ramp ended at %v, want full after the calm tail", last)
	}
}

// TestHysteresisNoFlap holds the p90 inside the hysteresis band
// (between Low and High): once the ladder has stepped up, a signal in
// the band must move it neither up nor down, however long it lasts.
func TestHysteresisNoFlap(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ctl := newController(t, Config{
		High: 100 * time.Millisecond, Low: 50 * time.Millisecond,
		Dwell: time.Second, Now: clk.now,
	}, Options{})

	clk.advance(time.Second)
	if got := ctl.Observe(100*time.Millisecond, true); got != LevelNoHedge {
		t.Fatalf("level after High reading = %v, want no-hedge", got)
	}
	for i := 0; i < 50; i++ {
		clk.advance(time.Second) // dwell satisfied every step
		if got := ctl.Observe(75*time.Millisecond, true); got != LevelNoHedge {
			t.Fatalf("step %d: in-band p90 moved the ladder to %v", i, got)
		}
	}
	if st := ctl.Stats(); st.Transitions != 1 {
		t.Errorf("transitions = %d, want exactly the initial step up", st.Transitions)
	}
}

// TestDwellEnforcement verifies transitions are rate-limited: after a
// step, further threshold crossings inside the dwell are ignored, and
// the first crossing past it moves one level.
func TestDwellEnforcement(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ctl := newController(t, Config{
		High: 100 * time.Millisecond, Dwell: 5 * time.Second, Now: clk.now,
	}, Options{})

	clk.advance(time.Second)
	if got := ctl.Observe(time.Second, true); got != LevelNoHedge {
		t.Fatalf("first overload reading = %v, want no-hedge", got)
	}
	for i := 0; i < 4; i++ {
		clk.advance(time.Second) // 1s..4s after the step: inside the dwell
		if got := ctl.Observe(time.Second, true); got != LevelNoHedge {
			t.Fatalf("reading %d inside the dwell stepped to %v", i, got)
		}
	}
	clk.advance(time.Second) // 5s: dwell satisfied
	if got := ctl.Observe(time.Second, true); got != LevelCheap {
		t.Fatalf("reading past the dwell = %v, want cheap-profile", got)
	}
	if st := ctl.Stats(); st.Transitions != 2 || st.StepUps != 2 {
		t.Errorf("stats = %+v, want 2 transitions, both up", st)
	}
}

// TestIdleStepsDown verifies ok=false (not enough fresh samples — an
// idle daemon) reads as calm and walks the ladder back down.
func TestIdleStepsDown(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ctl := newController(t, Config{High: 100 * time.Millisecond, Dwell: time.Second, Now: clk.now}, Options{})
	for i := 0; i < 3; i++ {
		clk.advance(2 * time.Second)
		ctl.Observe(time.Second, true)
	}
	if got := ctl.Level(); got != LevelPrior {
		t.Fatalf("level after 3 overload readings = %v, want prior-only", got)
	}
	for i := 0; i < 3; i++ {
		clk.advance(2 * time.Second)
		ctl.Observe(0, false)
	}
	if got := ctl.Level(); got != LevelFull {
		t.Errorf("level after 3 idle readings = %v, want full", got)
	}
}

// TestMaxCap pins Config.Max: a ladder capped at prior-only never
// sheds, no matter how hot the signal runs.
func TestMaxCap(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ctl := newController(t, Config{
		High: 100 * time.Millisecond, Dwell: time.Second, Max: LevelPrior, Now: clk.now,
	}, Options{})
	for i := 0; i < 20; i++ {
		clk.advance(2 * time.Second)
		ctl.Observe(time.Second, true)
	}
	if got := ctl.Level(); got != LevelPrior {
		t.Errorf("capped ladder at %v, want prior-only", got)
	}
}

// TestOnChangeAndCounters verifies the transition callback fires with
// the right edge and the counters (both Stats and the tracer family)
// stay in lockstep.
func TestOnChangeAndCounters(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr := trace.New()
	var edges [][2]Level
	ctl := newController(t,
		Config{High: 100 * time.Millisecond, Dwell: time.Second, Now: clk.now},
		Options{Tracer: tr, OnChange: func(from, to Level) { edges = append(edges, [2]Level{from, to}) }})

	clk.advance(2 * time.Second)
	ctl.Observe(time.Second, true) // full -> no-hedge
	clk.advance(2 * time.Second)
	ctl.Observe(0, true) // no-hedge -> full
	ctl.Shed()

	want := [][2]Level{{LevelFull, LevelNoHedge}, {LevelNoHedge, LevelFull}}
	if len(edges) != len(want) || edges[0] != want[0] || edges[1] != want[1] {
		t.Errorf("OnChange edges = %v, want %v", edges, want)
	}
	st := ctl.Stats()
	if st.Transitions != 2 || st.StepUps != 1 || st.StepDowns != 1 || st.Sheds != 1 {
		t.Errorf("stats = %+v, want 2/1/1/1", st)
	}
	counters := tr.Counters()
	for name, wantV := range map[string]int64{
		"brownout.transitions": 2,
		"brownout.step_ups":    1,
		"brownout.step_downs":  1,
		"brownout.sheds":       1,
	} {
		if counters[name] != wantV {
			t.Errorf("counter %s = %d, want %d", name, counters[name], wantV)
		}
	}
}

// TestNilController pins the nil-receiver contract an unarmed server
// relies on.
func TestNilController(t *testing.T) {
	var ctl *Controller
	if got := ctl.Level(); got != LevelFull {
		t.Errorf("nil Level() = %v, want full", got)
	}
	if got := ctl.Observe(time.Hour, true); got != LevelFull {
		t.Errorf("nil Observe() = %v, want full", got)
	}
	ctl.Shed() // must not panic
	if st := ctl.Stats(); st != nil {
		t.Errorf("nil Stats() = %+v, want nil", st)
	}
}

// TestConfigValidation pins the constructor errors vaqd's flag
// validation depends on.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, Options{}); err == nil {
		t.Error("zero Config accepted, want error")
	}
	if _, err := New(Config{High: time.Second, Low: time.Second}, Options{}); err == nil {
		t.Error("Low == High accepted, want error")
	}
	if _, err := New(Config{High: time.Second, Low: 2 * time.Second}, Options{}); err == nil {
		t.Error("Low > High accepted, want error")
	}
	ctl, err := New(Config{High: time.Second}, Options{})
	if err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if ctl.cfg.Low != 500*time.Millisecond || ctl.cfg.Dwell != DefaultDwell || ctl.cfg.Max != LevelShed {
		t.Errorf("defaults = low %v, dwell %v, max %v", ctl.cfg.Low, ctl.cfg.Dwell, ctl.cfg.Max)
	}
}

// TestLevelStrings pins the wire names the API surfaces depend on.
func TestLevelStrings(t *testing.T) {
	want := []string{"full", "no-hedge", "cheap-profile", "prior-only", "shed"}
	for l := LevelFull; l <= LevelShed; l++ {
		if l.String() != want[l] {
			t.Errorf("level %d = %q, want %q", l, l.String(), want[l])
		}
	}
	if got := Level(99).String(); got != "level(99)" {
		t.Errorf("out-of-range level = %q", got)
	}
}

// TestConcurrent hammers Observe/Level/Shed/Stats from many goroutines
// under -race; correctness here is the absence of data races plus the
// level staying inside the ladder.
func TestConcurrent(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ctl := newController(t, Config{High: 100 * time.Millisecond, Dwell: time.Millisecond, Now: clk.now}, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				clk.advance(time.Millisecond)
				if g%2 == 0 {
					ctl.Observe(time.Duration(i%200)*time.Millisecond, true)
				} else {
					_ = ctl.Level()
					_ = ctl.Stats()
					ctl.Shed()
				}
			}
		}(g)
	}
	wg.Wait()
	if l := ctl.Level(); l < LevelFull || l > LevelShed {
		t.Errorf("level %v outside the ladder", l)
	}
}
