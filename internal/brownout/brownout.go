// Package brownout implements the load-regulated degradation ladder:
// one controller that walks a fixed sequence of named service levels
// (full → no-hedge → cheap-profile → prior-only → shed) driven by the
// p90 queue-wait signal the admission shedder already samples. Each
// step trades a little answer quality for a lot of headroom, and the
// controller's job is to pick the cheapest level that keeps the queue
// bounded — and to do it deterministically, so two runs under the same
// load trace walk the same trajectory.
//
// Transitions are hysteretic: the ladder steps up one level when the
// p90 wait reaches the High threshold, steps down one level when it
// falls to Low (Low < High), and moves at most once per Dwell period.
// The gap between High and Low plus the dwell clamp is what prevents
// flapping across a single boundary; one-step moves are what keep the
// trajectory legible in /varz and the experiment CSVs.
package brownout

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/trace"
)

// Level is one rung of the degradation ladder, ordered from full
// service to full rejection. Higher levels shed more work.
type Level int32

const (
	// LevelFull serves every request with the complete resilience
	// policy: retries, hedging, fallback chains.
	LevelFull Level = iota
	// LevelNoHedge disables hedged duplicate calls — the first lever
	// because hedges multiply backend load exactly when it hurts.
	LevelNoHedge
	// LevelCheap skips the primary backend and serves every unit from
	// the first fallback hop (the cheaper profile), marking it
	// degraded so score discounting stays honest.
	LevelCheap
	// LevelPrior skips models entirely and serves the bgprob prior
	// sampler — the last answer-bearing level.
	LevelPrior
	// LevelShed rejects requests at the door (503 + Retry-After).
	LevelShed
)

// String returns the level's wire name (stamped on session status,
// explain profiles and experiment CSVs).
func (l Level) String() string {
	switch l {
	case LevelFull:
		return "full"
	case LevelNoHedge:
		return "no-hedge"
	case LevelCheap:
		return "cheap-profile"
	case LevelPrior:
		return "prior-only"
	case LevelShed:
		return "shed"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// Config sets the ladder's thresholds. High > 0 arms the controller;
// the zero Config is invalid (use New's error to catch it).
type Config struct {
	// High is the p90 queue wait at or above which the ladder steps
	// up one level. Must be > 0.
	High time.Duration
	// Low is the p90 at or below which the ladder steps down one
	// level. Defaults to High/2; must stay below High — the gap is
	// the hysteresis band.
	Low time.Duration
	// Dwell is the minimum time between transitions (default 2s).
	// The first transition is free; each one after waits out the
	// dwell from the previous.
	Dwell time.Duration
	// Max caps how far the ladder may climb (default LevelShed).
	// A daemon that must never reject outright sets LevelPrior.
	Max Level
	// Now is the clock; nil means time.Now. Tests inject a fake clock
	// for byte-deterministic trajectories (TestTrajectoryDeterministic).
	Now func() time.Time
}

// DefaultDwell is the transition dwell applied when Config.Dwell <= 0.
const DefaultDwell = 2 * time.Second

// Options wires the controller into its host.
type Options struct {
	// Tracer receives the brownout.* counters; nil is fine.
	Tracer *trace.Tracer
	// OnChange, when set, runs synchronously inside every transition
	// (after the level is published) — the server uses it to flip the
	// resilience mode. It must not call back into the controller.
	OnChange func(from, to Level)
}

// Controller walks the ladder. All methods are safe for concurrent
// use and safe on a nil receiver (a nil controller is pinned at
// LevelFull), so an unarmed daemon pays only nil checks.
type Controller struct {
	cfg      Config
	onChange func(from, to Level)

	level atomic.Int32 // current Level, read lock-free on hot paths

	mu    sync.Mutex // serialises transition decisions
	since time.Time  // last transition (zero until the first)

	transitions, stepUps, stepDowns, sheds atomic.Int64

	// trace counter handles; nil-safe.
	cTransitions, cStepUps, cStepDowns, cSheds *trace.Counter
}

// New builds a controller. It validates the thresholds, applies the
// Low/Dwell/Max defaults, and registers the brownout.* counter family
// on the tracer.
func New(cfg Config, opt Options) (*Controller, error) {
	if cfg.High <= 0 {
		return nil, fmt.Errorf("brownout: High threshold must be > 0 (got %v)", cfg.High)
	}
	if cfg.Low <= 0 {
		cfg.Low = cfg.High / 2
	}
	if cfg.Low >= cfg.High {
		return nil, fmt.Errorf("brownout: Low (%v) must be below High (%v)", cfg.Low, cfg.High)
	}
	if cfg.Dwell <= 0 {
		cfg.Dwell = DefaultDwell
	}
	if cfg.Max <= LevelFull || cfg.Max > LevelShed {
		cfg.Max = LevelShed
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	tr := opt.Tracer
	return &Controller{
		cfg:          cfg,
		onChange:     opt.OnChange,
		cTransitions: tr.Counter("brownout.transitions"),
		cStepUps:     tr.Counter("brownout.step_ups"),
		cStepDowns:   tr.Counter("brownout.step_downs"),
		cSheds:       tr.Counter("brownout.sheds"),
	}, nil
}

// Level returns the current ladder level.
func (c *Controller) Level() Level {
	if c == nil {
		return LevelFull
	}
	return Level(c.level.Load())
}

// Observe feeds one p90 queue-wait reading (ok false means too few
// fresh samples to compute one — treated as a calm signal, so an idle
// daemon steps back down) and returns the level in force afterwards.
// At most one one-step transition happens per Dwell period.
func (c *Controller) Observe(p90 time.Duration, ok bool) Level {
	if c == nil {
		return LevelFull
	}
	c.mu.Lock()
	from := Level(c.level.Load())
	var to Level
	switch {
	case ok && p90 >= c.cfg.High && from < c.cfg.Max:
		to = from + 1
	case (!ok || p90 <= c.cfg.Low) && from > LevelFull:
		to = from - 1
	default:
		c.mu.Unlock()
		return from
	}
	now := c.cfg.Now()
	if !c.since.IsZero() && now.Sub(c.since) < c.cfg.Dwell {
		c.mu.Unlock()
		return from
	}
	c.since = now
	c.level.Store(int32(to))
	c.mu.Unlock()

	c.transitions.Add(1)
	c.cTransitions.Add(1)
	if to > from {
		c.stepUps.Add(1)
		c.cStepUps.Add(1)
	} else {
		c.stepDowns.Add(1)
		c.cStepDowns.Add(1)
	}
	if c.onChange != nil {
		c.onChange(from, to)
	}
	return to
}

// Shed counts one request rejected because the ladder sits at
// LevelShed.
func (c *Controller) Shed() {
	if c == nil {
		return
	}
	c.sheds.Add(1)
	c.cSheds.Add(1)
}

// Stats is the /metricsz snapshot of the ladder.
type Stats struct {
	Level       string  `json:"level"`
	Transitions int64   `json:"transitions"`
	StepUps     int64   `json:"step_ups"`
	StepDowns   int64   `json:"step_downs"`
	Sheds       int64   `json:"sheds"`
	HighMS      float64 `json:"high_ms"`
	LowMS       float64 `json:"low_ms"`
	DwellMS     float64 `json:"dwell_ms"`
}

// Stats snapshots the controller; nil returns the zero value.
func (c *Controller) Stats() *Stats {
	if c == nil {
		return nil
	}
	return &Stats{
		Level:       c.Level().String(),
		Transitions: c.transitions.Load(),
		StepUps:     c.stepUps.Load(),
		StepDowns:   c.stepDowns.Load(),
		Sheds:       c.sheds.Load(),
		HighMS:      float64(c.cfg.High) / float64(time.Millisecond),
		LowMS:       float64(c.cfg.Low) / float64(time.Millisecond),
		DwellMS:     float64(c.cfg.Dwell) / float64(time.Millisecond),
	}
}
