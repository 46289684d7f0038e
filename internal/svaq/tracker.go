package svaq

import (
	"fmt"
	"math"

	"vaq/internal/bgprob"
	"vaq/internal/scanstat"
)

// MinK sentinels for TrackerConfig.MinK (and Config.MinK). The zero
// value deliberately means "auto" so existing call sites keep their
// behavior; callers who want no floor at all say so explicitly.
const (
	// MinKAuto applies the engine default floor: 2 for dynamic
	// trackers (the self-consistent background estimation needs k ≥ 2
	// to converge, see Config.MinK), 1 otherwise.
	MinKAuto = 0
	// MinKNone disables the floor: the critical value may settle at
	// the scan statistic's raw minimum of 1 even on a dynamic tracker.
	MinKNone = -1
)

// LabelTracker is the per-predicate statistical state machine shared by
// the online engine (one tracker per query predicate) and the ingestion
// phase (one tracker per supported label): it turns per-clip event
// counts into clip indicators using the scan-statistics critical value
// (Equations 1–2, 5) and, in dynamic mode, re-estimates the background
// probability online (§3.3).
type LabelTracker struct {
	w       int // window length in occurrence units (units per clip)
	horizon int // total occurrence units N for Equation 5
	alpha   float64
	minK    int
	tol     float64
	dynamic bool

	est   *bgprob.Estimator
	k     int     // detection critical value
	kExcl int     // estimator exclusion threshold (single-window)
	pLast float64 // probability at last recomputation
}

// TrackerConfig parameterizes a LabelTracker.
type TrackerConfig struct {
	// UnitsPerClip is the scanning window w: frames per clip for object
	// predicates, shots per clip for action predicates.
	UnitsPerClip int
	// HorizonClips is N/w of Equation 5.
	HorizonClips int
	// Alpha is the significance level, in (0, 1). 0 means the default
	// 0.05 — an exact significance level of 0 is not meaningful, so the
	// zero value is unambiguous; out-of-range values are rejected.
	Alpha float64
	// P0 is the (initial) background probability.
	P0 float64
	// Dynamic enables the §3.3 online estimation; false freezes P0.
	Dynamic bool
	// KernelU is the estimator kernel scale in occurrence units.
	KernelU float64
	// MinK floors the critical value: MinKAuto (the zero value) applies
	// the engine default, MinKNone disables the floor, positive values
	// floor k explicitly; anything below MinKNone is rejected.
	MinK int
	// RecomputeTol is the relative probability change that triggers
	// recomputation (see Config.RecomputeTol).
	RecomputeTol float64
}

// NewLabelTracker builds a tracker; the zero-valued optional fields of
// cfg get the engine defaults.
func NewLabelTracker(cfg TrackerConfig) (*LabelTracker, error) {
	if cfg.UnitsPerClip <= 0 {
		return nil, fmt.Errorf("svaq: UnitsPerClip must be positive, got %d", cfg.UnitsPerClip)
	}
	if cfg.HorizonClips <= 0 {
		return nil, fmt.Errorf("svaq: HorizonClips must be positive, got %d", cfg.HorizonClips)
	}
	if cfg.Alpha < 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("svaq: Alpha must be in (0, 1) (0 means the 0.05 default), got %v", cfg.Alpha)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	if cfg.KernelU <= 0 {
		cfg.KernelU = 4000
	}
	switch {
	case cfg.MinK < MinKNone:
		return nil, fmt.Errorf("svaq: MinK must be >= %d (MinKNone), got %d", MinKNone, cfg.MinK)
	case cfg.MinK == MinKNone:
		cfg.MinK = 1 // the scan statistic never goes below k = 1
	case cfg.MinK == MinKAuto:
		if cfg.Dynamic {
			cfg.MinK = 2
		} else {
			cfg.MinK = 1
		}
	}
	if cfg.RecomputeTol == 0 {
		cfg.RecomputeTol = 0.02
	}
	est, err := bgprob.New(cfg.KernelU, cfg.P0)
	if err != nil {
		return nil, err
	}
	lt := &LabelTracker{
		w:       cfg.UnitsPerClip,
		horizon: cfg.HorizonClips * cfg.UnitsPerClip,
		alpha:   cfg.Alpha,
		minK:    cfg.MinK,
		tol:     cfg.RecomputeTol,
		dynamic: cfg.Dynamic,
		est:     est,
		pLast:   -1, // force the initial recomputation
	}
	if err := lt.recompute(); err != nil {
		return nil, err
	}
	return lt, nil
}

// recompute derives the detection critical value k (Equation 5) and the
// estimator exclusion threshold from the current background
// probability, skipping the work while the probability is within tol of
// the last value used.
func (lt *LabelTracker) recompute() error {
	p := lt.est.P()
	if lt.pLast >= 0 && withinTol(p, lt.pLast, lt.tol) {
		return nil
	}
	k, err := criticalOrMax(scanstat.Params{P: p, W: lt.w, N: lt.horizon}, lt.alpha)
	if err != nil {
		return err
	}
	lt.k = max(min(k, lt.w), lt.minK)
	// The exclusion threshold uses a single-window horizon so it stays
	// decoupled from the detection threshold: tying exclusion to the
	// detection k lets boundary clips ratchet the background estimate
	// upward (see updateEstimator).
	kx, err := criticalOrMax(scanstat.Params{P: p, W: lt.w, N: lt.w}, lt.alpha)
	if err != nil {
		return err
	}
	lt.kExcl = max(min(kx, lt.w), 2)
	lt.pLast = p
	return nil
}

// criticalOrMax degrades to requiring a full window of events when no k
// rejects at the requested level (background too noisy to ever reject).
func criticalOrMax(pr scanstat.Params, alpha float64) (int, error) {
	k, err := scanstat.CriticalValue(pr, alpha)
	if err == scanstat.ErrNoCriticalValue {
		return pr.W, nil
	}
	return k, err
}

// withinTol reports whether p is within rel relative distance of ref.
func withinTol(p, ref, rel float64) bool {
	if rel < 0 {
		return false
	}
	if ref == 0 {
		return p == 0
	}
	d := p - ref
	if d < 0 {
		d = -d
	}
	return d/ref <= rel
}

// ObserveRun folds one clip's evaluation into the tracker: `units` of
// the clip's w units were evaluated and `count` of them were positive.
// No indicator is derived — the caller decides it against K() before
// observing (count ≥ k_crit on a fully sampled clip; the planner's rules
// otherwise). In dynamic mode the estimator consumes the run and the
// critical value is refreshed. §1: the background distribution describes
// model predictions when the predicate is NOT satisfied, so runs whose
// counts are already significant for a single window are excluded and
// true event-dense segments cannot contaminate the estimate; on a
// partially sampled clip the exclusion threshold is scaled to the sample
// size, so subsampled background clips are excluded at the same per-unit
// density as dense ones.
func (lt *LabelTracker) ObserveRun(units, count int) error {
	if units <= 0 || units > lt.w {
		return fmt.Errorf("svaq: ObserveRun units %d outside [1, %d]", units, lt.w)
	}
	if !lt.dynamic {
		return nil
	}
	kx := lt.kExcl
	if units < lt.w {
		// Floor the scaled threshold at 2, like recompute floors kExcl:
		// without it a sparse rung's threshold rounds to 1 and every run
		// containing a single positive is excluded, so the estimator only
		// ever sees zeros and the background probability collapses.
		kx = int(math.Ceil(float64(lt.kExcl) * float64(units) / float64(lt.w)))
		if kx < 2 {
			kx = 2
		}
	}
	if count < kx {
		lt.est.ObserveRun(units, count)
	}
	return lt.recompute()
}

// K returns the current detection critical value.
func (lt *LabelTracker) K() int { return lt.k }

// P returns the current background probability estimate.
func (lt *LabelTracker) P() float64 { return lt.est.P() }
