// Package plan implements a coarse-to-fine adaptive sampling planner
// in the style of MIRIS: instead of invoking the models on every
// occurrence unit (frame or shot) of a clip, a predicate is first
// evaluated on a sparse subsample (1 unit in Rate), and the clip is
// accepted or pruned as soon as the scan-statistic critical value
// k_crit — the uncertainty signal the engines already maintain — makes
// the remaining units irrelevant. Only undecided clips are recursively
// densified, rung by rung, until the full density settles the
// indicator exactly.
//
// Four decision rules run at the end of every rung, on a window of w
// units of which m were sampled and c scored positive:
//
//  1. sound accept: c ≥ k. The true count only grows with more
//     samples, so the indicator (count ≥ k_crit) is already certain.
//  2. sound prune: c + (w − m) < k. Even if every unsampled unit were
//     positive the window could not reach k.
//  3. scaled-k_crit accept: ĉ = c·w/m ≥ Margin·k, AND the sample is
//     statistically inconsistent with every sub-critical density:
//     P(X ≥ c) ≤ Tail for X ~ Binomial(m, k/w). The extrapolation
//     clears the critical value with a safety margin and the
//     significance gate keeps a couple of detector false positives on
//     a sparse rung from extrapolating past it.
//  4. background-tail prune, requiring three things at once: the
//     power gate — a clip at exactly the critical density k/w would
//     have shown more than c positives with probability ≥ 1 − Power,
//     so an unlucky sparse lattice over a marginal true clip cannot
//     trigger a prune; the sampled units look like background —
//     P(X ≥ c) > Tail for X ~ Binomial(m, p); and background could
//     not plausibly fill the gap — P(X ≥ k − c) ≤ Tail for
//     X ~ Binomial(w − m, p), with p the predicate's background
//     probability.
//
// The statistical rules (3–4) only fire on samples of at least
// MinSample units, and windows no longer than MinSample units are
// evaluated densely outright: early stopping on a handful of units
// saves almost nothing and correlates run length with clip content,
// which would feed the dynamic background estimator an
// optional-stopping-biased sample (see EvaluateAll).
//
// Rules 1–2 keep the planner exact in the limit: the final rung is
// fully dense (stride 1), where rule 1 or rule 2 always fires, so an
// undecided clip ends with precisely the dense indicator. A planner
// with Rate ≤ 1 runs that single dense rung and is byte-identical to
// the unplanned path. See docs/PLANNER.md for the soundness argument
// and tuning guidance.
package plan

import (
	"fmt"

	"vaq/internal/scanstat"
)

// Default statistical-rule parameters (see Config).
const (
	DefaultMargin    = 2.0
	DefaultTail      = 1e-3
	DefaultMinSample = 8
	DefaultPower     = 0.1
)

// Config parameterizes the planner. The zero value disables planning
// (dense evaluation).
type Config struct {
	// Rate is the base sampling stride: the first rung evaluates one
	// unit in Rate. 0 disables planning entirely; 1 arms the planner
	// machinery with the single dense rung (byte-identical to the
	// unplanned path — the metamorphic check of choice).
	Rate int
	// Levels caps the densification ladder length, base rung included.
	// 0 means the full ladder (Rate, Rate/2, …, 1); a truncated ladder
	// never reaches full density and settles still-undecided clips by
	// density extrapolation (ĉ ≥ k), trading exactness for a hard cost
	// ceiling.
	Levels int
	// Margin is the safety factor of the scaled-k_crit accept (rule 3);
	// must be ≥ 1 when set, 0 means DefaultMargin.
	Margin float64
	// Tail is the significance level of the background-tail prune
	// (rule 4); must be in [0, 1) when set, 0 means DefaultTail.
	Tail float64
	// MinSample is the smallest sample on which the statistical rules
	// (3–4) may decide; rungs with fewer evaluated units can only decide
	// soundly, otherwise they densify. Binomial reasoning on one or two
	// units is noise — a short window at a high rate would otherwise be
	// settled by a couple of detector outputs. 0 means DefaultMinSample;
	// negative values are rejected (the sound rules ignore this knob, so
	// MinSample 1 effectively disables it).
	MinSample int
	// Power is the false-negative risk of the background-tail prune's
	// power gate: a rung may prune only once the sample is large enough
	// that a clip sitting at the critical density k/w would, with
	// probability ≥ 1 − Power, have shown more positives than observed.
	// Short windows (a clip's shots) never reach that power before the
	// dense rung, so they settle exactly — which is what keeps marginal
	// true clips from being pruned on an unlucky sparse sample. Must be
	// in (0, 1) when set; 0 means DefaultPower.
	Power float64
}

// Enabled reports whether the planner is armed. Rate 1 counts as
// enabled — the ladder is the single dense rung, so results are
// byte-identical to the unplanned path while still exercising the
// planner machinery.
func (c Config) Enabled() bool { return c.Rate >= 1 }

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Rate < 0 {
		return fmt.Errorf("plan: Rate must be non-negative, got %d", c.Rate)
	}
	if c.Levels < 0 {
		return fmt.Errorf("plan: Levels must be non-negative, got %d", c.Levels)
	}
	if c.Margin != 0 && c.Margin < 1 {
		return fmt.Errorf("plan: Margin must be >= 1 (or 0 for the default), got %v", c.Margin)
	}
	if c.Tail != 0 && !(c.Tail > 0 && c.Tail < 1) {
		return fmt.Errorf("plan: Tail must be in (0, 1) (or 0 for the default), got %v", c.Tail)
	}
	if c.MinSample < 0 {
		return fmt.Errorf("plan: MinSample must be non-negative (0 for the default), got %d", c.MinSample)
	}
	if c.Power != 0 && !(c.Power > 0 && c.Power < 1) {
		return fmt.Errorf("plan: Power must be in (0, 1) (or 0 for the default), got %v", c.Power)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Margin == 0 {
		c.Margin = DefaultMargin
	}
	if c.Tail == 0 {
		c.Tail = DefaultTail
	}
	if c.MinSample == 0 {
		c.MinSample = DefaultMinSample
	}
	if c.Power == 0 {
		c.Power = DefaultPower
	}
	return c
}

// Strides returns the densification ladder: the sampling stride of each
// rung, halving from Rate down to 1, truncated to Levels rungs when
// Levels > 0. A disabled planner has the single dense rung [1].
func (c Config) Strides() []int { return c.appendStrides(nil) }

// appendStrides appends the ladder to dst (integer halving always lands
// on 1, so an untruncated ladder ends with the dense rung).
func (c Config) appendStrides(dst []int) []int {
	for s := max(c.Rate, 1); s >= 1 && (c.Levels == 0 || len(dst) < c.Levels); s /= 2 {
		dst = append(dst, s)
	}
	return dst
}

// newAt reports whether unit u, a multiple of strides[r], is first
// sampled at rung r: no earlier rung's stride divides it. Over all rungs
// of a full ladder the rungs' new units partition the window.
func newAt(u int, strides []int, r int) bool {
	for _, s := range strides[:r] {
		if u%s == 0 {
			return false
		}
	}
	return true
}

// Decision is the outcome of one rung's decision rules.
type Decision int

const (
	// Undecided means no rule fired: densify another rung.
	Undecided Decision = iota
	// Accept decides the indicator positive.
	Accept
	// Prune decides the indicator negative.
	Prune
)

func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Prune:
		return "prune"
	default:
		return "undecided"
	}
}

// Decide reasons: which rule settled a planned evaluation. Reported in
// Result.Reason and histogrammed by the EXPLAIN profiles.
const (
	// ReasonSoundAccept / ReasonSoundPrune are the sound rules (1–2).
	ReasonSoundAccept = "sound-accept"
	ReasonSoundPrune  = "sound-prune"
	// ReasonScaledAccept is the scaled-k_crit accept (rule 3).
	ReasonScaledAccept = "scaled-accept"
	// ReasonBgTailPrune is the background-tail prune (rule 4).
	ReasonBgTailPrune = "bg-tail-prune"
	// ReasonExtrapolated marks a truncated ladder settled by density
	// extrapolation (Finalize) rather than a decision rule.
	ReasonExtrapolated = "extrapolated"
)

// decide applies the four decision rules to one predicate window: w
// units total, sampled of them evaluated, count positive among those,
// against critical value k and background probability p. It returns the
// decision and the reason constant naming the rule that fired (empty
// while undecided). At full density (sampled ≥ w) the sound rules always
// decide.
func (c Config) decide(w, sampled, count, k int, p float64) (Decision, string) {
	if count >= k {
		return Accept, ReasonSoundAccept // rule 1 (sound)
	}
	rest := w - sampled
	if count+rest < k {
		return Prune, ReasonSoundPrune // rule 2 (sound)
	}
	c = c.withDefaults()
	if sampled < c.MinSample {
		return Undecided, "" // statistical rules need a real sample
	}
	// Rule 3: the density extrapolation must clear the scaled critical
	// value AND the sample must be statistically inconsistent with every
	// sub-critical density (the most favourable such density is k/w):
	// without the significance gate, one or two detector false positives
	// on a sparse rung extrapolate past Margin·k and accept background.
	if float64(count)*float64(w) >= c.Margin*float64(k)*float64(sampled) &&
		scanstat.BinomTail(sampled, float64(k)/float64(w), count) <= c.Tail {
		return Accept, ReasonScaledAccept // rule 3 (scaled k_crit)
	}
	// Rule 4: prune only when three things hold. (a) Power gate: the
	// sample is statistically inconsistent with the critical density —
	// a clip at exactly k/w would have shown more than count positives
	// with probability ≥ 1 − Power, so missing all of a marginal clip's
	// events on an unlucky sparse lattice cannot trigger a prune.
	// (b) The sampled units themselves look like background (observing
	// count or more is unremarkable at rate p). (c) Background could
	// not plausibly fill the k − count gap. Without (a) and (b), a
	// boundary clip would be judged by a background model that does not
	// describe it.
	if scanstat.BinomTail(sampled, float64(k)/float64(w), count+1) >= 1-c.Power &&
		scanstat.BinomTail(sampled, p, count) > c.Tail &&
		scanstat.BinomTail(rest, p, k-count) <= c.Tail {
		return Prune, ReasonBgTailPrune // rule 4 (background tail)
	}
	return Undecided, ""
}

// Finalize settles a clip a truncated ladder left undecided: the
// density extrapolation ĉ = count·w/sampled against k, the planner's
// best estimate of the dense indicator.
func Finalize(w, sampled, count, k int) bool {
	return float64(count)*float64(w) >= float64(k)*float64(sampled)
}

// Result reports one planned predicate evaluation.
type Result struct {
	// Positive is the decided clip indicator.
	Positive bool
	// Exact marks a decision by the sound rules (1–2) — including any
	// decision at full density — as opposed to the statistical rules or
	// a truncated-ladder extrapolation.
	Exact bool
	// Sampled and Count are the units evaluated and the positives among
	// them when the decision fired.
	Sampled int
	Count   int
	// BaseSampled is the share of Sampled evaluated on the base rung —
	// the planner's sparse first look; Sampled − BaseSampled went to
	// densification. (Decisions fire only at rung boundaries, so the
	// base rung always completes and the split is exact.)
	BaseSampled int
	// Rungs is the number of ladder rungs evaluated.
	Rungs int
	// Reason names the decision rule that settled the evaluation (one
	// of the Reason* constants).
	Reason string
}

// Pred is one predicate of a shared window (EvaluateAll): its critical
// value K and background probability P go in, its Result comes out. The
// probe reports a positive unit by setting Hit, which the evaluator
// counts and clears.
type Pred struct {
	K   int
	P   float64
	Hit bool
	Result
}

// EvaluateAll runs the coarse-to-fine loop for several predicates over
// one shared w-unit window, probing each sampled unit once for all of
// them (offsets in [0, w), each at most once, in deterministic order).
// Each predicate is decided by the rules on its own count, and unit
// evaluation stops at the first rung boundary where every predicate is
// decided. A predicate decided on an early rung keeps counting the units
// later rungs sample for the others, so every Result's Sampled and Count
// describe the whole shared sample — the run a background estimator
// consumes. A disabled planner's ladder is the single dense rung.
// preds is caller-owned scratch, reset on entry; EvaluateAll allocates
// nothing.
func (c Config) EvaluateAll(w int, preds []Pred, probe func(unit int) error) error {
	if w <= 0 {
		return fmt.Errorf("plan: window must be positive, got %d", w)
	}
	strides := []int{1}
	// Windows no longer than MinSample evaluate densely: the statistical
	// rules cannot fire below MinSample units anyway, and even the sound
	// rules' early stopping is harmful on a handful of units — the run
	// length then correlates with the clip's content (zero runs stop
	// early, positive runs go deep), which feeds the dynamic background
	// estimator an optional-stopping-biased sample. The units saved on
	// such windows are negligible next to the long (object) windows.
	if c.Enabled() && w > c.withDefaults().MinSample {
		var buf [64]int // a ladder halves an int at most 63 times
		strides = c.appendStrides(buf[:0])
	}
	for i := range preds {
		preds[i] = Pred{K: preds[i].K, P: preds[i].P}
	}
	sampled, undecided := 0, len(preds)
	for r := 0; r < len(strides) && undecided > 0; r++ {
		for u := 0; u < w; u += strides[r] {
			if !newAt(u, strides, r) {
				continue
			}
			if err := probe(u); err != nil {
				return err
			}
			sampled++
			for i := range preds {
				if preds[i].Hit {
					preds[i].Count++
					preds[i].Hit = false
				}
			}
		}
		for i := range preds {
			p := &preds[i]
			p.Sampled = sampled
			if r == 0 {
				p.BaseSampled = sampled
			}
			if p.Reason != "" {
				continue // decided on an earlier rung
			}
			p.Rungs = r + 1
			d, reason := c.decide(w, sampled, p.Count, p.K, p.P)
			if d == Undecided {
				continue
			}
			p.Positive, p.Reason = d == Accept, reason
			p.Exact = p.Count >= p.K || p.Count+(w-sampled) < p.K
			undecided--
		}
	}
	// A truncated ladder exhausted while undecided: extrapolate.
	for i := range preds {
		if p := &preds[i]; p.Reason == "" {
			p.Positive, p.Reason = Finalize(w, sampled, p.Count, p.K), ReasonExtrapolated
		}
	}
	return nil
}

// Evaluate is EvaluateAll for a single predicate with critical value k
// and background probability p, probing units through eval.
func (c Config) Evaluate(w, k int, p float64, eval func(unit int) (bool, error)) (Result, error) {
	one := [1]Pred{{K: k, P: p}}
	err := c.EvaluateAll(w, one[:], func(u int) (err error) {
		one[0].Hit, err = eval(u)
		return err
	})
	return one[0].Result, err
}

// Stats accumulates planner outcomes across clips.
type Stats struct {
	// Clips counts planned predicate evaluations.
	Clips int
	// Accepted / Pruned count decisions made before full density;
	// Densified counts evaluations that ran the ladder to its last rung.
	Accepted  int
	Pruned    int
	Densified int
	// Units is the total units evaluated; UnitsDense is what a dense
	// evaluation would have cost.
	Units      int64
	UnitsDense int64
}

// Observe folds one evaluation over a w-unit window into the stats.
func (s *Stats) Observe(w int, r Result) {
	s.Clips++
	s.Units += int64(r.Sampled)
	s.UnitsDense += int64(w)
	switch {
	case r.Sampled >= w:
		s.Densified++
	case r.Positive:
		s.Accepted++
	default:
		s.Pruned++
	}
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Clips += o.Clips
	s.Accepted += o.Accepted
	s.Pruned += o.Pruned
	s.Densified += o.Densified
	s.Units += o.Units
	s.UnitsDense += o.UnitsDense
}
