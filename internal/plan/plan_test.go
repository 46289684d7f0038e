package plan

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestEnabled(t *testing.T) {
	for rate, want := range map[int]bool{0: false, 1: true, 2: true, 8: true} {
		if got := (Config{Rate: rate}).Enabled(); got != want {
			t.Errorf("Rate %d: Enabled() = %v, want %v", rate, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Config{
		{},
		{Rate: 1},
		{Rate: 8, Levels: 2},
		{Rate: 4, Margin: 1, Tail: 0.5, MinSample: 1, Power: 0.5},
		{Rate: 4, Margin: 3.5, Tail: 1e-6, MinSample: 100, Power: 0.999},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Rate: -1},
		{Levels: -1},
		{Margin: 0.5},
		{Margin: -1},
		{Tail: 1},
		{Tail: -0.1},
		{MinSample: -1},
		{Power: 1},
		{Power: -0.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestStrides(t *testing.T) {
	cases := []struct {
		cfg  Config
		want []int
	}{
		{Config{}, []int{1}},
		{Config{Rate: 1}, []int{1}},
		{Config{Rate: 2}, []int{2, 1}},
		{Config{Rate: 8}, []int{8, 4, 2, 1}},
		// Non-power-of-two rates land on 1 via integer halving plus the
		// explicit final dense rung.
		{Config{Rate: 6}, []int{6, 3, 1}},
		{Config{Rate: 5}, []int{5, 2, 1}},
		// Levels truncates the ladder, base rung included.
		{Config{Rate: 8, Levels: 2}, []int{8, 4}},
		{Config{Rate: 8, Levels: 10}, []int{8, 4, 2, 1}},
	}
	for _, c := range cases {
		if got := c.cfg.Strides(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Strides(%+v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

// TestOffsetsPartition checks the core invariant behind the planner's
// exactness: over a full ladder the per-rung offsets are disjoint,
// ascending, and together cover every unit of [0, w) exactly once.
func TestOffsetsPartition(t *testing.T) {
	for _, rate := range []int{1, 2, 3, 5, 8, 16} {
		for _, w := range []int{1, 2, 5, 7, 16, 50, 101} {
			strides := Config{Rate: rate}.Strides()
			seen := make([]int, w)
			for r := range strides {
				offs := offsets(w, strides, r)
				for i, u := range offs {
					if u < 0 || u >= w {
						t.Fatalf("rate %d w %d rung %d: offset %d outside [0, %d)", rate, w, r, u, w)
					}
					if i > 0 && offs[i-1] >= u {
						t.Fatalf("rate %d w %d rung %d: offsets not ascending: %v", rate, w, r, offs)
					}
					seen[u]++
				}
			}
			for u, n := range seen {
				if n != 1 {
					t.Fatalf("rate %d w %d: unit %d sampled %d times", rate, w, u, n)
				}
			}
		}
	}
}

// offsets lists, in ascending order, the units of [0, w) first sampled at
// rung r — the order EvaluateAll probes them in.
func offsets(w int, strides []int, r int) []int {
	var out []int
	for u := 0; u < w; u += strides[r] {
		if newAt(u, strides, r) {
			out = append(out, u)
		}
	}
	return out
}

// decision is decide without the reason.
func decision(c Config, w, sampled, count, k int, p float64) Decision {
	d, _ := c.decide(w, sampled, count, k, p)
	return d
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{Accept: "accept", Prune: "prune", Undecided: "undecided", Decision(42): "undecided"} {
		if got := d.String(); got != want {
			t.Errorf("Decision(%d).String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestDecideSoundRules(t *testing.T) {
	var c Config
	// Rule 1: count already clears k, no matter how sparse the sample.
	if got := decision(c, 100, 3, 5, 5, 0.01); got != Accept {
		t.Errorf("rule 1: got %v, want accept", got)
	}
	// Rule 2: even all-positive remaining units cannot reach k.
	if got := decision(c, 100, 98, 0, 3, 0.01); got != Prune {
		t.Errorf("rule 2: got %v, want prune", got)
	}
	// Full density always decides, regardless of the statistical knobs.
	if got := decision(c, 50, 50, 10, 10, 0.5); got != Accept {
		t.Errorf("dense accept: got %v, want accept", got)
	}
	if got := decision(c, 50, 50, 9, 10, 0.5); got != Prune {
		t.Errorf("dense prune: got %v, want prune", got)
	}
}

func TestDecideMinSampleGate(t *testing.T) {
	var c Config
	// Below DefaultMinSample the statistical rules stay silent even on a
	// sample that would otherwise extrapolate far past k.
	if got := decision(c, 1000, 4, 3, 10, 1e-4); got != Undecided {
		t.Errorf("below MinSample: got %v, want undecided", got)
	}
	// An explicit MinSample of 1 re-enables them at the same sample.
	c1 := Config{MinSample: 1}
	if got := decision(c1, 1000, 4, 3, 10, 1e-4); got == Undecided {
		t.Errorf("MinSample 1: statistical rules still gated")
	}
}

func TestDecideScaledAccept(t *testing.T) {
	var c Config
	// 30 positives in 100 samples over w=1000 with k=50: extrapolation
	// 300 >= Margin*k = 100 and the sample is wildly inconsistent with
	// the critical density 0.05 (mean 5, observed 30).
	if got := decision(c, 1000, 100, 30, 50, 1e-4); got != Accept {
		t.Errorf("scaled accept: got %v, want accept", got)
	}
	// Significance gate: a single positive in 10 samples extrapolates to
	// 100 >= Margin*k = 4, but P(X>=1 | n=10, p=k/w=0.002) ~ 0.02 > Tail,
	// so a lone detector false positive must NOT accept the clip.
	if got := decision(c, 1000, 10, 1, 2, 1e-5); got == Accept {
		t.Errorf("significance gate: lone positive accepted")
	}
}

func TestDecideBackgroundPrune(t *testing.T) {
	var c Config
	// Zero positives in 250 samples, k=10, background 1e-4: the power
	// gate holds (a critical-density clip would beat 0 with prob ~0.92),
	// the sample looks like background, and 750 remaining background
	// units cannot plausibly produce 10 events.
	if got := decision(c, 1000, 250, 0, 10, 1e-4); got != Prune {
		t.Errorf("background prune: got %v, want prune", got)
	}
	// Power gate: the same zero count on only 100 samples is still
	// consistent with a critical-density clip (P(X>=1) ~ 0.63 < 1-Power),
	// so the rung must densify instead of pruning.
	if got := decision(c, 1000, 100, 0, 10, 1e-4); got != Undecided {
		t.Errorf("power gate: got %v, want undecided", got)
	}
	// Background-consistency gate: 3 positives in 900 samples are
	// significant against p=1e-5 (the sample does NOT look like
	// background), so the clip must not be pruned by a background model
	// that does not describe it.
	if got := decision(c, 1000, 900, 3, 10, 1e-5); got == Prune {
		t.Errorf("background-consistency gate: significant sample pruned")
	}
}

func TestDecideZeroBackground(t *testing.T) {
	// p = 0 must not panic and must still prune a zero-count sample with
	// enough power.
	var c Config
	if got := decision(c, 1000, 250, 0, 10, 0); got != Prune {
		t.Errorf("p=0 prune: got %v, want prune", got)
	}
}

// probe records the unit-evaluation order so tests can pin the exact
// access pattern.
type probe struct {
	pos   func(u int) bool
	order []int
}

func (p *probe) eval(u int) (bool, error) {
	p.order = append(p.order, u)
	return p.pos(u), nil
}

func ident(w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestEvaluateRejectsBadWindow(t *testing.T) {
	_, err := Config{Rate: 4}.Evaluate(0, 1, 0.1, func(int) (bool, error) { return false, nil })
	if err == nil {
		t.Fatal("w=0 accepted")
	}
}

func TestEvaluatePropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Config{Rate: 4}.Evaluate(100, 3, 1e-4, func(int) (bool, error) { return false, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestEvaluateSmallWindowDense pins the optional-stopping fix: windows
// no longer than MinSample are evaluated densely in order, with no
// early stopping, so the run the caller feeds the background estimator
// is byte-identical to the dense path.
func TestEvaluateSmallWindowDense(t *testing.T) {
	p := &probe{pos: func(u int) bool { return u == 0 }}
	res, err := Config{Rate: 8}.Evaluate(5, 2, 0.01, p.eval)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.order, ident(5)) {
		t.Errorf("small window order = %v, want 0..4 dense", p.order)
	}
	if res.Positive || !res.Exact || res.Sampled != 5 || res.Count != 1 {
		t.Errorf("small window result = %+v, want exact negative with 5 sampled, 1 positive", res)
	}
}

func TestEvaluateRateOneIsDense(t *testing.T) {
	p := &probe{pos: func(u int) bool { return u%7 == 0 }}
	res, err := Config{Rate: 1}.Evaluate(50, 100, 1e-4, p.eval)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.order, ident(50)) {
		t.Errorf("rate-1 order = %v, want 0..49 dense", p.order)
	}
	if res.Positive || !res.Exact || res.Sampled != 50 {
		t.Errorf("rate-1 result = %+v", res)
	}
}

func TestEvaluateSoundAcceptStopsEarly(t *testing.T) {
	p := &probe{pos: func(u int) bool { return true }}
	res, err := Config{Rate: 4}.Evaluate(100, 3, 1e-4, p.eval)
	if err != nil {
		t.Fatal(err)
	}
	// The base rung samples units 0,4,...,96; rule 1 fires at its end.
	if res.Rungs != 1 || res.Sampled != 25 || !res.Positive || !res.Exact {
		t.Errorf("result = %+v, want exact accept after the 25-unit base rung", res)
	}
	if len(p.order) != 25 || p.order[0] != 0 || p.order[24] != 96 {
		t.Errorf("order = %v, want the stride-4 lattice", p.order)
	}
}

func TestEvaluateStatisticalPrune(t *testing.T) {
	p := &probe{pos: func(u int) bool { return false }}
	res, err := Config{Rate: 4}.Evaluate(1000, 10, 1e-4, p.eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Positive || res.Exact || res.Sampled != 250 || res.Rungs != 1 {
		t.Errorf("result = %+v, want statistical prune after the 250-unit base rung", res)
	}
}

func TestEvaluateDensifiesToExact(t *testing.T) {
	// 12 positives clustered at the window start, k=13: no sparse rung
	// can decide, the ladder must reach full density and settle exactly.
	p := &probe{pos: func(u int) bool { return u < 12 }}
	res, err := Config{Rate: 4}.Evaluate(100, 13, 0.05, p.eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Positive || !res.Exact || res.Sampled != 100 {
		t.Errorf("result = %+v, want exact dense negative", res)
	}
	if len(p.order) != 100 {
		t.Errorf("sampled %d units, want all 100", len(p.order))
	}
}

func TestEvaluateTruncatedLadderFinalizes(t *testing.T) {
	// One rung only: 10 positives in the base rung's 25 samples with
	// k=30 decide nothing, so the truncated ladder extrapolates
	// 10*100/25 = 40 >= 30 and reports an inexact positive.
	p := &probe{pos: func(u int) bool { return u < 40 }}
	res, err := Config{Rate: 4, Levels: 1}.Evaluate(100, 30, 0.3, p.eval)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Positive || res.Exact || res.Sampled != 25 || res.Rungs != 1 {
		t.Errorf("result = %+v, want extrapolated positive from the truncated ladder", res)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	pos := func(u int) bool { return u%13 == 0 || u == 77 }
	run := func() (Result, []int) {
		p := &probe{pos: pos}
		res, err := Config{Rate: 8}.Evaluate(200, 9, 1e-3, p.eval)
		if err != nil {
			t.Fatal(err)
		}
		return res, p.order
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1 != r2 || !reflect.DeepEqual(o1, o2) {
		t.Errorf("repeat run diverged: %+v %v vs %+v %v", r1, o1, r2, o2)
	}
}

// TestEvaluateMatchesDense is the planner's metamorphic core: for a
// grid of windows, rates and positive layouts, full-ladder planning
// must reach the dense indicator exactly whenever it decides by a
// sound rule, and every rate-1 run must equal the dense scan in both
// indicator and access order.
func TestEvaluateMatchesDense(t *testing.T) {
	layouts := []func(u int) bool{
		func(u int) bool { return false },
		func(u int) bool { return true },
		func(u int) bool { return u%9 == 0 },
		func(u int) bool { return u < 5 },
		func(u int) bool { return u >= 45 },
	}
	for li, pos := range layouts {
		for _, w := range []int{50, 101} {
			for _, k := range []int{1, 3, 10} {
				dense := 0
				for u := 0; u < w; u++ {
					if pos(u) {
						dense++
					}
				}
				want := dense >= k
				for _, rate := range []int{1, 2, 8} {
					p := &probe{pos: pos}
					res, err := Config{Rate: rate}.Evaluate(w, k, 1e-4, p.eval)
					if err != nil {
						t.Fatal(err)
					}
					if res.Exact && res.Positive != want {
						t.Errorf("layout %d w=%d k=%d rate=%d: exact decision %v, dense %v", li, w, k, rate, res.Positive, want)
					}
					if rate == 1 {
						if res.Positive != want || !reflect.DeepEqual(p.order, ident(w)) {
							t.Errorf("layout %d w=%d k=%d: rate-1 not byte-identical to dense", li, w, k)
						}
					}
				}
			}
		}
	}
}

func TestFinalize(t *testing.T) {
	cases := []struct {
		w, sampled, count, k int
		want                 bool
	}{
		{100, 25, 10, 30, true},  // 40 extrapolated >= 30
		{100, 25, 7, 30, false},  // 28 extrapolated < 30
		{100, 100, 30, 30, true}, // dense boundary
		{100, 100, 29, 30, false},
	}
	for _, c := range cases {
		if got := Finalize(c.w, c.sampled, c.count, c.k); got != c.want {
			t.Errorf("Finalize(%d, %d, %d, %d) = %v, want %v", c.w, c.sampled, c.count, c.k, got, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Observe(100, Result{Positive: true, Sampled: 25})
	s.Observe(100, Result{Positive: false, Sampled: 25})
	s.Observe(100, Result{Positive: true, Sampled: 100})
	if s.Clips != 3 || s.Accepted != 1 || s.Pruned != 1 || s.Densified != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Units != 150 || s.UnitsDense != 300 {
		t.Errorf("units = %d/%d, want 150/300", s.Units, s.UnitsDense)
	}

	var o Stats
	o.Observe(50, Result{Positive: false, Sampled: 10})
	s.Add(o)
	if s.Clips != 4 || s.Pruned != 2 || s.Units != 160 || s.UnitsDense != 350 {
		t.Errorf("after Add: %+v", s)
	}
}

func ExampleConfig_Strides() {
	fmt.Println(Config{Rate: 8}.Strides())
	fmt.Println(Config{Rate: 8, Levels: 2}.Strides())
	// Output:
	// [8 4 2 1]
	// [8 4]
}

// shared builds n predicates over one window with the given critical
// values at background 1e-4, and a probe that records the unit order and
// sets each predicate's Hit from its layout.
func shared(ks []int, layouts []func(u int) bool) ([]Pred, *[]int, func(u int) error) {
	preds := make([]Pred, len(ks))
	for i, k := range ks {
		preds[i] = Pred{K: k, P: 1e-4}
	}
	order := new([]int)
	return preds, order, func(u int) error {
		*order = append(*order, u)
		for i, pos := range layouts {
			preds[i].Hit = pos(u)
		}
		return nil
	}
}

// TestEvaluateAllDecidedKeepsCounting: a predicate accepted on the base
// rung still counts the units later rungs sample for an undecided one,
// so its Sampled and Count cover the whole shared sample.
func TestEvaluateAllDecidedKeepsCounting(t *testing.T) {
	all := func(int) bool { return true }
	clustered := func(u int) bool { return u < 12 } // needs full density at k=13
	preds, order, probe := shared([]int{3, 13}, []func(int) bool{all, clustered})
	if err := (Config{Rate: 4}).EvaluateAll(100, preds, probe); err != nil {
		t.Fatal(err)
	}
	a, b := preds[0], preds[1]
	if !a.Positive || !a.Exact || a.Rungs != 1 || a.Reason != ReasonSoundAccept {
		t.Errorf("early predicate = %+v, want a sound accept on the base rung", a.Result)
	}
	if b.Positive || !b.Exact || b.Rungs != 3 {
		t.Errorf("late predicate = %+v, want an exact negative on the dense rung", b.Result)
	}
	if len(*order) != 100 || a.Sampled != 100 || b.Sampled != 100 || a.BaseSampled != 25 {
		t.Errorf("probed %d units, Sampled %d/%d, BaseSampled %d; want 100, 100/100, 25",
			len(*order), a.Sampled, b.Sampled, a.BaseSampled)
	}
	if a.Count != 100 || b.Count != 12 {
		t.Errorf("counts %d/%d, want the whole shared sample's 100/12", a.Count, b.Count)
	}
}

// TestEvaluateAllStopsWhenAllDecided: once every predicate is decided the
// ladder probes nothing more.
func TestEvaluateAllStopsWhenAllDecided(t *testing.T) {
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	preds, order, probe := shared([]int{3, 10}, []func(int) bool{all, none})
	if err := (Config{Rate: 4}).EvaluateAll(1000, preds, probe); err != nil {
		t.Fatal(err)
	}
	if len(*order) != 250 {
		t.Errorf("probed %d units, want only the 250-unit base rung", len(*order))
	}
	if !preds[0].Positive || preds[0].Reason != ReasonSoundAccept ||
		preds[1].Positive || preds[1].Reason != ReasonBgTailPrune {
		t.Errorf("decisions %+v / %+v, want sound accept and background prune", preds[0].Result, preds[1].Result)
	}
}

// TestEvaluateAllTruncatedFinalizesEach: a truncated ladder settles each
// still-undecided predicate by its own density extrapolation.
func TestEvaluateAllTruncatedFinalizesEach(t *testing.T) {
	hi := func(u int) bool { return u < 40 } // 10 of 25 sampled: 40 ≥ 30
	lo := func(u int) bool { return u < 28 } // 7 of 25 sampled: 28 < 30
	preds, _, probe := shared([]int{30, 30}, []func(int) bool{hi, lo})
	for i := range preds {
		preds[i].P = 0.3
	}
	if err := (Config{Rate: 4, Levels: 1}).EvaluateAll(100, preds, probe); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		r := preds[i].Result
		if r.Positive != want || r.Exact || r.Reason != ReasonExtrapolated || r.Sampled != 25 || r.Rungs != 1 {
			t.Errorf("predicate %d = %+v, want extrapolated %v from the 25-unit rung", i, r, want)
		}
	}
}

// TestEvaluateAllShortWindowDense: a window of at most MinSample units is
// evaluated densely in order for every predicate, even one a sparse rung
// would already have decided.
func TestEvaluateAllShortWindowDense(t *testing.T) {
	all := func(int) bool { return true }
	last := func(u int) bool { return u == 4 }
	preds, order, probe := shared([]int{1, 2}, []func(int) bool{all, last})
	if err := (Config{Rate: 8}).EvaluateAll(5, preds, probe); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*order, ident(5)) {
		t.Errorf("short window order = %v, want 0..4 dense", *order)
	}
	for i, want := range []Result{
		{Positive: true, Exact: true, Sampled: 5, Count: 5, BaseSampled: 5, Rungs: 1, Reason: ReasonSoundAccept},
		{Positive: false, Exact: true, Sampled: 5, Count: 1, BaseSampled: 5, Rungs: 1, Reason: ReasonSoundPrune},
	} {
		if preds[i].Result != want {
			t.Errorf("predicate %d = %+v, want %+v", i, preds[i].Result, want)
		}
	}
}

// TestEvaluateAllMatchesEvaluate runs TestEvaluateMatchesDense's grid:
// one predicate through EvaluateAll equals Evaluate in result and probe
// order, and with every layout sharing one window each predicate reaches
// the decision, rung and reason its solo evaluation reaches.
func TestEvaluateAllMatchesEvaluate(t *testing.T) {
	layouts := []func(u int) bool{
		func(u int) bool { return false },
		func(u int) bool { return true },
		func(u int) bool { return u%9 == 0 },
		func(u int) bool { return u < 5 },
		func(u int) bool { return u >= 45 },
	}
	for _, w := range []int{50, 101} {
		for _, k := range []int{1, 3, 10} {
			for _, rate := range []int{1, 2, 8} {
				cfg := Config{Rate: rate}
				ks := make([]int, len(layouts))
				solo := make([]Result, len(layouts))
				for li, pos := range layouts {
					ks[li] = k
					p := &probe{pos: pos}
					res, err := cfg.Evaluate(w, k, 1e-4, p.eval)
					if err != nil {
						t.Fatal(err)
					}
					solo[li] = res
					preds, order, pr := shared([]int{k}, layouts[li:li+1])
					if err := cfg.EvaluateAll(w, preds, pr); err != nil {
						t.Fatal(err)
					}
					if preds[0].Result != res || !reflect.DeepEqual(*order, p.order) {
						t.Errorf("layout %d w=%d k=%d rate=%d: EvaluateAll %+v %v, Evaluate %+v %v",
							li, w, k, rate, preds[0].Result, *order, res, p.order)
					}
				}
				preds, _, pr := shared(ks, layouts)
				if err := cfg.EvaluateAll(w, preds, pr); err != nil {
					t.Fatal(err)
				}
				for li, s := range solo {
					r := preds[li].Result
					if r.Positive != s.Positive || r.Exact != s.Exact || r.Rungs != s.Rungs || r.Reason != s.Reason || r.Sampled < s.Sampled {
						t.Errorf("layout %d w=%d k=%d rate=%d: shared %+v, solo %+v", li, w, k, rate, r, s)
					}
				}
			}
		}
	}
}

// TestEvaluateAllAllocatesNothing: with caller-owned scratch, neither the
// dense rung nor a Rate-8 ladder allocates.
func TestEvaluateAllAllocatesNothing(t *testing.T) {
	preds := []Pred{{K: 3, P: 1e-4}, {K: 9, P: 1e-3}}
	probe := func(u int) error {
		preds[0].Hit = u%13 == 0
		preds[1].Hit = u%5 == 0 || u == 77
		return nil
	}
	for _, cfg := range []Config{{}, {Rate: 8}} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := cfg.EvaluateAll(200, preds, probe); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("rate %d: %v allocs per evaluation, want 0", cfg.Rate, allocs)
		}
	}
}
