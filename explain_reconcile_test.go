package vaq

import (
	"testing"
	"time"

	"vaq/internal/detect"
	"vaq/internal/explain"
	"vaq/internal/fault"
	"vaq/internal/infer"
	"vaq/internal/resilience"
	"vaq/internal/synth"
)

// These tests pin the EXPLAIN exactness contract: a profile's
// engine-attributed invocation layers (dense_eval + plan_probe +
// densify) must equal the engine's own Invocations() to the unit, the
// clip decision sources must sum to the clips processed, and the
// backend-side layers (retry, hedge, batch_flush) must mirror the
// resilience/infer deltas without leaking into the engine invariant —
// across dense, planned, CNF, faulted, hedged and cached runs.

// reconcile asserts the two engine-side invariants on a finished
// stream + collector pair.
func reconcile(t *testing.T, name string, s *Stream, ex *ExplainCollector) ExplainProfile {
	t.Helper()
	p := ex.Profile()
	if got, want := p.EngineInvocations(), int64(s.Invocations()); got != want {
		t.Errorf("%s: attributed engine invocations = %d, engine counted %d", name, got, want)
	}
	var clips int64
	for _, n := range p.Clips {
		clips += n
	}
	if got, want := clips, int64(s.ClipsProcessed()); got != want {
		t.Errorf("%s: attributed clips = %d, processed %d", name, got, want)
	}
	return p
}

// streamWorld loads the q2 workload at the given scale with fresh sim
// detectors.
func streamWorld(t *testing.T, scale float64) (*synth.QuerySet, ObjectDetector, ActionRecognizer) {
	t.Helper()
	qs, err := synth.YouTubeScaled("q2", DefaultGeometry(), scale)
	if err != nil {
		t.Fatal(err)
	}
	scene := qs.World.Scene()
	return qs,
		detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil),
		detect.NewSimActionRecognizer(scene, detect.I3D, nil)
}

func TestExplainReconcilesOnline(t *testing.T) {
	cases := []struct {
		name string
		cfg  StreamConfig
		// check inspects the profile beyond the shared invariants.
		check func(t *testing.T, p ExplainProfile)
	}{
		{
			name: "dense",
			cfg:  StreamConfig{Dynamic: true},
			check: func(t *testing.T, p ExplainProfile) {
				if p.Invocations[explain.LayerProbe] != 0 || p.Invocations[explain.LayerDensify] != 0 {
					t.Errorf("dense run attributed planner layers: %v", p.Invocations)
				}
				if p.Plan != nil {
					t.Error("dense run opened a plan section")
				}
				if p.Clips[explain.ClipPlanAccept] != 0 || p.Clips[explain.ClipPlanPrune] != 0 {
					t.Errorf("dense run attributed planner clip outcomes: %v", p.Clips)
				}
			},
		},
		{
			name: "planned",
			cfg:  StreamConfig{Dynamic: true, Plan: PlanConfig{Rate: 4}},
			check: func(t *testing.T, p ExplainProfile) {
				if p.Invocations[explain.LayerProbe] == 0 {
					t.Errorf("planned run attributed no probe units: %v", p.Invocations)
				}
				if p.Plan == nil {
					t.Fatal("planned run has no plan section")
				}
				if p.Plan.Units != p.Invocations[explain.LayerProbe]+p.Invocations[explain.LayerDensify] {
					t.Errorf("plan units %d != probe %d + densify %d",
						p.Plan.Units, p.Invocations[explain.LayerProbe], p.Invocations[explain.LayerDensify])
				}
				if len(p.Plan.Reasons) == 0 {
					t.Error("planned run recorded no Decide reasons")
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			qs, det, rec := streamWorld(t, 0.2)
			meta := qs.World.Truth.Meta
			cfg := tc.cfg
			cfg.HorizonClips = meta.Clips()
			s, err := NewStreamQuery(qs.Query, det, rec, meta.Geom, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExplainCollector("online")
			s.AttachExplain(ex)
			if _, err := s.Run(meta.Clips()); err != nil {
				t.Fatal(err)
			}
			p := reconcile(t, tc.name, s, ex)
			tc.check(t, p)
		})
	}
}

func TestExplainReconcilesCNF(t *testing.T) {
	qs, det, rec := streamWorld(t, 0.2)
	plan, err := ParseQuery(`
		SELECT MERGE(clipID) FROM (PROCESS cam PRODUCE clipID, obj, act)
		WHERE act = 'blowing_leaves' OR obj.include('car')`)
	if err != nil {
		t.Fatal(err)
	}
	meta := qs.World.Truth.Meta
	s, err := NewStream(plan, det, rec, meta.Geom, StreamConfig{HorizonClips: meta.Clips()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() == nil {
		t.Fatal("disjunctive plan has no engine")
	}
	ex := NewExplainCollector("online")
	s.AttachExplain(ex)
	if _, err := s.Run(meta.Clips()); err != nil {
		t.Fatal(err)
	}
	p := reconcile(t, "cnf", s, ex)
	if len(p.Predicates) != 2 {
		t.Fatalf("CNF profile predicates = %d, want 2: %+v", len(p.Predicates), p.Predicates)
	}
	// Predicates are observed in clause order (a clause's objects, then
	// its actions), not in map order.
	if p.Predicates[0].Name != "obj:car" || p.Predicates[1].Name != "act:blowing_leaves" {
		t.Fatalf("CNF profile predicate order = %s, %s", p.Predicates[0].Name, p.Predicates[1].Name)
	}
}

// TestExplainReconcilesFaulted runs the engine through the resilience
// layer under an error burst: the engine invariant must hold on the
// engine's own units while the retry layer mirrors the resilience
// delta exactly — degraded units never distort engine accounting.
func TestExplainReconcilesFaulted(t *testing.T) {
	qs, det, rec := streamWorld(t, 0.15)
	sched, err := fault.Parse(11, "error:0-999:0.5")
	if err != nil {
		t.Fatal(err)
	}
	fdet := fault.NewObject(detect.AsFallibleObject(det), sched)
	frec := fault.NewAction(detect.AsFallibleAction(rec), sched)
	pol := resilience.Policy{
		MaxRetries:  1,
		BaseBackoff: 10 * time.Microsecond,
		MaxBackoff:  50 * time.Microsecond,
		Seed:        3,
	}
	models := resilience.WrapFallible(fdet, frec, pol, resilience.Options{})

	meta := qs.World.Truth.Meta
	s, err := NewStreamQuery(qs.Query, models.Det, models.Rec, meta.Geom,
		StreamConfig{Dynamic: true, HorizonClips: meta.Clips()})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplainCollector("online")
	s.AttachExplain(ex)
	start := models.Stats()
	if _, err := s.Run(meta.Clips()); err != nil {
		t.Fatal(err)
	}
	delta := models.Stats()
	if delta.Retries <= start.Retries {
		t.Fatal("fault burst produced no retries; the schedule is not engaged")
	}
	ex.SetResilience(explain.ResilienceProfile{
		Retries:       delta.Retries - start.Retries,
		Hedges:        delta.Hedges - start.Hedges,
		Fallbacks:     delta.Fallbacks - start.Fallbacks,
		DegradedUnits: delta.DegradedUnits - start.DegradedUnits,
	})
	p := reconcile(t, "faulted", s, ex)
	if got, want := p.Invocations[explain.LayerRetry], delta.Retries-start.Retries; got != want {
		t.Errorf("retry layer = %d, resilience delta %d", got, want)
	}
	if p.Resilience == nil || p.Resilience.Fallbacks == 0 {
		t.Errorf("50%% error burst with one retry should degrade some units: %+v", p.Resilience)
	}
}

// TestExplainReconcilesHedged arms hedging over a latency-episode
// schedule: hedge replicas land in their own layer, outside the engine
// invariant.
func TestExplainReconcilesHedged(t *testing.T) {
	qs, det, rec := streamWorld(t, 0.15)
	sched, err := fault.Parse(5, "latency:0-:0.05:1ms")
	if err != nil {
		t.Fatal(err)
	}
	fdet := fault.NewObject(detect.AsFallibleObject(det), sched)
	pol := resilience.Policy{
		Seed:            5,
		HedgeQuantile:   0.9,
		HedgeMinSamples: 20,
	}
	models := resilience.WrapFallible(fdet, detect.AsFallibleAction(rec), pol, resilience.Options{})

	meta := qs.World.Truth.Meta
	s, err := NewStreamQuery(qs.Query, models.Det, models.Rec, meta.Geom,
		StreamConfig{Dynamic: true, HorizonClips: meta.Clips()})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplainCollector("online")
	s.AttachExplain(ex)
	if _, err := s.Run(meta.Clips()); err != nil {
		t.Fatal(err)
	}
	st := models.Stats()
	if st.Hedges == 0 {
		t.Fatal("latency episodes armed no hedges; HedgeQuantile is not engaged")
	}
	ex.SetResilience(explain.ResilienceProfile{Hedges: st.Hedges, HedgeWins: st.HedgeWins})
	p := reconcile(t, "hedged", s, ex)
	if got := p.Invocations[explain.LayerHedge]; got != st.Hedges {
		t.Errorf("hedge layer = %d, resilience counted %d", got, st.Hedges)
	}
}

// TestExplainReconcilesCached runs two streams through one shared-
// inference domain: the second stream's delta shows the cache serving
// units, while its engine invariant is untouched (the cache sits below
// the engine's invocation accounting).
func TestExplainReconcilesCached(t *testing.T) {
	qs, det, rec := streamWorld(t, 0.15)
	sh := infer.MustNew(infer.Config{CacheCapacity: 1 << 16})
	wrap := func() *resilience.Models {
		return resilience.WrapFallible(
			sh.Object(detect.AsFallibleObject(det)),
			sh.Action(detect.AsFallibleAction(rec)),
			resilience.DefaultPolicy(), resilience.Options{})
	}
	meta := qs.World.Truth.Meta
	runOne := func(name string) ExplainProfile {
		m := wrap()
		s, err := NewStreamQuery(qs.Query, m.Det, m.Rec, meta.Geom,
			StreamConfig{Dynamic: true, HorizonClips: meta.Clips()})
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExplainCollector("online")
		s.AttachExplain(ex)
		start := sh.Stats()
		if _, err := s.Run(meta.Clips()); err != nil {
			t.Fatal(err)
		}
		end := sh.Stats()
		ex.SetInfer(explain.InferProfile{
			CacheHits:   end.CacheHits - start.CacheHits,
			CacheMisses: end.CacheMisses - start.CacheMisses,
		})
		return reconcile(t, name, s, ex)
	}
	first := runOne("cached-first")
	if first.Infer.CacheHits != 0 {
		t.Errorf("first run hit a cold cache %d times", first.Infer.CacheHits)
	}
	second := runOne("cached-second")
	if second.Infer.CacheHits == 0 {
		t.Error("second identical run saw no cache hits; the shared cache is not engaged")
	}
	if first.EngineInvocations() != second.EngineInvocations() {
		t.Errorf("cache hits changed engine accounting: %d vs %d",
			first.EngineInvocations(), second.EngineInvocations())
	}
}

// TestExplainReconcilesTopK pins the offline section against the
// engine's own TopKStats.
func TestExplainReconcilesTopK(t *testing.T) {
	qs, det, rec := streamWorld(t, 0.2)
	truth := qs.World.Truth
	vd, err := IngestVideo(det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(), IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add("q2", vd); err != nil {
		t.Fatal(err)
	}
	q := qs.Query
	ex := NewExplainCollector("topk")
	_, stats, err := repo.TopKOpts("q2", q, 5, ExecOptions{Explain: ex})
	if err != nil {
		t.Fatal(err)
	}
	tk := ex.Profile().TopK
	if tk == nil {
		t.Fatal("topk run produced no topk section")
	}
	if tk.K != 5 {
		t.Errorf("k = %d, want 5", tk.K)
	}
	if tk.Candidates != stats.Candidates {
		t.Errorf("candidates = %d, stats %d", tk.Candidates, stats.Candidates)
	}
	if tk.Iterations != stats.Iterations {
		t.Errorf("iterations = %d, stats %d", tk.Iterations, stats.Iterations)
	}
	if tk.RandomAccesses != stats.Accesses.Random {
		t.Errorf("random accesses = %d, stats %d", tk.RandomAccesses, stats.Accesses.Random)
	}
	if got, want := tk.SortedAccesses, stats.Accesses.Sorted+stats.Accesses.Reverse; got != want {
		t.Errorf("sorted accesses = %d, stats %d", got, want)
	}
	if len(tk.Trajectory) == 0 || len(tk.Trajectory) != stats.Iterations {
		t.Errorf("trajectory points = %d, iterations %d", len(tk.Trajectory), stats.Iterations)
	}
}
