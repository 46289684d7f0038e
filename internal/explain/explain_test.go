package explain

import (
	"strings"
	"sync"
	"testing"
)

// TestNilCollectorNoOps drives every method through a nil receiver —
// the disabled path production engines run on.
func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	c.SetID("x")
	c.SetQuery("q")
	c.SetWorkload("w")
	c.SetDurUS(1)
	c.ClipOutcome(ClipScanAccept)
	c.ObservePredicate(PredObservation{Name: "obj:car", Units: 4})
	c.SetInfer(InferProfile{CacheHits: 1})
	c.SetResilience(ResilienceProfile{Retries: 1})
	c.TopKConfigure(5)
	c.TopKIteration(0, 1, 1.0, 2.0)
	c.TopKSeqPruned(3)
	c.TopKScoreCacheHit()
	c.TopKDensified()
	c.TopKPartial()
	c.TopKFinish(10, 20, 30, 40)
	p := c.Profile()
	if p.Kind != "" || p.Clips != nil || p.Invocations != nil {
		t.Fatalf("nil collector produced a non-empty profile: %+v", p)
	}
}

func TestClipAndUnitAttribution(t *testing.T) {
	c := NewCollector("online")
	c.SetID("s1")
	c.SetQuery("SELECT ...")
	c.SetWorkload("q2")
	c.SetDurUS(1234)
	c.ClipOutcome(ClipScanAccept)
	c.ClipOutcome(ClipScanReject)
	c.ClipOutcome(ClipScanReject)
	c.ObservePredicate(PredObservation{Name: "obj:car", Units: 7})

	p := c.Profile()
	if p.ID != "s1" || p.Kind != "online" || p.Query != "SELECT ..." || p.Workload != "q2" || p.DurUS != 1234 {
		t.Fatalf("header fields wrong: %+v", p)
	}
	if p.Clips[ClipScanAccept] != 1 || p.Clips[ClipScanReject] != 2 {
		t.Fatalf("clip attribution wrong: %v", p.Clips)
	}
	if p.Invocations[LayerDense] != 7 || len(p.Invocations) != 1 {
		t.Fatalf("unit attribution wrong: %v", p.Invocations)
	}
}

func TestObservePredicateDense(t *testing.T) {
	c := NewCollector("online")
	c.ObservePredicate(PredObservation{Name: "obj:car", Positive: true, Units: 30})
	c.ObservePredicate(PredObservation{Name: "obj:car", Positive: false, Units: 30})
	c.ObservePredicate(PredObservation{Name: "act:smoking", Positive: true, Units: 3})

	p := c.Profile()
	if got := p.Invocations[LayerDense]; got != 63 {
		t.Fatalf("dense units = %d, want 63", got)
	}
	if p.EngineInvocations() != 63 {
		t.Fatalf("EngineInvocations = %d, want 63", p.EngineInvocations())
	}
	if len(p.Predicates) != 2 {
		t.Fatalf("predicates = %d, want 2 (first-seen order)", len(p.Predicates))
	}
	car := p.Predicates[0]
	if car.Name != "obj:car" || car.Evaluated != 2 || car.Positive != 1 || car.Units != 60 || car.Planned {
		t.Fatalf("obj:car profile wrong: %+v", car)
	}
	if p.Plan != nil {
		t.Fatalf("dense observations must not open a plan section")
	}
}

func TestObservePredicatePlanned(t *testing.T) {
	c := NewCollector("online")
	// Settled at the base rung: sound prune.
	c.ObservePredicate(PredObservation{
		Name: "obj:car", Planned: true, Positive: false,
		Units: 3, BaseUnits: 3, Rungs: 1, Reason: "sound-prune",
	})
	// Densified two rungs deep, then accepted.
	c.ObservePredicate(PredObservation{
		Name: "obj:car", Planned: true, Positive: true,
		Units: 15, BaseUnits: 3, Rungs: 2, Reason: "scaled-accept",
	})

	p := c.Profile()
	if p.Invocations[LayerProbe] != 6 || p.Invocations[LayerDensify] != 12 {
		t.Fatalf("layer split wrong: %v", p.Invocations)
	}
	if p.EngineInvocations() != 18 {
		t.Fatalf("EngineInvocations = %d, want 18", p.EngineInvocations())
	}
	pl := p.Plan
	if pl == nil {
		t.Fatal("planned observations must open the plan section")
	}
	if pl.Evaluations != 2 || pl.Accepted != 1 || pl.Pruned != 1 || pl.Densified != 1 {
		t.Fatalf("plan aggregate wrong: %+v", pl)
	}
	if pl.Units != 18 || pl.BaseUnits != 6 {
		t.Fatalf("plan units wrong: %+v", pl)
	}
	if pl.Reasons["sound-prune"] != 1 || pl.Reasons["scaled-accept"] != 1 {
		t.Fatalf("plan reasons wrong: %v", pl.Reasons)
	}
	if len(pl.Rungs) != 2 || pl.Rungs[0] != 1 || pl.Rungs[1] != 1 {
		t.Fatalf("rung histogram wrong: %v", pl.Rungs)
	}
	pp := p.Predicates[0]
	if !pp.Planned || pp.BaseUnits != 6 || pp.Reasons["sound-prune"] != 1 || len(pp.Rungs) != 2 {
		t.Fatalf("predicate plan fields wrong: %+v", pp)
	}
}

func TestSetInferAndResilienceLayers(t *testing.T) {
	c := NewCollector("online")
	c.SetInfer(InferProfile{CacheHits: 5, BatchedUnits: 40, Batches: 4})
	c.SetResilience(ResilienceProfile{
		Calls: 100, Retries: 3, Hedges: 2, HedgeWins: 1,
		Fallbacks: 6, DegradedUnits: 6, FallbackHops: []int64{4, 2},
	})

	p := c.Profile()
	if p.Infer == nil || p.Infer.CacheHits != 5 {
		t.Fatalf("infer section wrong: %+v", p.Infer)
	}
	if p.Resilience == nil || p.Resilience.Fallbacks != 6 {
		t.Fatalf("resilience section wrong: %+v", p.Resilience)
	}
	if p.Invocations[LayerBatch] != 40 || p.Invocations[LayerHedge] != 2 || p.Invocations[LayerRetry] != 3 {
		t.Fatalf("backend layers wrong: %v", p.Invocations)
	}
	// Backend layers stay outside the engine invariant.
	if p.EngineInvocations() != 0 {
		t.Fatalf("backend layers leaked into EngineInvocations: %d", p.EngineInvocations())
	}
	// The profile owns its hop slice.
	p.Resilience.FallbackHops[0] = 99
	if c.Profile().Resilience.FallbackHops[0] != 4 {
		t.Fatal("FallbackHops aliases collector state")
	}
}

func TestTopKSection(t *testing.T) {
	c := NewCollector("topk")
	c.TopKConfigure(5)
	c.TopKIteration(0, 1, 0.9, 0.1)
	c.TopKIteration(1, 2, 0.8, 0.3)
	c.TopKSeqPruned(12)
	c.TopKSeqPruned(8)
	c.TopKScoreCacheHit()
	c.TopKDensified()
	c.TopKPartial()
	// Two shards accumulate, mirroring rvaq.Stats.Merge.
	c.TopKFinish(10, 4, 100, 50)
	c.TopKFinish(7, 3, 60, 30)

	tk := c.Profile().TopK
	if tk == nil {
		t.Fatal("topk section missing")
	}
	if tk.K != 5 || tk.Candidates != 17 || tk.Iterations != 7 {
		t.Fatalf("topk totals wrong: %+v", tk)
	}
	if tk.SeqsPruned != 2 || tk.ClipsPruned != 20 || tk.ScoreCacheHits != 1 || tk.Densified != 1 {
		t.Fatalf("topk pruning wrong: %+v", tk)
	}
	if tk.RandomAccesses != 160 || tk.SortedAccesses != 80 {
		t.Fatalf("topk accesses wrong: %+v", tk)
	}
	if !tk.DeadlinePartial {
		t.Fatal("DeadlinePartial not set")
	}
	if len(tk.Trajectory) != 2 || tk.Trajectory[1].Shard != 1 || tk.Trajectory[1].TauTop != 0.8 {
		t.Fatalf("trajectory wrong: %+v", tk.Trajectory)
	}
}

func TestTrajectoryCap(t *testing.T) {
	c := NewCollector("topk")
	for i := 0; i < DefaultTrajectoryCap+10; i++ {
		c.TopKIteration(0, i, 1.0, 0.5)
	}
	tk := c.Profile().TopK
	if len(tk.Trajectory) != DefaultTrajectoryCap {
		t.Fatalf("trajectory length = %d, want %d", len(tk.Trajectory), DefaultTrajectoryCap)
	}
	if tk.TrajectoryDropped != 10 {
		t.Fatalf("TrajectoryDropped = %d, want 10", tk.TrajectoryDropped)
	}
}

// TestProfileSnapshotIsolation mutates a snapshot and verifies the
// collector's state is unaffected (the /explainz ring retains profiles
// long after the collector moved on).
func TestProfileSnapshotIsolation(t *testing.T) {
	c := NewCollector("online")
	c.ClipOutcome(ClipScanAccept)
	c.ObservePredicate(PredObservation{Name: "obj:car", Planned: true, Units: 3, BaseUnits: 3, Rungs: 1, Reason: "sound-prune"})
	c.TopKIteration(0, 1, 1, 1)

	p := c.Profile()
	p.Clips[ClipScanAccept] = 99
	p.Invocations[LayerProbe] = 99
	p.Predicates[0].Reasons["sound-prune"] = 99
	p.Predicates[0].Rungs[0] = 99
	p.Plan.Reasons["sound-prune"] = 99
	p.Plan.Rungs[0] = 99
	p.TopK.Trajectory[0].TauTop = 99

	q := c.Profile()
	if q.Clips[ClipScanAccept] != 1 || q.Invocations[LayerProbe] != 3 {
		t.Fatal("profile maps alias collector state")
	}
	if q.Predicates[0].Reasons["sound-prune"] != 1 || q.Predicates[0].Rungs[0] != 1 {
		t.Fatal("predicate snapshot aliases collector state")
	}
	if q.Plan.Reasons["sound-prune"] != 1 || q.Plan.Rungs[0] != 1 {
		t.Fatal("plan snapshot aliases collector state")
	}
	if q.TopK.Trajectory[0].TauTop != 1 {
		t.Fatal("trajectory snapshot aliases collector state")
	}
}

// TestCollectorConcurrent hammers one collector from several goroutines
// (the sharded top-k path) — run under -race.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector("topk")
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.ObservePredicate(PredObservation{Name: "obj:car", Positive: i%2 == 0, Units: 1})
				c.ClipOutcome(ClipScanReject)
				c.TopKIteration(w, i, 1.0, 0.5)
				c.TopKScoreCacheHit()
			}
			c.TopKFinish(per, per, int64(per), int64(per))
		}()
	}
	wg.Wait()
	p := c.Profile()
	if got := p.Invocations[LayerDense]; got != workers*per {
		t.Fatalf("dense units = %d, want %d", got, workers*per)
	}
	if p.Clips[ClipScanReject] != workers*per {
		t.Fatalf("clip outcomes = %d, want %d", p.Clips[ClipScanReject], workers*per)
	}
	if p.TopK.Candidates != workers*per {
		t.Fatalf("candidates = %d, want %d", p.TopK.Candidates, workers*per)
	}
	if got := len(p.TopK.Trajectory) + int(p.TopK.TrajectoryDropped); got != workers*per {
		t.Fatalf("trajectory points + dropped = %d, want %d", got, workers*per)
	}
}

func TestRender(t *testing.T) {
	c := NewCollector("topk")
	c.SetID("q7")
	c.SetWorkload("iron_man")
	c.SetQuery("SELECT ... LIMIT 5")
	c.SetDurUS(12400)
	c.ClipOutcome(ClipScanAccept)
	c.ObservePredicate(PredObservation{Name: "obj:car", Positive: true, Units: 30})
	c.ObservePredicate(PredObservation{Name: "act:driving", Planned: true, Positive: true, Units: 9, BaseUnits: 3, Rungs: 2, Reason: "scaled-accept"})
	c.SetInfer(InferProfile{CacheHits: 5, CacheMisses: 2})
	c.SetResilience(ResilienceProfile{Calls: 10, Retries: 1, FallbackHops: []int64{1}})
	c.TopKConfigure(5)
	c.TopKIteration(0, 1, 0.9, 0.1)
	c.TopKIteration(0, 2, 0.8, 0.3)
	c.TopKPartial()
	c.TopKFinish(40, 2, 120, 60)

	var sb strings.Builder
	Render(&sb, c.Profile())
	out := sb.String()
	for _, want := range []string{
		"explain q7 (topk, workload iron_man) 12.4ms",
		"query: SELECT ... LIMIT 5",
		"clips: scan_accept 1",
		"engine total 39",
		"pred obj:car",
		"dense",
		"pred act:driving",
		"planned",
		"reasons: scaled-accept 1",
		"plan: 1 evals, 1 accepted, 0 pruned, 1 densified, units 9 (base 3)",
		"rungs: r1 0, r2 1",
		"infer: cache 5 hit / 2 miss",
		"resilience: calls 10",
		"hops [1]",
		"topk: k 5, candidates 40, iterations 2",
		"PARTIAL",
		"τ trajectory: 2 points (dropped 0), τ_top 0.9 → 0.8, B_lo^K 0.1 → 0.3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderMinimal keeps the empty-profile path covered: only the
// header line appears.
func TestRenderMinimal(t *testing.T) {
	var sb strings.Builder
	Render(&sb, Profile{Kind: "online"})
	if got := sb.String(); got != "explain (online)\n" {
		t.Fatalf("minimal render = %q", got)
	}
}

func TestRing(t *testing.T) {
	if NewRing(0) != nil || NewRing(-1) != nil {
		t.Fatal("non-positive capacity must disable the ring")
	}
	r := NewRing(3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 2; i++ {
		r.Add(Profile{ID: string(rune('a' + i - 1))})
	}
	// Unfilled: newest first.
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != "b" || snap[1].ID != "a" {
		t.Fatalf("unfilled snapshot wrong: %+v", snap)
	}
	for i := 3; i <= 5; i++ {
		r.Add(Profile{ID: string(rune('a' + i - 1))})
	}
	// Filled and wrapped: the last 3 of a..e, newest first.
	snap = r.Snapshot()
	if len(snap) != 3 || snap[0].ID != "e" || snap[1].ID != "d" || snap[2].ID != "c" {
		t.Fatalf("wrapped snapshot wrong: %+v", snap)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	var nilRing *Ring
	nilRing.Add(Profile{})
	if nilRing.Total() != 0 || nilRing.Snapshot() != nil {
		t.Fatal("nil ring must no-op")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(Profile{ID: "x"})
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 400 {
		t.Fatalf("total = %d, want 400", r.Total())
	}
	if len(r.Snapshot()) != 8 {
		t.Fatalf("retained = %d, want 8", len(r.Snapshot()))
	}
}
