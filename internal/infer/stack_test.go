package infer

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/fault"
	"vaq/internal/synth"
	"vaq/internal/video"
)

// fakeObj is a counting fallible object backend returning one detection
// per label (perLabel) with a score encoding the unit.
type fakeObj struct {
	name  string
	calls atomic.Int64

	mu  sync.Mutex
	err error // error to return, if set
}

func (f *fakeObj) Name() string { return f.name }

// PerLabelConcat declares the contract perLabel keeps.
func (f *fakeObj) PerLabelConcat() {}

func (f *fakeObj) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

func (f *fakeObj) DetectCtx(_ context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	f.calls.Add(1)
	f.mu.Lock()
	err := f.err
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return perLabel(v, labels), nil
}

func TestCachedObjectMemoizes(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 16})
	wrapped := sh.Object(fk)
	labels := []annot.Label{"car"}

	first, err := wrapped.DetectCtx(context.Background(), 3, labels)
	if err != nil {
		t.Fatal(err)
	}
	second, err := wrapped.DetectCtx(context.Background(), 3, labels)
	if err != nil {
		t.Fatal(err)
	}
	if fk.calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1 (second served from cache)", fk.calls.Load())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result differs: %v vs %v", first, second)
	}
	st := sh.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits %d misses %d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

func TestCachedObjectClonesAcrossCallers(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 16})
	wrapped := sh.Object(fk)
	labels := []annot.Label{"car"}

	a, _ := wrapped.DetectCtx(context.Background(), 5, labels)
	// Simulate what Tracker.Update does to engine-held results.
	a[0].Track = 999
	a[0].Score = -1
	b, _ := wrapped.DetectCtx(context.Background(), 5, labels)
	if b[0].Track == 999 || b[0].Score == -1 {
		t.Fatal("mutation through one caller's slice leaked into the cache")
	}
}

func TestCachedObjectDoesNotCacheErrors(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	boom := errors.New("boom")
	fk.setErr(boom)
	sh := MustNew(Config{CacheCapacity: 16})
	wrapped := sh.Object(fk)
	labels := []annot.Label{"car"}

	if _, err := wrapped.DetectCtx(context.Background(), 1, labels); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fk.setErr(nil)
	dets, err := wrapped.DetectCtx(context.Background(), 1, labels)
	if err != nil || len(dets) != 1 {
		t.Fatalf("recovery call: dets %v err %v", dets, err)
	}
	if fk.calls.Load() != 2 {
		t.Fatalf("backend calls = %d, want 2 (the error was not memoized)", fk.calls.Load())
	}
}

// TestLabelSetKeyIsOrderInsensitive: a permuted label list is served
// from the same per-label entries, in the caller's own order.
func TestLabelSetKeyIsOrderInsensitive(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 16})
	wrapped := sh.Object(fk)

	detectOK(t, wrapped, 2, "car", "person")
	got := detectOK(t, wrapped, 2, "person", "car")
	if fk.calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1 (permuted labels must share the entries)", fk.calls.Load())
	}
	if want := perLabel(2, []annot.Label{"person", "car"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("permuted call got %v, want the backend's order %v", got, want)
	}
}

// testScene builds a small deterministic scene for the sim-backed tests.
func testScene(t *testing.T) (*detect.Scene, int) {
	t.Helper()
	qs, err := synth.YouTubeScaled("q2", video.DefaultGeometry(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return qs.World.Scene(), qs.World.Truth.Meta.Frames
}

func TestBatchedObjectVectorizesAndMatchesPerUnit(t *testing.T) {
	scene, frames := testScene(t)
	if frames < 8 {
		t.Fatalf("scene too small: %d frames", frames)
	}
	labels := []annot.Label{"car"}
	ref := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)

	var meter detect.CostMeter
	sim := detect.NewSimObjectDetector(scene, detect.MaskRCNN, &meter)
	sh := MustNew(Config{BatchWindow: 20 * time.Millisecond, BatchMax: 8})
	wrapped := sh.Object(detect.AsFallibleObject(sim))

	const n = 4
	got := make([][]detect.Detection, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dets, err := wrapped.DetectCtx(context.Background(), video.FrameIdx(i), labels)
			if err != nil {
				t.Errorf("unit %d: %v", i, err)
			}
			got[i] = dets
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		want := ref.Detect(video.FrameIdx(i), labels)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("unit %d: batched result %v != per-unit %v", i, got[i], want)
		}
	}
	if meter.Calls() != 1 {
		t.Fatalf("metered calls = %d, want 1 vectorized invocation for the batch", meter.Calls())
	}
	st := sh.Stats()
	if st.Batches != 1 || st.BatchedUnits != int64(n) {
		t.Fatalf("batches %d units %d, want 1/%d", st.Batches, st.BatchedUnits, n)
	}
}

// TestChaosDeterminismCacheOnOff is the acceptance-criterion test: with
// a fixed fault seed, the full stack (sim backend → [cache] → fault
// injector) produces byte-identical results and errors whether the memo
// cache is on or off — the cache sits below the injector, so every
// engine-visible invocation still crosses the same deterministic draws,
// and corrupted results never enter the cache.
func TestChaosDeterminismCacheOnOff(t *testing.T) {
	scene, frames := testScene(t)
	if frames > 200 {
		frames = 200
	}
	sched, err := fault.Parse(42, "error:0-:0.25,corrupt:0-:0.2")
	if err != nil {
		t.Fatal(err)
	}
	labels := []annot.Label{"car"}

	type obs struct {
		dets []detect.Detection
		err  string
	}
	run := func(withCache bool) []obs {
		sim := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		var backend detect.FallibleObjectDetector = detect.AsFallibleObject(sim)
		if withCache {
			backend = MustNew(Config{CacheCapacity: 1024}).Object(backend)
		}
		inj := fault.NewObject(backend, sched)
		var out []obs
		// Three serial passes over every frame: the repeats are what the
		// cache absorbs, and their fault attempt numbers advance the same
		// way in both legs.
		for pass := 0; pass < 3; pass++ {
			for f := 0; f < frames; f++ {
				dets, err := inj.DetectCtx(context.Background(), video.FrameIdx(f), labels)
				o := obs{dets: dets}
				if err != nil {
					o.err = err.Error()
				}
				out = append(out, o)
			}
		}
		return out
	}

	off := run(false)
	on := run(true)
	if len(off) != len(on) {
		t.Fatalf("observation counts differ: %d vs %d", len(off), len(on))
	}
	for i := range off {
		if !reflect.DeepEqual(off[i], on[i]) {
			t.Fatalf("observation %d diverges under the cache:\n  off: %+v\n  on:  %+v", i, off[i], on[i])
		}
	}
}

// srcFromFake adapts fakeObj into a Source for flight tests.
type srcFromFake struct{ f *fakeObj }

func (s srcFromFake) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, bool) {
	dets, _ := s.f.DetectCtx(ctx, v, labels)
	return dets, false
}

func TestFlightBindDropsDegradedAndError(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{})
	f := sh.ObjectFlight("fake", srcFromFake{fk})
	det := f.Bind(context.Background())
	if det.Name() != "fake" {
		t.Fatalf("Name = %q", det.Name())
	}
	dets := det.Detect(4, []annot.Label{"car"})
	if len(dets) != 1 || dets[0].Score != 4 {
		t.Fatalf("Detect = %v", dets)
	}
	fk.setErr(errors.New("boom"))
	if dets := det.Detect(5, []annot.Label{"car"}); dets != nil {
		t.Fatalf("failed call surfaced %v, want nil", dets)
	}
}

// TestFlightCoalescesAndClonesPerWaiter drives the facade's stack, a
// bound flight over the memo: concurrent sessions on one unit share one
// backend call and each gets its own copy.
func TestFlightCoalescesAndClonesPerWaiter(t *testing.T) {
	g := newGate()
	sh := MustNew(Config{})
	f := sh.ObjectFlight("gate", FallibleSource(sh.Object(g)))
	labels := []annot.Label{"car"}

	const n = 6
	results := make([][]detect.Detection, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.Bind(context.Background()).Detect(9, labels)
		}(i)
		if i == 0 {
			<-g.started
		}
	}
	awaitCoalesced(sh, n-1)
	close(g.release)
	wg.Wait()

	if g.calls.Load() != 1 {
		t.Fatalf("backend calls = %d, want 1", g.calls.Load())
	}
	for i := 0; i < n; i++ {
		if len(results[i]) != 1 || results[i][0].Score != 9 {
			t.Fatalf("waiter %d got %v", i, results[i])
		}
		for j := i + 1; j < n; j++ {
			if &results[i][0] == &results[j][0] {
				t.Fatalf("waiters %d and %d share a backing array", i, j)
			}
		}
	}
	st := sh.Stats()
	if st.Leaders != 1 || st.Coalesced != n-1 {
		t.Fatalf("leaders %d coalesced %d, want 1/%d", st.Leaders, st.Coalesced, n-1)
	}
}

func TestFlightWaiterCancellation(t *testing.T) {
	g := newGate()
	sh := MustNew(Config{})
	f := sh.ObjectFlight("gate", FallibleSource(sh.Object(g)))
	labels := []annot.Label{"car"}

	leaderOut := make(chan []detect.Detection, 1)
	go func() { leaderOut <- f.Bind(context.Background()).Detect(1, labels) }()
	<-g.started
	ctx, cancel := context.WithCancel(context.Background())
	waiterOut := make(chan []detect.Detection, 1)
	go func() { waiterOut <- f.Bind(ctx).Detect(1, labels) }()
	awaitCoalesced(sh, 1)
	cancel()
	if dets := <-waiterOut; dets != nil {
		t.Fatalf("cancelled waiter got %v, want nothing", dets)
	}
	close(g.release)
	if dets := <-leaderOut; len(dets) != 1 {
		t.Fatalf("leader starved by a cancelled waiter: %v", dets)
	}
}

func TestStatsAddAggregates(t *testing.T) {
	a := Stats{CacheHits: 1, CacheMisses: 2, Admitted: 3, Evicted: 4, DoorRejected: 5,
		Leaders: 6, Coalesced: 7, Batches: 8, BatchedUnits: 9}
	var agg Stats
	agg.Add(a)
	agg.Add(a)
	want := Stats{CacheHits: 2, CacheMisses: 4, Admitted: 6, Evicted: 8, DoorRejected: 10,
		Leaders: 12, Coalesced: 14, Batches: 16, BatchedUnits: 18}
	if agg != want {
		t.Fatalf("agg = %+v, want %+v", agg, want)
	}
}

// TestUnitKeyDistinguishesKindBackendUnit: entries differing in any of
// kind, backend, unit or label never serve each other.
func TestUnitKeyDistinguishesKindBackendUnit(t *testing.T) {
	m, n := &fakeObj{name: "m"}, &fakeObj{name: "n"}
	sh := MustNew(Config{CacheCapacity: 64})
	wm, wn := sh.Object(m), sh.Object(n)
	scene, _ := testScene(t)
	var meter detect.CostMeter
	wa := sh.Action(detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, &meter)))

	detectOK(t, wm, 1, "car")
	detectOK(t, wn, 1, "car")
	detectOK(t, wm, 2, "car")
	detectOK(t, wm, 1, "person")
	if _, err := wa.DetectCtx(context.Background(), 1, []annot.Label{"car"}); err != nil {
		t.Fatal(err)
	}
	if m.calls.Load() != 3 || n.calls.Load() != 1 || meter.Calls() != 1 {
		t.Fatalf("backend calls m=%d n=%d action=%d, want 3/1/1: a key collided", m.calls.Load(), n.calls.Load(), meter.Calls())
	}
	if sh.resident() != 5 {
		t.Fatalf("resident = %d, want 5 distinct entries", sh.resident())
	}
}

func TestSharedRaceSmoke(t *testing.T) {
	// Concurrent sessions over one domain: cache + dedup + batching all
	// active at once (run under -race in CI).
	scene, frames := testScene(t)
	if frames > 64 {
		frames = 64
	}
	sim := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	sh := MustNew(Config{CacheCapacity: 32, BatchWindow: time.Millisecond, BatchMax: 4})
	f := sh.ObjectFlight("m", FallibleSource(sh.Object(detect.AsFallibleObject(sim))))

	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			det := f.Bind(context.Background())
			for i := 0; i < frames; i++ {
				det.Detect(video.FrameIdx(i), []annot.Label{annot.Label(fmt.Sprintf("l%d", i%3))})
			}
		}(s)
	}
	wg.Wait()
	st := sh.Stats()
	if st.Leaders == 0 {
		t.Fatal("no flight activity recorded")
	}
}

func TestActionPathFullStack(t *testing.T) {
	scene, _ := testScene(t)
	var meter detect.CostMeter
	sim := detect.NewSimActionRecognizer(scene, detect.I3D, &meter)
	ref := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	sh := MustNew(Config{CacheCapacity: 16, BatchWindow: 5 * time.Millisecond, BatchMax: 8})
	if sh.Config().BatchMax != 8 {
		t.Fatalf("Config.BatchMax = %d", sh.Config().BatchMax)
	}
	f := sh.ActionFlight(sim.Name(), FallibleSource(sh.Action(detect.AsFallibleAction(sim))))
	rec := f.Bind(context.Background())
	if rec.Name() != sim.Name() {
		t.Fatalf("Name = %q, want %q", rec.Name(), sim.Name())
	}
	labels := []annot.Label{"blowing_leaves"}

	// Two concurrent shots ride one micro-batch; a repeat hits the cache.
	const n = 3
	got := make([][]detect.ActionScore, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = rec.Recognize(video.ShotIdx(i), labels)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		want := ref.Recognize(video.ShotIdx(i), labels)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("shot %d: %v != %v", i, got[i], want)
		}
	}
	callsAfterFirst := meter.Calls()
	repeat := rec.Recognize(0, labels)
	if !reflect.DeepEqual(repeat, got[0]) {
		t.Fatalf("cached repeat %v != first %v", repeat, got[0])
	}
	if meter.Calls() != callsAfterFirst {
		t.Fatalf("repeat reached the backend: %d -> %d calls", callsAfterFirst, meter.Calls())
	}
	st := sh.Stats()
	if st.CacheHits == 0 || st.BatchedUnits < n {
		t.Fatalf("stats %+v: want cache hits and >= %d batched units", st, n)
	}
	// A session already gone is still served what is resident, and
	// spends no inference on what is not.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := f.Bind(ctx)
	if got := dead.Recognize(0, labels); !reflect.DeepEqual(got, repeat) {
		t.Fatalf("resident shot for a dead session: %v", got)
	}
	calls := meter.Calls()
	if got := dead.Recognize(video.ShotIdx(n+1), labels); got != nil || meter.Calls() != calls {
		t.Fatalf("dead session filled shot %d: %v", n+1, got)
	}
}

func TestBatchShapeErrorMessage(t *testing.T) {
	if errBatchShape.Error() == "" {
		t.Fatal("empty error message")
	}
}

// TestBatchedPermutedLabelsKeepCallOrder: fills asking for the same
// labels in different orders inside one batch window each get the
// backend's result for their own order.
func TestBatchedPermutedLabelsKeepCallOrder(t *testing.T) {
	sh := MustNew(Config{BatchWindow: 20 * time.Millisecond, BatchMax: 8})
	wrapped := sh.Object(&fakeObj{name: "fake"})
	lists := [][]annot.Label{{"car", "person"}, {"person", "car"}}
	got := make([][]detect.Detection, len(lists))
	var wg sync.WaitGroup
	for i, ls := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = wrapped.DetectCtx(context.Background(), video.FrameIdx(i), ls)
		}()
	}
	wg.Wait()
	for i, ls := range lists {
		if want := perLabel(video.FrameIdx(i), ls); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%v: batched %v, backend %v", ls, got[i], want)
		}
	}
}
