package infer

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/resilience"
	"vaq/internal/synth"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// resident counts the memo's resident entries.
func (sh *Shared) resident() int {
	n := 0
	for i := range sh.shards {
		s := &sh.shards[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// perLabel is the backend contract the memo relies on: one detection
// per label, concatenated in call order, scored by the unit.
func perLabel(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	var out []detect.Detection
	for _, l := range labels {
		out = append(out, detect.Detection{Label: l, Score: float64(v)})
	}
	return out
}

// gateObj is a fallible object backend whose calls block until release
// is closed. Each call announces itself on started and records whether
// its context was cancelled by the time it was released.
type gateObj struct {
	calls     atomic.Int64
	started   chan struct{}
	release   chan struct{}
	cancelled atomic.Bool
}

func newGate() *gateObj {
	return &gateObj{started: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gateObj) Name() string { return "gate" }

func (g *gateObj) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	g.calls.Add(1)
	g.started <- struct{}{}
	<-g.release
	if ctx.Err() != nil {
		g.cancelled.Store(true)
	}
	return perLabel(v, labels), nil
}

// awaitCoalesced spins until n callers wait on fills in flight.
func awaitCoalesced(sh *Shared, n int64) {
	for sh.Stats().Coalesced < n {
		runtime.Gosched()
	}
}

func detectOK(t *testing.T, d detect.FallibleObjectDetector, v video.FrameIdx, labels ...annot.Label) []detect.Detection {
	t.Helper()
	dets, err := d.DetectCtx(context.Background(), v, labels)
	if err != nil {
		t.Fatal(err)
	}
	return dets
}

func TestCacheAdmitsDirectlyWhileFree(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 2})
	m := sh.Object(fk)
	detectOK(t, m, 1, "a")
	detectOK(t, m, 2, "a")
	detectOK(t, m, 1, "a")
	detectOK(t, m, 2, "a")
	if got := sh.resident(); got != 2 {
		t.Fatalf("resident = %d, want 2", got)
	}
	st := sh.Stats()
	if fk.calls.Load() != 2 || st.Admitted != 2 || st.Evicted != 0 || st.CacheHits != 2 {
		t.Fatalf("calls %d, stats %+v; want 2 calls, 2 admitted, 0 evicted, 2 hits", fk.calls.Load(), st)
	}
}

// TestCacheRefreshesExistingKey: a hit on a resident key refreshes its
// CLOCK reference bit and never refills it.
func TestCacheRefreshesExistingKey(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 1})
	m := sh.Object(fk)
	first := detectOK(t, m, 1, "a")
	if sh.shards[0].ring[0].ref {
		t.Fatal("fresh entry carries a reference bit")
	}
	second := detectOK(t, m, 1, "a")
	if !sh.shards[0].ring[0].ref {
		t.Fatal("hit did not refresh the reference bit")
	}
	if fk.calls.Load() != 1 || !reflect.DeepEqual(first, second) {
		t.Fatalf("calls %d, %v vs %v; want one fill served twice", fk.calls.Load(), first, second)
	}
	if got := sh.resident(); got != 1 {
		t.Fatalf("resident = %d, want 1", got)
	}
}

func TestCacheAdmitsOnFillUnderPressure(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 1})
	m := sh.Object(fk)
	detectOK(t, m, 1, "a")
	detectOK(t, m, 2, "a") // first fill under pressure: admitted, 1 evicted
	detectOK(t, m, 2, "a")
	if fk.calls.Load() != 2 {
		t.Fatalf("backend calls = %d, want 2 (unit 2 admitted on its first fill)", fk.calls.Load())
	}
	detectOK(t, m, 1, "a")
	if fk.calls.Load() != 3 {
		t.Fatalf("backend calls = %d, want 3 (unit 1 evicted)", fk.calls.Load())
	}
	if st := sh.Stats(); st.Evicted != 2 || st.DoorRejected != 0 {
		t.Fatalf("stats %+v, want 2 evicted, 0 door-rejected", st)
	}
}

func TestCacheSecondChanceSparesReferenced(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 2})
	m := sh.Object(fk)
	detectOK(t, m, 1, "a")
	detectOK(t, m, 2, "a")
	detectOK(t, m, 1, "a") // reference bit for unit 1
	detectOK(t, m, 3, "a") // evicts unit 2, the entry without a second chance
	calls := fk.calls.Load()
	detectOK(t, m, 1, "a")
	detectOK(t, m, 3, "a")
	if fk.calls.Load() != calls {
		t.Fatal("referenced unit 1 or the new unit 3 was not resident")
	}
	detectOK(t, m, 2, "a")
	if fk.calls.Load() != calls+1 {
		t.Fatal("unreferenced unit 2 survived the clock scan")
	}
}

// TestCacheTraceCountersMirrorStats pins the /varz side of the
// admission flow: the tracer counters must move in lockstep with the
// atomics Stats() reads, or the two surfaces silently disagree.
func TestCacheTraceCountersMirrorStats(t *testing.T) {
	tr := trace.New()
	sh := MustNew(Config{CacheCapacity: 1, Tracer: tr})
	m := sh.Object(&fakeObj{name: "fake"})
	detectOK(t, m, 1, "a") // admit
	detectOK(t, m, 2, "a") // admit + evict unit 1
	detectOK(t, m, 2, "a") // hit
	st := sh.Stats()
	if st.Admitted != 2 || st.Evicted != 1 || st.CacheHits != 1 || st.CacheMisses != 2 || st.Leaders != 3 {
		t.Fatalf("stats = %+v, want admitted 2, evicted 1, 1 hit, 2 misses, 3 leaders", st)
	}
	for name, want := range map[string]int64{
		"infer.cache_admitted":      st.Admitted,
		"infer.cache_evicted":       st.Evicted,
		"infer.cache_door_rejected": st.DoorRejected,
		"infer.cache_hits":          st.CacheHits,
		"infer.cache_misses":        st.CacheMisses,
		"infer.flight_leaders":      st.Leaders,
	} {
		if got := tr.Counter(name).Value(); got != want {
			t.Errorf("counter %s = %d, stats say %d", name, got, want)
		}
	}
}

func TestCacheBoundedAtCapacity(t *testing.T) {
	for _, capacity := range []int{4, memoShards * 256} {
		sh := MustNew(Config{CacheCapacity: capacity})
		m := sh.Object(&fakeObj{name: "fake"})
		for i := 0; i < 3*capacity; i++ {
			detectOK(t, m, video.FrameIdx(i), "a", "b")
		}
		if got := sh.resident(); got != capacity {
			t.Fatalf("capacity %d: resident = %d", capacity, got)
		}
		for i := range sh.shards {
			s := &sh.shards[i]
			if n := indexed(s); n != len(s.ring) || len(s.ring) > s.cap || len(s.flights) != 0 {
				t.Fatalf("capacity %d shard %d: %d indexed, %d resident, %d in flight, cap %d",
					capacity, i, n, len(s.ring), len(s.flights), s.cap)
			}
		}
	}
}

// indexed counts the keys s's index holds.
func indexed(s *memoShard) int {
	n := 0
	for _, x := range s.index {
		if x != 0 {
			n++
		}
	}
	return n
}

func TestGroupCoalescesConcurrentCallers(t *testing.T) {
	g := newGate()
	sh := MustNew(Config{CacheCapacity: 16})
	m := sh.Object(g)
	const n = 5
	results := make([][]detect.Detection, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = m.DetectCtx(context.Background(), 9, []annot.Label{"car"})
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
	for i := range results {
		if !reflect.DeepEqual(results[i], perLabel(9, []annot.Label{"car"})) {
			t.Fatalf("caller %d got %v", i, results[i])
		}
		for j := i + 1; j < n; j++ {
			if &results[i][0] == &results[j][0] {
				t.Fatalf("callers %d and %d share a backing array", i, j)
			}
		}
	}
	if st := sh.Stats(); st.Leaders != 1 || st.Coalesced != n-1 || st.CacheMisses != 1 {
		t.Fatalf("stats %+v, want 1 leader, %d coalesced, 1 miss", st, n-1)
	}
}

func TestGroupWaiterCancelLeavesSharedCallRunning(t *testing.T) {
	g := newGate()
	sh := MustNew(Config{})
	m := sh.Object(g)
	leaderOut := make(chan []detect.Detection, 1)
	go func() {
		dets, _ := m.DetectCtx(context.Background(), 7, []annot.Label{"car"})
		leaderOut <- dets
	}()
	<-g.started

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := m.DetectCtx(ctx, 7, []annot.Label{"car"})
		waiterErr <- err
	}()
	awaitCoalesced(sh, 1)
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(g.release)
	if dets := <-leaderOut; len(dets) != 1 || dets[0].Score != 7 {
		t.Fatalf("leader got %v", dets)
	}
	if g.cancelled.Load() {
		t.Fatal("the fill saw a cancelled context")
	}
}

// TestGroupLeaderFinishesOwnFill: a leader whose ctx ends mid-fill still
// completes the fill (on a context without its cancellation), returns
// the result, and leaves it resident for the next caller.
func TestGroupLeaderFinishesOwnFill(t *testing.T) {
	g := newGate()
	sh := MustNew(Config{CacheCapacity: 16})
	m := sh.Object(g)
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		dets []detect.Detection
		err  error
	}
	out := make(chan res, 1)
	go func() {
		dets, err := m.DetectCtx(ctx, 3, []annot.Label{"car"})
		out <- res{dets, err}
	}()
	<-g.started
	cancel()
	close(g.release)
	r := <-out
	if r.err != nil || len(r.dets) != 1 {
		t.Fatalf("leader got %v, %v; want its own fill", r.dets, r.err)
	}
	if g.cancelled.Load() {
		t.Fatal("the leader's cancellation reached its fill")
	}
	if dets := detectOK(t, m, 3, "car"); !reflect.DeepEqual(dets, r.dets) || g.calls.Load() != 1 {
		t.Fatalf("next caller got %v after %d calls; want the resident fill", dets, g.calls.Load())
	}
	// A caller already gone when it would have to fill spends nothing.
	if _, err := m.DetectCtx(ctx, 4, []annot.Label{"car"}); !errors.Is(err, context.Canceled) || g.calls.Load() != 1 {
		t.Fatalf("dead caller: err %v, %d calls", err, g.calls.Load())
	}
}

func TestGroupKeyReusableAfterCompletion(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{}) // dedup only: nothing stays resident
	m := sh.Object(fk)
	for i := 0; i < 3; i++ {
		detectOK(t, m, 1, "a")
	}
	if st := sh.Stats(); fk.calls.Load() != 3 || st.Coalesced != 0 || st.CacheMisses != 3 || sh.resident() != 0 {
		t.Fatalf("calls %d, stats %+v: sequential calls never coalesce and nothing stays", fk.calls.Load(), st)
	}
}

// TestMemoMultiLabelServedPerLabel: a multi-label fill leaves one entry
// per label, and any later label list over them, in any order and with
// repeats, is served without the backend and equals the direct call.
func TestMemoMultiLabelServedPerLabel(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 16})
	m := sh.Object(fk)
	detectOK(t, m, 2, "car", "person", "dog")
	for _, ls := range [][]annot.Label{{"person"}, {"dog", "car"}, {"car", "car"}, {"person", "dog", "car"}} {
		if got := detectOK(t, m, 2, ls...); !reflect.DeepEqual(got, perLabel(2, ls)) {
			t.Fatalf("%v: got %v", ls, got)
		}
	}
	// A partial hit fills only the missing label, in one backend call.
	if got := detectOK(t, m, 2, "dog", "cup", "car"); !reflect.DeepEqual(got, perLabel(2, []annot.Label{"dog", "cup", "car"})) {
		t.Fatalf("partial hit got %v", got)
	}
	if st := sh.Stats(); fk.calls.Load() != 2 || st.CacheMisses != 2 || st.CacheHits != 4 {
		t.Fatalf("calls %d, stats %+v; want 2 backend calls and 4 hits", fk.calls.Load(), st)
	}
	if sh.resident() != 4 {
		t.Fatalf("resident = %d, want one entry per label", sh.resident())
	}
}

// TestMemoConcurrentFillReadNoRace overlaps fills, hits, evictions and
// reads of the same few keys (run under -race): values are read under
// the shard lock, and every caller gets what the backend would return.
func TestMemoConcurrentFillReadNoRace(t *testing.T) {
	fk := &fakeObj{name: "fake"}
	sh := MustNew(Config{CacheCapacity: 3})
	m := sh.Object(fk)
	lists := [][]annot.Label{{"a"}, {"b"}, {"a", "b"}, {"b", "a"}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v, ls := video.FrameIdx((g+i)%5), lists[(g*7+i)%len(lists)]
				dets, err := m.DetectCtx(context.Background(), v, ls)
				if err != nil || !reflect.DeepEqual(dets, perLabel(v, ls)) {
					t.Errorf("unit %d %v: %v, %v", v, ls, dets, err)
					return
				}
				dets[0].Track = g // engines mutate what they get
			}
		}(g)
	}
	wg.Wait()
	if st := sh.Stats(); st.CacheMisses != fk.calls.Load() {
		t.Fatalf("%d misses for %d backend calls", st.CacheMisses, fk.calls.Load())
	}
}

var allocSink []detect.Detection

// allocObj allocates exactly its result, like a real backend.
type allocObj struct{}

func (allocObj) Name() string       { return "alloc" }
func (allocObj) InfallibleBackend() {}
func (allocObj) DetectCtx(_ context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	return []detect.Detection{{Label: labels[0], Score: float64(v)}}, nil
}

// TestMemoAllocs pins the per-call allocation budget through a bound
// detector over resilience over the memo (the default vaqd stack): a
// warm hit allocates only the caller's copy, and so does a miss beyond
// the backend's own allocation. The binding's uncancellable twin, the
// ring slot and the reused flight cost a miss nothing.
func TestMemoAllocs(t *testing.T) {
	sh := MustNew(Config{CacheCapacity: 1 << 16})
	res := resilience.NewDetector(sh.Object(allocObj{}), resilience.DefaultPolicy(), resilience.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	det := sh.ObjectFlight("alloc", res).Bind(ctx)
	labels := []annot.Label{"car"}
	var direct detect.FallibleObjectDetector = allocObj{}
	backend := testing.AllocsPerRun(200, func() { allocSink, _ = direct.DetectCtx(ctx, 1, labels) })
	unit := 0
	miss := testing.AllocsPerRun(2000, func() {
		unit++
		det.Detect(video.FrameIdx(unit), labels)
	})
	if miss-backend > 1 {
		t.Errorf("miss: %v allocs beyond the backend's %v, want <= 1", miss-backend, backend)
	}
	hit := testing.AllocsPerRun(2000, func() { det.Detect(5, labels) })
	t.Logf("allocs per call: backend %v, miss %v, warm hit %v", backend, miss, hit)
	if hit > 1 {
		t.Errorf("warm hit: %v allocs, want <= 1", hit)
	}
}

// countingObj is the fuzzed backend: a simulator that counts its calls,
// optionally reorders its result by score (breaking the per-label
// contract), and checks, on every call the memo fills, that each label
// it is asked for is in flight, never resident (a key is filled once).
type countingObj struct {
	sim     *detect.SimObjectDetector
	sh      *Shared
	byScore bool
	concat  bool // the memo sees the PerLabelConcat marker (concatObj)
	calls   atomic.Int64
	bad     atomic.Int64
}

// concatObj declares the per-label contract of the countingObj it wraps.
type concatObj struct{ *countingObj }

func (concatObj) PerLabelConcat() {}

func (c *countingObj) Name() string { return "count" }

func (c *countingObj) DetectCtx(_ context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	c.calls.Add(1)
	if c.concat || len(labels) == 1 {
		id := c.sh.intern("o" + c.Name())
		var keys []memoKey
		for _, l := range labels {
			keys = append(keys, memoKey{unit: int64(v), backend: id, label: c.sh.intern(string(l))})
		}
		s := c.sh.shard(int64(v))
		s.mu.Lock()
		for _, k := range keys {
			if s.flights[k] == nil || s.find(k) >= 0 {
				c.bad.Add(1)
			}
		}
		s.mu.Unlock()
	}
	runtime.Gosched() // widen the window in which others find the fill in flight
	return c.result(v, labels), nil
}

func (c *countingObj) result(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	dets := c.sim.Detect(v, labels)
	if c.byScore {
		sort.SliceStable(dets, func(i, j int) bool { return dets[i].Score > dets[j].Score })
	}
	return dets
}

// FuzzMemo runs random sequences of single- and multi-label calls (with
// repeated labels) on a few units, some concurrent and some on contexts
// cancelled before or during the call, over a small memo, and over a
// backend that either keeps the per-label contract or orders its result
// by score without declaring it. Every call that returns a result must
// equal the direct backend call; backend calls must equal recorded
// misses; and no key may be filled while resident.
func FuzzMemo(f *testing.F) {
	qs, err := synth.YouTubeScaled("q2", video.DefaultGeometry(), 0.05)
	if err != nil {
		f.Fatal(err)
	}
	scene := qs.World.Scene()
	labels := []annot.Label{"car", "person", "dog", "cup"}
	f.Add([]byte{2, 0, 1, 0, 3, 7, 1, 9, 2, 4, 1, 6})
	f.Add([]byte{0, 5, 255, 3, 17, 4, 4, 4, 200, 1, 2, 3})
	f.Add([]byte{7, 1, 1, 2, 1, 1, 2, 130, 130, 6, 33, 66, 7})
	f.Add([]byte{11, 1, 3, 0, 1, 2, 0, 1, 3, 1, 17, 7, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := MustNew(Config{CacheCapacity: int(data[0] % 8)})
		backend := &countingObj{sim: detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil), sh: sh}
		direct := &countingObj{sim: detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)}
		var m detect.FallibleObjectDetector
		if data[0]&8 != 0 {
			backend.byScore, direct.byScore = true, true
			m = sh.Object(backend)
		} else {
			backend.concat = true
			m = sh.Object(concatObj{backend})
		}
		var wg sync.WaitGroup
		for ops, rest := 0, data[1:]; ops < 64 && len(rest) >= 3; ops, rest = ops+1, rest[3:] {
			a, b, mode := rest[0], rest[1], rest[2]
			v := video.FrameIdx(a % 5)
			var ls []annot.Label
			for i := 0; i <= int(b%4); i++ {
				ls = append(ls, labels[(int(b>>2)+i*int(a>>4|1))%len(labels)])
			}
			ctx, cancel := context.WithCancel(context.Background())
			if mode&4 != 0 {
				cancel() // gone before the call
			}
			call := func() {
				defer cancel()
				dets, err := m.DetectCtx(ctx, v, ls)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("unit %d %v: %v", v, ls, err)
					}
					return
				}
				if want := direct.result(v, ls); !reflect.DeepEqual(dets, want) {
					t.Errorf("unit %d %v: memo %v, backend %v", v, ls, dets, want)
				}
			}
			if mode&1 == 0 {
				call()
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); call() }()
			if mode&2 != 0 {
				cancel() // leaves while it may be waiting or filling
			}
		}
		wg.Wait()
		if st := sh.Stats(); st.CacheMisses != backend.calls.Load() {
			t.Fatalf("%d backend calls for %d recorded misses", backend.calls.Load(), st.CacheMisses)
		}
		if n := backend.bad.Load(); n != 0 {
			t.Fatalf("%d labels filled without being in flight, or while resident", n)
		}
	})
}
