package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vaq"
	"vaq/internal/annot"
	"vaq/internal/api"
	"vaq/internal/bgprob"
	"vaq/internal/detect"
	"vaq/internal/explain"
	"vaq/internal/fault"
	"vaq/internal/infer"
	"vaq/internal/ingest"
	"vaq/internal/pool"
	"vaq/internal/quantile"
	"vaq/internal/resilience"
	"vaq/internal/rvaq"
	"vaq/internal/scanstat"
	"vaq/internal/synth"
	"vaq/internal/tables"
	"vaq/internal/trace"
	"vaq/internal/video"
	"vaq/internal/vql"
)

// The traced run. It replays the workload at reduced size with spans
// off and on — the ratio is bench.trace_overhead_ratio — and then
// measures every layer from outside: by timing calls into exported
// functions, by the count+busy shims of trace.go, or by differences
// between adjacent stacks built from the exported constructors. It
// reports the per-layer metrics only; end-to-end metrics always come
// from the untraced run.

// perWorkload reports whether a per-layer metric describes the replayed
// workload (the proc.* and bench.* readings) rather than a layer: the
// layer probes below do not depend on the workload.
func perWorkload(metric string) bool {
	return strings.HasPrefix(metric, "proc.") || strings.HasPrefix(metric, "bench.")
}

// tracedDefs are the metrics a traced run reports: every per-layer
// metric, or without the probes only the perWorkload ones.
func tracedDefs(probes bool) []metricDef {
	if probes {
		return perLayer
	}
	var out []metricDef
	for _, d := range perLayer {
		if perWorkload(d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// sink keeps measured results alive so the compiler cannot drop the
// calls that produced them.
var sink any

// nsPerOp times n calls of fn and returns the median ns/op of three
// passes plus the allocations per op of the last pass. setup, when
// non-nil, runs untimed before each pass.
func nsPerOp(n int, setup func(), fn func(i int)) (ns, allocs float64) {
	var passes []float64
	var ms0, ms1 runtime.MemStats
	for p := 0; p < 3; p++ {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		passes = append(passes, float64(d)/float64(n))
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	return median(passes), allocs
}

// runTraced makes the traced run. With probes false it stops after the
// workload's own replay and reports only the perWorkload metrics:
// -workload all probes the layers once, not once per workload.
func (e *runEnv) runTraced(outDir string, probes bool) (map[string]float64, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	goroutines0 := runtime.NumGoroutine()
	began := time.Now()
	m := map[string]float64{}

	// One set-up serves the replay and every probe: corpus, timed ingest,
	// a single deployment and a sharded one over the same ingested videos.
	e.rec = newRecorder()
	c, err := newCorpus(e.sz)
	if err != nil {
		return nil, err
	}
	is, err := c.ingest(e.rec, true)
	if err != nil {
		return nil, err
	}
	single, _, err := deploy(c, deploySingle, e.sz.once(), e.tmp, e.rec)
	if err != nil {
		return nil, err
	}
	defer single.stop()
	sharded, _, err := deploy(c, deploySharded, e.sz.once(), e.tmp, e.rec)
	if err != nil {
		return nil, err
	}
	defer sharded.stop()
	pinned, global, err := topkCases(c)
	if err != nil {
		return nil, err
	}

	if err := e.replayPairs(c, single, sharded, pinned, global, m); err != nil {
		return nil, err
	}
	// Process-level readings cover the set-up and the workload's replay,
	// so they read the same with and without the probes that follow.
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m["proc.alloc_mb_per_s"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / time.Since(began).Seconds()
	m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["proc.peak_rss_mb"] = peakRSSMB()

	if probes {
		m["ingest.video_ms"] = median(is.videoMS)
		e.probeOnline(m)
		if err := e.probeServer(single, m); err != nil {
			return nil, err
		}
		e.probeMath(m)
		e.probeLadder(m)
		e.probeSmall(m)
		if err := e.probeTopK(c, single, sharded, pinned, global, m); err != nil {
			return nil, err
		}
		if err := e.probeTables(c, single, m); err != nil {
			return nil, err
		}
		if err := e.probeIngest(c, m); err != nil {
			return nil, err
		}
	}

	totals, err := e.rec.write(filepath.Join(outDir, "trace_"+e.workload+".json"), e.workload, e.seed)
	if err != nil {
		e.ops.fail(fmt.Errorf("span check: %w", err))
	} else {
		e.ops.ok()
		for _, name := range sortedKeys(totals) {
			e.notes["span."+name+".count"] = float64(totals[name].Count)
			e.notes["span."+name+".self_ms"] = float64(totals[name].SelfNS) / 1e6
		}
	}

	// Once every server is down, the goroutines they started are gone.
	sharded.stop()
	single.stop()
	m["proc.goroutines_end"] = float64(settledGoroutines(goroutines0))
	e.notes["goroutines_start"] = float64(goroutines0)
	return m, nil
}

// settledGoroutines waits briefly for goroutines of stopped servers and
// closed connections to exit and returns the count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// replayPairs replays the workload's own traffic at reduced size with
// spans off and with spans on, twice in alternating order (off-on, then
// on-off), and reports the mean traced ÷ untraced cost of the workload's
// headline metric as bench.trace_overhead_ratio. Whatever the first
// replay of a pair pays for warming the servers up, the other pair pays
// on the other side: with a fixed off-on order the ratio read 0.79 on
// online_solo, the traced replay being the faster, second one.
func (e *runEnv) replayPairs(c *corpus, single, sharded *deployment, pinned, global []topkCase, m map[string]float64) error {
	budget := e.budget(0.075)
	replay := func(r *recorder) (cost float64, err error) { // cost: lower is better
		switch e.workload {
		case "online_solo":
			st := soloPhase(single.url, e.sz.SoloScale/2, budget, e.clients, e.seed, &e.oracle, &e.ops, r)
			return 1 / st.clipsPerS(), nil
		case "online_shared":
			spec := sessionSpec{corpusWorkload, e.sz.SharedScale / 4}
			st := sharedPhase(single.url, spec, e.sz.SharedSessions, budget, &e.oracle, &e.ops, r)
			return 1 / st.clipsPerS(), nil
		case "topk_single", "topk_sharded":
			url := single.url
			if e.workload == "topk_sharded" {
				url = sharded.url
			}
			v := topkPhase(pinned, httpIssuer(url), budget/2, e.clients, e.seed, "video", &e.ops, r)
			g := topkPhase(global, httpIssuer(url), budget/2, e.clients, e.seed, "global", &e.ops, r)
			if len(v.latUS) == 0 || len(g.latUS) == 0 {
				return 0, fmt.Errorf("replay: no successful top-k request (%v)", e.ops.firstErrs)
			}
			return percentile(v.latUS, 50), nil
		default: // ingest_repo: half the videos, then the whole repository
			half := *c
			half.videos = c.videos[:(len(c.videos)+1)/2]
			is, err := half.ingest(r, r != nil)
			if err != nil {
				return 0, err
			}
			d, _, err := deploy(c, deployRepoOnly, e.sz.once(), e.tmp, r)
			if err != nil {
				return 0, err
			}
			issue := facadeIssuer(d.repo(), vaq.ExecOptions{})
			topkPhase(pinned, issue, budget/4, e.clients, e.seed, "video", &e.ops, r)
			topkPhase(global, issue, budget/4, e.clients, e.seed, "global", &e.ops, r)
			d.stop()
			return is.wallS, nil
		}
	}
	var ratios []float64
	for _, tracedFirst := range []bool{false, true} {
		var cost [2]float64 // untraced, traced
		for _, traced := range []bool{tracedFirst, !tracedFirst} {
			r, i := (*recorder)(nil), 0
			if traced {
				r, i = e.rec, 1
			}
			var err error
			if cost[i], err = replay(r); err != nil {
				return err
			}
		}
		ratios = append(ratios, cost[1]/cost[0])
	}
	m["bench.trace_overhead_ratio"] = median(ratios)
	return nil
}

// probeOnline measures the engine below the server: C goroutines call
// Stream.ProcessClip over the online_solo streams with the raw sims
// behind timed shims, then once more with the planner at rate 4.
func (e *runEnv) probeOnline(m map[string]float64) {
	if err := e.oracle.prepare(soloSpecs(e.sz.SoloScale)...); err != nil {
		e.ops.fail(err)
	}
	type directRun struct {
		clipUS             []float64 // per ProcessClip call
		clips, invocations int
		wall               time.Duration
		objB, actB         busy
	}
	run := func(planRate int, spanName string) *directRun {
		r := &directRun{}
		specs := make(chan sessionSpec, 16) // holds one round: the 12 Table 1 sets
		for _, s := range soloSpecs(e.sz.SoloScale) {
			specs <- s
		}
		close(specs)
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < e.clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range specs {
					st, n, err := directStream(s, &r.objB, &r.actB, true, planRate)
					if err != nil {
						e.ops.fail(err)
						continue
					}
					root := e.rec.root(spanName)
					lat := make([]float64, 0, n)
					for c := 0; c < n; c++ {
						sp := root.child("svaq.process_clip")
						t := time.Now()
						_, err := st.ProcessClip(c)
						lat = append(lat, float64(time.Since(t))/float64(time.Microsecond))
						sp.end()
						if err != nil {
							e.ops.fail(err)
							break
						}
					}
					root.end()
					if planRate == 0 { // the dense run is the oracle's own configuration
						want, err := e.oracle.expect(s)
						if err != nil || !slices.Equal(api.Ranges(st.Results()), want) {
							e.ops.fail(fmt.Errorf("direct stream %s differs from the oracle run", s.workload))
						} else {
							e.ops.ok()
						}
					}
					mu.Lock()
					r.clipUS = append(r.clipUS, lat...)
					r.clips += n
					r.invocations += st.Invocations()
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		r.wall = time.Since(start)
		sort.Float64s(r.clipUS)
		return r
	}

	dense := run(0, "svaq.stream")
	totalUS := 0.0
	for _, l := range dense.clipUS {
		totalUS += l
	}
	objCalls, objNS := dense.objB.snapshot()
	actCalls, actNS := dense.actB.snapshot()
	detUS := float64(objNS+actNS) / 1000
	m["svaq.direct_clips_per_s"] = float64(dense.clips) / dense.wall.Seconds()
	m["svaq.clip_p50_us"] = percentile(dense.clipUS, 50)
	m["svaq.clip_p99_us"] = percentile(dense.clipUS, 99)
	m["svaq.self_us_per_clip"] = (totalUS - detUS) / float64(dense.clips)
	m["svaq.invocations_per_clip"] = float64(dense.invocations) / float64(dense.clips)
	m["detect.object_call_ns"] = float64(objNS) / float64(objCalls)
	m["detect.action_call_ns"] = float64(actNS) / float64(actCalls)
	m["detect.busy_share"] = detUS / totalUS

	planned := run(4, "plan.stream")
	m["plan.clip_p50_us"] = percentile(planned.clipUS, 50)
	m["plan.invocations_per_clip"] = float64(planned.invocations) / float64(planned.clips)
}

// probeServer prices the serving layer over the engine: the same
// sessions through a server without the infer layer, session creation,
// status polling against a running session, and — from a shared round
// on the default server — the infer layer's own counters.
func (e *runEnv) probeServer(single *deployment, m map[string]float64) error {
	cfg := vaqdConfig(nil)
	cfg.SharedInference = false
	plain := startNode(cfg)
	st := soloPhase(plain.ts.URL, e.sz.SoloScale, 0, e.clients, e.seed, &e.oracle, &e.ops, e.rec)
	if st.clips == 0 {
		plain.stop()
		return fmt.Errorf("plain server: no session completed (%v)", e.ops.firstErrs)
	}
	m["server.plain_clips_per_s"] = st.clipsPerS()
	m["server.session_overhead_ratio"] = m["svaq.direct_clips_per_s"] / st.clipsPerS()
	m["server.session_create_ms"] = median(st.createMS)

	// Poll a running session's results (no wait) every 2 ms.
	var polls []float64
	pollBudget := e.budget(0.2)
	pollStart := time.Now()
	for time.Since(pollStart) < pollBudget {
		body, _ := json.Marshal(api.CreateSessionRequest{Workload: corpusWorkload, Scale: e.sz.SharedScale})
		var info api.SessionInfo
		if _, err := doJSON(http.MethodPost, plain.ts.URL+"/v1/sessions", body, &info); err != nil {
			e.ops.fail(err)
			break
		}
		for {
			var res api.ResultsResponse
			sp := e.rec.root("server.http_poll")
			d, err := doJSON(http.MethodGet, plain.ts.URL+"/v1/sessions/"+info.ID+"/results", nil, &res)
			sp.end()
			if err != nil {
				e.ops.fail(err)
				break
			}
			polls = append(polls, float64(d)/float64(time.Microsecond))
			if res.State != "running" {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if _, err := doJSON(http.MethodDelete, plain.ts.URL+"/v1/sessions/"+info.ID, nil, nil); err != nil {
			e.ops.fail(err)
		}
	}
	plain.stop()
	if len(polls) == 0 {
		return fmt.Errorf("no poll succeeded (%v)", e.ops.firstErrs)
	}
	sort.Float64s(polls)
	m["server.poll_p50_us"] = percentile(polls, 50)
	m["server.poll_p99_us"] = percentile(polls, 99)
	e.notes["server_poll_samples"] = float64(len(polls))

	// One shared round on the default server, read back from /metricsz.
	before, err := inferenceStats(single.url)
	if err != nil {
		return err
	}
	sharedPhase(single.url, sessionSpec{corpusWorkload, e.sz.SharedScale}, e.sz.SharedSessions, 0, &e.oracle, &e.ops, e.rec)
	after, err := inferenceStats(single.url)
	if err != nil {
		return err
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		m["infer.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	} else {
		m["infer.cache_hit_ratio"] = 0
	}
	m["infer.door_rejected"] = float64(after.DoorRejected - before.DoorRejected)
	m["infer.evicted"] = float64(after.Evicted - before.Evicted)
	m["infer.coalesced"] = float64(after.Coalesced - before.Coalesced)
	return nil
}

// probeMath times the pure computations under the online engine over
// the parameter grid the workloads visit, and the VQL front end over
// the statements the top-k streams send.
func (e *runEnv) probeMath(m map[string]float64) {
	var grid []scanstat.Params
	for _, w := range []int{50, 5} { // frames per clip, shots per clip
		for _, p := range []float64{1e-4, 1e-3, 0.01, 0.03, 0.1} {
			grid = append(grid, scanstat.Params{P: p, W: w, N: w * 2000})
		}
	}
	n := max(e.sz.TracedLayerIter/20, len(grid))
	ns, _ := nsPerOp(n, nil, func(i int) {
		k, err := scanstat.CriticalValue(grid[i%len(grid)], 0.05)
		// A noisy background with a short window may have no critical
		// value; the engine then requires a full window (criticalOrMax).
		if err != nil && !errors.Is(err, scanstat.ErrNoCriticalValue) {
			panic(err) // the grid is fixed and valid
		}
		sink = k
	})
	m["scanstat.critical_value_us"] = ns / 1000

	est, err := bgprob.New(4000, 1e-4)
	if err != nil {
		panic(err) // fixed, valid parameters
	}
	ns, _ = nsPerOp(e.sz.TracedLayerIter*10, nil, func(i int) { est.Observe(i%37 == 0) })
	m["bgprob.observe_ns"] = ns

	q2 := vaq.Query{Action: "blowing_leaves", Objects: []vaq.Label{"car", "plant"}}
	var stmts []string
	for _, q := range labelSets(q2) {
		for _, k := range topkKs {
			stmts = append(stmts, rankedVQL(q, k))
		}
	}
	ns, _ = nsPerOp(max(e.sz.TracedLayerIter/10, len(stmts)), nil, func(i int) {
		p, err := vql.ParseAndCompile(stmts[i%len(stmts)])
		if err != nil {
			panic(err) // the statements are the ones the servers accept
		}
		sink = p
	})
	m["vql.parse_us"] = ns / 1000
}

// probeLadder prices each wrapper of the detector call chain by calling
// one fixed unit sequence of q2 through adjacent stacks: bare, then
// +resilience, +fault (armed with an episode that never matches),
// +the infer cache cold and warm, +the dedup flight. Each rung's metric
// is its difference to the rung below, in ns/op and allocs/op.
func (e *runEnv) probeLadder(m map[string]float64) {
	qs, err := synth.YouTubeScaled(corpusWorkload, vaq.DefaultGeometry(), 1)
	if err != nil {
		panic(err) // q2 is a fixed, valid workload
	}
	scene := qs.World.Scene()
	n := min(e.sz.TracedLayerIter, qs.World.Truth.Meta.Frames)
	labels := []annot.Label{"car"}
	ctx := context.Background()
	newSims := func() (detect.FallibleObjectDetector, detect.FallibleActionRecognizer) {
		return detect.AsFallibleObject(detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)),
			detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil))
	}
	never := fault.Schedule{Seed: 1, Episodes: []fault.Episode{{Kind: fault.Error, Lo: 1 << 40, Hi: 1<<40 + 1, Rate: 1}}}
	pol := resilience.DefaultPolicy()
	pol.Seed = 1

	fdet, frec := newSims()
	bareNS, bareAllocs := nsPerOp(n, nil, func(i int) {
		d, _ := fdet.DetectCtx(ctx, video.FrameIdx(i), labels)
		sink = d
	})
	res := resilience.WrapFallible(fdet, frec, pol, resilience.Options{})
	resNS, resAllocs := nsPerOp(n, nil, func(i int) {
		d, _ := res.Det.DetectCtx(ctx, video.FrameIdx(i), labels)
		sink = d
	})
	flt := resilience.WrapFallible(fault.NewObject(fdet, never), fault.NewAction(frec, never), pol, resilience.Options{})
	fltNS, fltAllocs := nsPerOp(n, nil, func(i int) {
		d, _ := flt.Det.DetectCtx(ctx, video.FrameIdx(i), labels)
		sink = d
	})
	// Cache rungs: a fresh domain per cold pass so every call misses;
	// the warm pass re-reads the units the cold pass admitted.
	var stack *resilience.Models
	var sh *infer.Shared
	build := func() {
		sh = infer.MustNew(infer.Config{CacheCapacity: 65536})
		stack = resilience.WrapFallible(fault.NewObject(sh.Object(fdet), never), fault.NewAction(sh.Action(frec), never), pol, resilience.Options{})
	}
	n = min(n, 60000) // stay under the cache capacity: no eviction in the ladder
	call := func(i int) {
		d, _ := stack.Det.DetectCtx(ctx, video.FrameIdx(i), labels)
		sink = d
	}
	missNS, missAllocs := nsPerOp(n, build, call)
	hitNS, hitAllocs := nsPerOp(n, nil, call)
	flight := sh.ObjectFlight(stack.Det.Name(), stack.Det).Bind(ctx)
	dedupNS, dedupAllocs := nsPerOp(n, nil, func(i int) { sink = flight.Detect(video.FrameIdx(i), labels) })

	wrappers := fltNS - bareNS // what sits above the cache on every call
	m["resilience.wrap_ns"], m["resilience.wrap_allocs"] = resNS-bareNS, resAllocs-bareAllocs
	m["fault.wrap_ns"], m["fault.wrap_allocs"] = fltNS-resNS, fltAllocs-resAllocs
	m["infer.cache_miss_ns"], m["infer.cache_miss_allocs"] = missNS-fltNS, missAllocs-fltAllocs
	m["infer.cache_hit_ns"], m["infer.cache_hit_allocs"] = hitNS-wrappers, hitAllocs-(fltAllocs-bareAllocs)
	m["infer.dedup_ns"], m["infer.dedup_allocs"] = dedupNS-hitNS, dedupAllocs-hitAllocs
	e.notes["ladder_bare_ns"] = bareNS
	e.notes["ladder_units"] = float64(n)
}

// probeSmall times the small shared utilities by direct calls.
func (e *runEnv) probeSmall(m map[string]float64) {
	n := e.sz.TracedLayerIter * 10
	ctx := context.Background()
	p := pool.New(0)
	noop := func() error { return nil }
	ns, _ := nsPerOp(n, nil, func(int) {
		if err := p.Do(ctx, noop); err != nil {
			panic(err) // a background context never expires
		}
	})
	m["pool.do_ns"] = ns

	sk := quantile.New()
	ns, _ = nsPerOp(n, nil, func(i int) { sk.Observe(float64(i%1009) * 1.5) })
	m["quantile.observe_ns"] = ns

	tr := trace.New()
	ns, _ = nsPerOp(n, nil, func(int) { tr.StartSpan("bench.probe", 0).End() })
	m["trace.span_ns"] = ns

	resp := api.TopKResponse{RuntimeUS: 812, CPURuntimeUS: 812, RandomAccesses: 399, Candidates: 18}
	for i := 0; i < 20; i++ {
		resp.Results = append(resp.Results, api.TopKEntry{Video: "v07", Seq: api.Range{Lo: 100 * i, Hi: 100*i + 17}, Score: 41.25 / float64(i+1)})
	}
	ns, _ = nsPerOp(max(n/100, 10), nil, func(int) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ") // as the servers write it
		var back api.TopKResponse
		if err := enc.Encode(resp); err != nil {
			panic(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			panic(err)
		}
		sink = back
	})
	m["api.topk_json_us"] = ns / 1000
}

// fileBacked loads every video of a repository directory through
// ingest.Load — FileTable-backed VideoData the probes can wrap.
func fileBacked(dir string) (map[string]*ingest.VideoData, error) {
	repo, err := ingest.OpenRepository(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]*ingest.VideoData{}
	for _, n := range repo.Names() {
		vd, _ := repo.Video(n)
		out[n] = vd
	}
	return out, nil
}

// shimmed returns a copy of vd whose tables all report into b.
func shimmed(vd *ingest.VideoData, b *busy) *ingest.VideoData {
	cp := *vd
	cp.ObjTables = map[annot.Label]tables.Table{}
	cp.ActTables = map[annot.Label]tables.Table{}
	for l, t := range vd.ObjTables {
		cp.ObjTables[l] = &tableShim{inner: t, b: b}
	}
	for l, t := range vd.ActTables {
		cp.ActTables[l] = &tableShim{inner: t, b: b}
	}
	return &cp
}

// probeTopK walks down the offline stack on identical requests:
// coordinator, single server, facade, rvaq on shimmed file tables.
func (e *runEnv) probeTopK(c *corpus, single, sharded *deployment, pinned, global []topkCase, m map[string]float64) error {
	budget := e.budget(0.04)
	// Each rung serves the pinned and the global stream; p50[rung] holds
	// the two medians in microseconds.
	pooled := vaq.ExecOptions{Pool: vaq.NewWorkerPool(0)} // the facade as the server calls it
	rungs := []struct {
		name  string
		issue issuer
	}{
		{"sharded", httpIssuer(sharded.url)},
		{"http", httpIssuer(single.url)},
		{"facade", facadeIssuer(single.repo(), pooled)},
	}
	type pair struct{ video, global float64 }
	p50 := map[string]pair{}
	var facadeGlobal topkStats
	for _, r := range rungs {
		v := topkPhase(pinned, r.issue, budget, e.clients, e.seed, "video", &e.ops, e.rec)
		g := topkPhase(global, r.issue, budget, e.clients, e.seed, "global", &e.ops, e.rec)
		if len(v.latUS) == 0 || len(g.latUS) == 0 {
			return fmt.Errorf("%s rung: no successful request (%v)", r.name, e.ops.firstErrs)
		}
		p50[r.name] = pair{percentile(v.latUS, 50), percentile(g.latUS, 50)}
		facadeGlobal = g // the last rung's
	}
	m["vaq.topk_video_p50_us"] = p50["facade"].video
	m["vaq.topk_global_p50_ms"] = p50["facade"].global / 1000
	m["rvaq.global_random_per_query"] = facadeGlobal.accessesPerQuery()
	m["server.topk_overhead_us"] = p50["http"].video - p50["facade"].video
	m["shard.scatter_overhead_ms"] = (p50["sharded"].global - p50["http"].global) / 1000
	m["shard.route_overhead_us"] = p50["sharded"].video - p50["http"].video

	// Byte-identity of the coordinator's ranking to the single server's.
	for i := range global {
		var a, b struct {
			Results json.RawMessage `json:"results"`
		}
		_, err1 := doJSON(http.MethodPost, single.url+"/v1/topk", global[i].body, &a)
		_, err2 := doJSON(http.MethodPost, sharded.url+"/v1/topk", global[i].body, &b)
		if err1 != nil || err2 != nil || !bytes.Equal(a.Results, b.Results) {
			e.ops.fail(fmt.Errorf("coordinator result list differs from the single server's for %v k=%d", global[i].query, global[i].k))
		} else {
			e.ops.ok()
		}
	}

	// A scatter waits for its slowest leg: the coordinator's body sent
	// straight to each shard, slowest shard's p50.
	slowest := 0.0
	for _, n := range sharded.nodes {
		var lat []float64
		for r := 0; r < 5; r++ {
			for i := range global {
				var resp api.TopKResponse
				d, err := doJSON(http.MethodPost, n.ts.URL+"/v1/topk", global[i].body, &resp)
				if err != nil {
					e.ops.fail(err)
					continue
				}
				lat = append(lat, float64(d)/float64(time.Millisecond))
			}
		}
		if len(lat) > 0 {
			slowest = max(slowest, median(lat))
		}
	}
	m["shard.leg_p50_ms"] = slowest
	ring := sharded.co.Ring()
	names := c.names()
	ns, _ := nsPerOp(e.sz.TracedLayerIter*5, nil, func(i int) { sink = ring.OwnerIndex(names[i%len(names)]) })
	m["shard.ring_owner_ns"] = ns
	var cm api.CoordMetricszResponse
	if _, err := doJSON(http.MethodGet, sharded.url+"/metricsz", nil, &cm); err != nil {
		return err
	}
	var hedges, failures int64
	for _, s := range cm.Shards {
		hedges += s.Hedges
		failures += s.Failures
	}
	m["shard.bound_rounds_per_query"] = float64(cm.BoundRounds) / float64(max(cm.Scatters, 1))
	m["shard.hedges"], m["shard.partials"], m["shard.failures"] = float64(hedges), float64(cm.Partials), float64(failures)
	if hedges+cm.Partials+failures != 0 {
		e.ops.fail(fmt.Errorf("coordinator reports %d hedges, %d partials, %d failures; all must be 0", hedges, cm.Partials, failures))
	}

	// Sequential merged global path (Workers: 1) pays ingest.Merge per query.
	var merged []float64
	for i := range global {
		sp := e.rec.root("vaq.topk_global_merged")
		d, _, err := facadeIssuer(single.repo(), vaq.ExecOptions{Workers: 1})(&global[i], nil)
		sp.end()
		if err != nil {
			e.ops.fail(err)
			continue
		}
		e.ops.ok()
		merged = append(merged, float64(d)/float64(time.Millisecond))
	}
	m["vaq.global_merged_p50_ms"] = median(merged)

	// rvaq itself, on file-backed tables behind the timing shim.
	vds, err := fileBacked(single.dirs[0])
	if err != nil {
		return err
	}
	var tb busy
	wrapped := map[string]*ingest.VideoData{}
	for n, vd := range vds {
		wrapped[n] = shimmed(vd, &tb)
	}
	ctx := context.Background()
	var lat []float64
	var acc tables.AccessCounter
	var candidates int
	var total time.Duration
	var ms0, ms1 runtime.MemStats
	for pass := 0; pass < 2; pass++ { // first pass loads the lazy indexes
		lat, acc, candidates, total = lat[:0], tables.AccessCounter{}, 0, 0
		tb.calls.Store(0)
		tb.nanos.Store(0)
		runtime.ReadMemStats(&ms0)
		for i := range pinned {
			tc := &pinned[i]
			var sp *liveSpan
			if pass == 1 {
				sp = e.rec.root("rvaq.topk")
			}
			c0, b0 := tb.snapshot()
			t := time.Now()
			res, stats, err := rvaq.TopKCtx(ctx, wrapped[tc.video], tc.query, tc.k, rvaq.DefaultOptions())
			d := time.Since(t)
			c1, b1 := tb.snapshot()
			sp.set("tables_calls", c1-c0)
			sp.set("tables_busy_ns", b1-b0)
			sp.end()
			if err != nil || len(res) != len(tc.want) {
				e.ops.fail(fmt.Errorf("rvaq.TopKCtx %s %v k=%d: %v", tc.video, tc.query, tc.k, err))
				continue
			}
			lat = append(lat, float64(d)/float64(time.Microsecond))
			total += d
			acc.Add(stats.Accesses)
			candidates += stats.Candidates
		}
		runtime.ReadMemStats(&ms1)
	}
	if len(lat) == 0 {
		return fmt.Errorf("rvaq probe: no query succeeded")
	}
	nq := float64(len(lat))
	_, busyNS := tb.snapshot()
	m["rvaq.topk_p50_us"] = median(lat)
	m["rvaq.self_share"] = 1 - float64(busyNS)/float64(total)
	m["tables.busy_share"] = float64(busyNS) / float64(total)
	m["rvaq.sorted_per_query"] = float64(acc.Sorted) / nq
	m["rvaq.reverse_per_query"] = float64(acc.Reverse) / nq
	m["rvaq.random_per_query"] = float64(acc.Random) / nq
	m["rvaq.candidates_per_query"] = float64(candidates) / nq
	m["rvaq.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / nq

	// RVAQ against the Pq-Traverse baseline at K=1, unshimmed tables.
	var tRVAQ, tPq time.Duration
	for rep := 0; rep < 3; rep++ {
		for i := range pinned {
			tc := &pinned[i]
			if tc.k != 1 {
				continue
			}
			t := time.Now()
			_, _, err1 := rvaq.TopK(vds[tc.video], tc.query, 1, rvaq.DefaultOptions())
			tRVAQ += time.Since(t)
			t = time.Now()
			_, _, err2 := rvaq.PqTraverse(vds[tc.video], tc.query, 1, rvaq.DefaultOptions())
			tPq += time.Since(t)
			if err1 != nil || err2 != nil {
				e.ops.fail(fmt.Errorf("rvaq vs PqTraverse on %s: %v %v", tc.video, err1, err2))
			}
		}
	}
	m["rvaq.speedup_vs_pqtraverse_k1"] = float64(tPq) / float64(tRVAQ)

	// EXPLAIN collection on vs off over the facade, paired and alternating.
	var ratios []float64
	oneRound := func(collect bool) time.Duration {
		t := time.Now()
		for i := range pinned {
			eo := vaq.ExecOptions{Workers: 1}
			if collect {
				eo.Explain = explain.NewCollector("topk")
			}
			if _, _, err := single.repo().TopKOpts(pinned[i].video, pinned[i].query, pinned[i].k, eo); err != nil {
				e.ops.fail(err)
			}
		}
		return time.Since(t)
	}
	for pair := 0; pair < 6; pair++ {
		var off, on time.Duration
		if pair%2 == 0 {
			off, on = oneRound(false), oneRound(true)
		} else {
			on, off = oneRound(true), oneRound(false)
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	m["explain.topk_overhead_ratio"] = median(ratios)
	return nil
}

// probeTables times the three access paths of a file-backed table by
// direct calls, beside the in-memory table and the open and write paths.
func (e *runEnv) probeTables(c *corpus, single *deployment, m map[string]float64) error {
	// The largest object table of the first video, and its file.
	v := &c.videos[0]
	var label annot.Label
	for l, t := range v.vd.ObjTables {
		if label == "" || t.Len() > v.vd.ObjTables[label].Len() || (t.Len() == v.vd.ObjTables[label].Len() && l < label) {
			label = l
		}
	}
	mem := v.vd.ObjTables[label].(*tables.MemTable)
	rows := mem.Rows()
	if len(rows) == 0 {
		return fmt.Errorf("table probe: %s/%s is empty", v.name, label)
	}
	path := filepath.Join(single.dirs[0], v.name, "obj_"+string(label)+".tbl")
	ft, err := tables.OpenFile(path)
	if err != nil {
		return err
	}
	defer ft.Close()
	n := e.sz.TracedLayerIter * 5
	must := func(err error) {
		if err != nil {
			panic(err) // indexes stay in range by construction
		}
	}
	t := time.Now()
	_, _, err = ft.RandomGet(rows[0].CID, nil) // loads the lazy cid index
	m["tables.file_random_first_us"] = float64(time.Since(t)) / float64(time.Microsecond)
	must(err)
	ns, _ := nsPerOp(n, nil, func(i int) { r, err := ft.SortedRow(i%len(rows), nil); must(err); sink = r })
	m["tables.file_sorted_ns"] = ns
	ns, _ = nsPerOp(n, nil, func(i int) { r, err := ft.ReverseRow(i%len(rows), nil); must(err); sink = r })
	m["tables.file_reverse_ns"] = ns
	ns, _ = nsPerOp(n, nil, func(i int) { s, _, err := ft.RandomGet(rows[(i*7)%len(rows)].CID, nil); must(err); sink = s })
	m["tables.file_random_ns"] = ns
	ns, _ = nsPerOp(n, nil, func(i int) { s, _, err := mem.RandomGet(rows[(i*7)%len(rows)].CID, nil); must(err); sink = s })
	m["tables.mem_random_ns"] = ns

	var opens []float64
	for rep := 0; rep < 25; rep++ {
		t := time.Now()
		f, err := tables.OpenFile(path)
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t))/float64(time.Microsecond))
		f.Close()
	}
	m["tables.open_us"] = median(opens)

	// Write throughput: the whole corpus's tables to a scratch directory.
	dir, err := os.MkdirTemp(e.tmp, "tbl")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var bytesOut int64
	t = time.Now()
	for i := range c.videos {
		for l, tb := range c.videos[i].vd.ObjTables {
			p := filepath.Join(dir, fmt.Sprintf("%d_%s.tbl", i, l))
			if err := tables.WriteFile(p, string(l), tb.(*tables.MemTable).Rows()); err != nil {
				return err
			}
			if info, err := os.Stat(p); err == nil {
				bytesOut += info.Size()
			}
		}
	}
	m["tables.write_mb_per_s"] = float64(bytesOut) / 1e6 / time.Since(t).Seconds()
	return nil
}

// probeIngest times the ingest layer's own entry points.
func (e *runEnv) probeIngest(c *corpus, m map[string]float64) error {
	// Workers: nproc against Workers: 1 on the first two videos.
	var serial, parallel time.Duration
	for i := 0; i < min(2, len(c.videos)); i++ {
		var ob, ab busy
		t := time.Now()
		if _, err := ingestVideo(&c.videos[i], 1, &ob, &ab, false); err != nil {
			return err
		}
		serial += time.Since(t)
		t = time.Now()
		if _, err := ingestVideo(&c.videos[i], runtime.NumCPU(), &ob, &ab, false); err != nil {
			return err
		}
		parallel += time.Since(t)
	}
	m["ingest.workers_speedup"] = float64(serial) / float64(parallel)

	dir, err := os.MkdirTemp(e.tmp, "save")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var saves, loads []float64
	var loaded []*ingest.VideoData
	for i := range c.videos {
		vdir := filepath.Join(dir, c.videos[i].name)
		t := time.Now()
		if err := c.videos[i].vd.Save(vdir); err != nil {
			return err
		}
		saves = append(saves, msSince(t))
		t = time.Now()
		vd, err := ingest.Load(vdir)
		if err != nil {
			return err
		}
		loads = append(loads, msSince(t))
		loaded = append(loaded, vd)
	}
	m["ingest.save_ms"] = median(saves)
	m["ingest.load_ms"] = median(loads)
	var merges []float64
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		mg, err := ingest.Merge(loaded, c.names())
		if err != nil {
			return err
		}
		merges = append(merges, msSince(t))
		sink = mg
	}
	m["ingest.merge_ms"] = median(merges)
	for _, vd := range loaded {
		for _, t := range vd.ObjTables {
			t.(*tables.FileTable).Close()
		}
		for _, t := range vd.ActTables {
			t.(*tables.FileTable).Close()
		}
	}
	return nil
}
