package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"vaq"
)

// runEnv is what one workload run carries around.
type runEnv struct {
	workload string
	seed     int64
	seconds  float64
	sz       sizes
	clients  int // C = min(nproc, 4) closed-loop clients
	tmp      string
	rec      *recorder // nil in untraced runs
	ops      ops
	oracle   sessionOracle
	notes    map[string]float64 // sample counts and sizes, printed beside the metrics
}

func newRunEnv(workload string, seed int64, seconds float64, sz sizes, outDir string) (*runEnv, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	return &runEnv{
		workload: workload, seed: seed, seconds: seconds, sz: sz,
		clients: min(runtime.NumCPU(), 4), tmp: tmp,
		notes: map[string]float64{},
	}, nil
}

func (e *runEnv) close() { os.RemoveAll(e.tmp) }

func (e *runEnv) budget(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// lifecycle is one full set-up of the system under test: generate the
// seeded corpus, ingest it, write it to a repository, re-open it, run
// the first query per video, start the servers.
type lifecycle struct {
	corpus *corpus
	dep    *deployment
	wallS  float64
	ingest ingestSample
	repo   repoSample
}

// settle quiesces what earlier work left behind before a timed
// section: garbage on the heap, and dirty pages and journal entries of
// files written or deleted earlier — without the sync, the fsyncs of
// Repository.Add also pay for those, and per-set-up Add medians ranged
// 1.3–2.8 ms instead of 1.4–2.0 ms.
func settle() {
	runtime.GC()
	syscall.Sync()
}

func (e *runEnv) setUp(kind deployKind) (*lifecycle, error) {
	settle()
	start := time.Now()
	c, err := newCorpus(e.sz)
	if err != nil {
		return nil, err
	}
	is, err := c.ingest(e.rec, e.rec != nil)
	if err != nil {
		return nil, err
	}
	dep, rs, err := deploy(c, kind, e.sz, e.tmp, e.rec)
	if err != nil {
		return nil, err
	}
	return &lifecycle{corpus: c, dep: dep, wallS: time.Since(start).Seconds(), ingest: is, repo: rs}, nil
}

// lifecycleStats pools the samples of every set-up a run made.
type lifecycleStats struct {
	setupS        []float64
	ingestClipsPS []float64
	invPerClip    float64
	// One value per pass over the repository's write and open side —
	// each set-up makes one, repoPass adds more between the phases —
	// the pass's median per-video Add and median re-open. This machine
	// runs 20–40 % slower for seconds at a time: passes a few seconds
	// apart differ as much as runs do, so a run's reading is the median
	// over passes spread along it, not over samples taken in one spot.
	addMS, openMS []float64
	bytesPerClip  float64
}

func (s *lifecycleStats) addPass(rs repoSample) {
	s.addMS = append(s.addMS, median(rs.addMS))
	s.openMS = append(s.openMS, median(rs.openMS))
}

func (s *lifecycleStats) add(l *lifecycle) {
	s.setupS = append(s.setupS, l.wallS)
	s.ingestClipsPS = append(s.ingestClipsPS, float64(l.corpus.clips)/l.ingest.wallS)
	s.invPerClip = float64(l.ingest.invocations) / float64(l.corpus.clips)
	s.addPass(l.repo)
	s.bytesPerClip = float64(l.repo.bytes) / float64(l.corpus.clips)
}

func deployKindOf(workload string) deployKind {
	switch workload {
	case "topk_sharded":
		return deploySharded
	case "ingest_repo":
		return deployRepoOnly
	}
	return deploySingle
}

// runWorkload makes the untraced run: Setups full set-ups (the last
// one is kept and serves the traffic), then the workload's phases over
// -seconds. Every workload reports every end-to-end metric: what its
// own traffic does not produce comes from its set-ups (ingest and
// repository metrics) or from a short side phase (top-k metrics on the
// online workloads and on ingest_repo).
func (e *runEnv) runWorkload() (map[string]float64, error) {
	kind := deployKindOf(e.workload)
	var ls lifecycleStats
	var live *lifecycle
	for i := 0; i < e.sz.Setups; i++ {
		if live != nil {
			live.dep.stop()
		}
		l, err := e.setUp(kind)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if i == 0 {
			if err := checkTables(l.corpus, l.dep); err != nil {
				e.ops.fail(err)
			} else {
				e.ops.ok()
			}
		}
		ls.add(l)
		live = l
	}
	defer live.dep.stop()
	pinned, global, err := topkCases(live.corpus)
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	var video, glob topkStats
	// A repository pass follows every phase (see lifecycleStats); the
	// first failure is kept and ends the run after the switch.
	var passErr error
	pass := func() {
		if passErr == nil {
			passErr = e.repoPass(live.corpus, &ls)
		}
	}
	// topk splits the budget into two turns of a pinned and a global
	// phase and pools each kind's samples: two stretches seconds apart
	// per request type, for the same reason as the repository passes.
	topk := func(issue issuer, budget time.Duration) {
		for turn := 0; turn < 2; turn++ {
			video.merge(topkPhase(pinned, issue, budget/4, e.clients, e.seed, "video", &e.ops, e.rec))
			pass()
			glob.merge(topkPhase(global, issue, budget/4, e.clients, e.seed, "global", &e.ops, e.rec))
			pass()
		}
	}
	switch e.workload {
	case "online_solo", "online_shared":
		// Top-k side phases first, on the fresh server: after the
		// sessions the live heap — and with it GC frequency and the
		// pinned p99 — depends on how many rounds ran (p99 535–805 µs
		// over ten runs when measured after, against ≈1.1 ms here).
		topk(httpIssuer(live.dep.url), e.budget(2*e.sz.SideTopKShare))
		var on onlineStats
		if e.workload == "online_solo" {
			on = soloPhase(live.dep.url, e.sz.SoloScale, e.budget(e.sz.OnlineShare), e.clients, e.seed, &e.oracle, &e.ops, e.rec)
			m["invocations_per_clip"] = float64(on.invocations) / float64(on.clips)
		} else {
			spec := sessionSpec{corpusWorkload, e.sz.SharedScale}
			on = sharedPhase(live.dep.url, spec, e.sz.SharedSessions, e.budget(e.sz.OnlineShare), &e.oracle, &e.ops, e.rec)
			is, err := inferenceStats(live.dep.url)
			if err != nil {
				return nil, err
			}
			// What reached the backends: the shared cache's misses.
			m["invocations_per_clip"] = float64(is.CacheMisses) / float64(on.clips)
			// How far the video's units outnumber the cache, as measured:
			// units put to a full cache, and what that did to admission.
			e.notes["shared_cache_hit_ratio"] = float64(is.CacheHits) / float64(is.CacheHits+is.CacheMisses)
			e.notes["shared_evicted_per_admitted"] = float64(is.Evicted) / float64(is.Admitted)
			e.notes["shared_door_rejected_per_miss"] = float64(is.DoorRejected) / float64(is.CacheMisses)
		}
		if on.clips == 0 {
			return nil, fmt.Errorf("no session completed (first errors: %v)", e.ops.firstErrs)
		}
		pass()
		m["clips_per_s"] = on.clipsPerS()
		e.notes["online_rounds"] = float64(on.rounds)
		e.notes["online_clips"] = float64(on.clips)

	case "topk_single", "topk_sharded":
		topk(httpIssuer(live.dep.url), e.budget(1))

	case "ingest_repo":
		if err := e.ingestRounds(live.corpus, &ls); err != nil {
			return nil, err
		}
		if err := e.repoCycles(live.corpus, &ls); err != nil {
			return nil, err
		}
		topk(facadeIssuer(live.dep.repo(), vaq.ExecOptions{}), e.budget(1-e.sz.IngestShare-e.sz.RepoCycleShare))
	}
	if passErr != nil {
		return nil, passErr
	}

	if len(video.latUS) == 0 || len(glob.latUS) == 0 {
		return nil, fmt.Errorf("no successful top-k request (first errors: %v)", e.ops.firstErrs)
	}
	m["setup_s"] = median(ls.setupS)
	if _, online := m["clips_per_s"]; !online {
		m["clips_per_s"] = median(ls.ingestClipsPS)
		m["invocations_per_clip"] = ls.invPerClip
	}
	m["repo_add_ms"] = median(ls.addMS)
	m["repo_open_ms"] = median(ls.openMS)
	m["bytes_per_clip"] = ls.bytesPerClip
	m["topk_video_p50_us"] = percentile(video.latUS, 50)
	m["topk_video_p99_us"] = video.p99()
	m["topk_video_qps"] = video.qps()
	m["topk_global_p50_ms"] = percentile(glob.latUS, 50) / 1000
	m["topk_global_p99_ms"] = glob.p99() / 1000
	m["topk_global_qps"] = glob.qps()
	m["accesses_per_query"] = video.accessesPerQuery()

	e.notes["clients"] = float64(e.clients)
	e.notes["setups"] = float64(len(ls.setupS))
	e.notes["corpus_clips"] = float64(live.corpus.clips)
	e.notes["topk_video_samples"] = float64(len(video.latUS))
	e.notes["topk_global_samples"] = float64(len(glob.latUS))
	e.notes["topk_video_highest_percentile"] = highestPercentile(len(video.latUS))
	e.notes["topk_global_highest_percentile"] = highestPercentile(len(glob.latUS))
	e.notes["repo_passes"] = float64(len(ls.addMS))
	return m, nil
}

// ingestRounds re-ingests the whole corpus until the phase budget is
// spent; each full ingest is one clips_per_s sample.
func (e *runEnv) ingestRounds(c *corpus, ls *lifecycleStats) error {
	budget := e.budget(e.sz.IngestShare)
	start := time.Now()
	for rounds := 0; ; rounds++ {
		elapsed := time.Since(start)
		if rounds > 0 && elapsed+elapsed/time.Duration(2*rounds) > budget {
			e.notes["ingest_rounds"] = float64(rounds)
			return nil
		}
		is, err := c.ingest(e.rec, e.rec != nil)
		if err != nil {
			e.ops.fail(err)
			return err
		}
		e.ops.ok()
		ls.ingestClipsPS = append(ls.ingestClipsPS, float64(c.clips)/is.wallS)
	}
}

// repoCycle is one turn of the repository's write side: Add every
// video to a fresh repository, re-open it with the first query per
// video, Remove every video.
func (e *runEnv) repoCycle(c *corpus) (repoSample, error) {
	settle() // whatever ran before left dirty pages and metadata behind
	d, rs, err := deploy(c, deployRepoOnly, e.sz, e.tmp, e.rec)
	if err != nil {
		e.ops.fail(err)
		return rs, err
	}
	defer d.stop()
	// Remove goes through a repository that registered the videos: the
	// re-opened one.
	for _, n := range c.names() {
		if err := d.repo().Remove(n); err != nil {
			e.ops.fail(err)
			return rs, err
		}
	}
	if left := dirBytes(d.dirs[0]); left != 0 {
		e.ops.fail(fmt.Errorf("repository holds %d bytes after Remove of every video", left))
	} else {
		e.ops.ok()
	}
	return rs, nil
}

// repoPass makes one repository cycle between two phases and records it
// as one pass.
func (e *runEnv) repoPass(c *corpus, ls *lifecycleStats) error {
	rs, err := e.repoCycle(c)
	if err == nil {
		ls.addPass(rs)
	}
	return err
}

// repoCycles is ingest_repo's own phase: repository cycles until the
// phase budget is spent. Being one stretch of time, it is one pass.
func (e *runEnv) repoCycles(c *corpus, ls *lifecycleStats) error {
	budget := e.budget(e.sz.RepoCycleShare)
	start := time.Now()
	var all repoSample
	cycles := 0
	for time.Since(start) < budget {
		rs, err := e.repoCycle(c)
		if err != nil {
			return err
		}
		all.addMS = append(all.addMS, rs.addMS...)
		all.openMS = append(all.openMS, rs.openMS...)
		cycles++
	}
	ls.addPass(all)
	e.notes["repo_cycles"] = float64(cycles)
	return nil
}
