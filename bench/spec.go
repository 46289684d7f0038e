package main

// The benchmark's vocabulary: workload and metric names, units,
// directions and bounds. BENCHMARK.json at the repo root lists the same
// names; spec_test.go checks the two agree both ways.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string
	Why  string
}

// Each why carries the reason the workload exists, its frozen sizes and
// the load model, because BENCHMARK.json has no other field for them.
// C = min(nproc, 4) closed-loop clients everywhere.
var workloads = []workloadDef{
	{"online_solo", "closed loop, C=min(nproc,4) users drain shuffled q1..q12 at scale 0.15 on default vaqd: nothing is shared, so infer runs its pure miss path over svaq+detect"},
	{"online_shared", "closed loop, rounds of 8 concurrent q2 sessions at scale 1 on default vaqd: ~197k units against the 65536-entry cache, so dedup, cache hits, eviction and doorkeeper admission carry the load"},
	{"topk_single", "closed loop, C clients, 12 q2-shaped videos at scale 0.25 re-opened as FileTables, pinned then global VQL top-k on one vaqd: rvaq+tables+facade dominate"},
	{"topk_sharded", "closed loop, same corpus and request streams through coordinator + 3 shards (5ms bound broadcast): adds scatter, per-leg HTTP/JSON, routing and merge"},
	{"ingest_repo", "write side, no server: corpus ingests (Workers=nproc), Add/OpenRepository/Remove cycles, in-process top-k by C clients; detect+ingest+tables dominate"},
}

// End-to-end metrics. Wall-clock and modeled cost are separate metrics,
// never mixed: invocations_per_clip, accesses_per_query and
// bytes_per_clip count work, everything else is time.
//
// Bounds: the three counts repeat exactly across seeds (0.001), except
// invocations_per_clip on online_shared, where the shared cache's misses
// depend on how sessions interleave (0.01). Every wall-clock metric has
// the contract's maximum, 0.25, because that is what the recorded runs
// show this 2-vCPU microVM can hold: the driver takes a metric's spread
// over ten runs a few minutes apart, and the machine drifts over such a
// stretch. baselines/SPREAD_11.txt keeps two ten-seed sweeps of this
// code with set-up time run by run: in the first the widest spread per
// metric is 0.09 (repo_open_ms) to 0.23 (repo_add_ms, fsync-bound) and
// 0.13–0.20 for clips_per_s and the top-k p50, p99 and qps; the second,
// a quiet stretch, reads 0.02–0.12 for those. An earlier afternoon's
// sweep saw set-up go from 3.1 s to 4.0 s and back in forty minutes. A
// tighter bound would fail the benchmark's own acceptance in the first
// kind of hour; finer differences are for -repeat with -compare, which
// reports quartiles and answers "unresolved" when the two sides' runs
// overlap.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"clips_per_s", "clips/s", "higher", 0.25},
	{"invocations_per_clip", "count", "lower", 0.01},
	{"topk_video_p50_us", "us", "lower", 0.25},
	{"topk_video_p99_us", "us", "lower", 0.25},
	{"topk_video_qps", "1/s", "higher", 0.25},
	{"topk_global_p50_ms", "ms", "lower", 0.25},
	{"topk_global_p99_ms", "ms", "lower", 0.25},
	{"topk_global_qps", "1/s", "higher", 0.25},
	{"accesses_per_query", "count", "lower", 0.001},
	{"repo_add_ms", "ms", "lower", 0.25},
	{"repo_open_ms", "ms", "lower", 0.25},
	{"bytes_per_clip", "B", "lower", 0.001},
}

// Per-layer metrics, reported by the traced run only. The prefix before
// the first dot is the module (layer) name.
var perLayer = []metricDef{
	{"detect.object_call_ns", "ns", "lower", 0},
	{"detect.action_call_ns", "ns", "lower", 0},
	{"detect.busy_share", "ratio", "lower", 0},

	{"svaq.direct_clips_per_s", "clips/s", "higher", 0},
	{"svaq.clip_p50_us", "us", "lower", 0},
	{"svaq.clip_p99_us", "us", "lower", 0},
	{"svaq.self_us_per_clip", "us", "lower", 0},
	{"svaq.invocations_per_clip", "count", "lower", 0},

	{"scanstat.critical_value_us", "us", "lower", 0},
	{"bgprob.observe_ns", "ns", "lower", 0},
	{"plan.clip_p50_us", "us", "lower", 0},
	{"plan.invocations_per_clip", "count", "lower", 0},
	{"vql.parse_us", "us", "lower", 0},

	{"resilience.wrap_ns", "ns", "lower", 0},
	{"resilience.wrap_allocs", "count", "lower", 0},
	{"fault.wrap_ns", "ns", "lower", 0},
	{"fault.wrap_allocs", "count", "lower", 0},
	{"infer.cache_miss_ns", "ns", "lower", 0},
	{"infer.cache_miss_allocs", "count", "lower", 0},
	{"infer.cache_hit_ns", "ns", "lower", 0},
	{"infer.cache_hit_allocs", "count", "lower", 0},
	{"infer.dedup_ns", "ns", "lower", 0},
	{"infer.dedup_allocs", "count", "lower", 0},
	{"infer.cache_hit_ratio", "ratio", "higher", 0},
	{"infer.door_rejected", "count", "lower", 0},
	{"infer.evicted", "count", "lower", 0},
	{"infer.coalesced", "count", "higher", 0},

	{"pool.do_ns", "ns", "lower", 0},
	{"quantile.observe_ns", "ns", "lower", 0},
	{"trace.span_ns", "ns", "lower", 0},
	{"explain.topk_overhead_ratio", "ratio", "lower", 0},

	{"server.plain_clips_per_s", "clips/s", "higher", 0},
	{"server.session_overhead_ratio", "ratio", "lower", 0},
	{"server.session_create_ms", "ms", "lower", 0},
	{"server.poll_p50_us", "us", "lower", 0},
	{"server.poll_p99_us", "us", "lower", 0},
	{"server.topk_overhead_us", "us", "lower", 0},

	{"api.topk_json_us", "us", "lower", 0},

	{"vaq.topk_video_p50_us", "us", "lower", 0},
	{"vaq.topk_global_p50_ms", "ms", "lower", 0},
	{"vaq.global_merged_p50_ms", "ms", "lower", 0},

	{"rvaq.topk_p50_us", "us", "lower", 0},
	{"rvaq.self_share", "ratio", "lower", 0},
	{"rvaq.sorted_per_query", "count", "lower", 0},
	{"rvaq.reverse_per_query", "count", "lower", 0},
	{"rvaq.random_per_query", "count", "lower", 0},
	{"rvaq.candidates_per_query", "count", "lower", 0},
	{"rvaq.allocs_per_query", "count", "lower", 0},
	{"rvaq.global_random_per_query", "count", "lower", 0},
	{"rvaq.speedup_vs_pqtraverse_k1", "ratio", "higher", 0},

	{"tables.file_sorted_ns", "ns", "lower", 0},
	{"tables.file_reverse_ns", "ns", "lower", 0},
	{"tables.file_random_ns", "ns", "lower", 0},
	{"tables.file_random_first_us", "us", "lower", 0},
	{"tables.mem_random_ns", "ns", "lower", 0},
	{"tables.open_us", "us", "lower", 0},
	{"tables.write_mb_per_s", "MB/s", "higher", 0},
	{"tables.busy_share", "ratio", "lower", 0},

	{"ingest.video_ms", "ms", "lower", 0},
	{"ingest.workers_speedup", "ratio", "higher", 0},
	{"ingest.save_ms", "ms", "lower", 0},
	{"ingest.load_ms", "ms", "lower", 0},
	{"ingest.merge_ms", "ms", "lower", 0},

	{"shard.scatter_overhead_ms", "ms", "lower", 0},
	{"shard.route_overhead_us", "us", "lower", 0},
	{"shard.leg_p50_ms", "ms", "lower", 0},
	{"shard.ring_owner_ns", "ns", "lower", 0},
	{"shard.bound_rounds_per_query", "count", "lower", 0},
	{"shard.hedges", "count", "lower", 0},
	{"shard.partials", "count", "lower", 0},
	{"shard.failures", "count", "lower", 0},

	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.alloc_mb_per_s", "MB/s", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.goroutines_end", "count", "lower", 0},

	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// sizes are the frozen workload sizes; BENCHMARK.json and the README
// quote the full ones. quick is the smoke-test scale used by the tests.
type sizes struct {
	Setups int // full set-ups per run; setup_s is their median

	CorpusVideos int     // q2-shaped videos
	CorpusScale  float64 // of the 52-minute q2 spec
	Reopens      int     // timed OpenRepository+first-query repeats per set-up

	SoloScale      float64 // q1..q12 each once per round
	SharedScale    float64 // q2, SharedSessions concurrent sessions per round
	SharedSessions int

	Shards int

	// Shares of -seconds by phase; the rest of a workload's time goes
	// to its primary phase.
	OnlineShare     float64 // online_*: sessions
	SideTopKShare   float64 // online_*, ingest_repo: each of video and global
	IngestShare     float64 // ingest_repo: full ingest rounds
	RepoCycleShare  float64 // ingest_repo: Add/Open/Remove cycles
	TracedLayerIter int     // iterations of the direct-call layer loops
}

var fullSizes = sizes{
	Setups:       3,
	CorpusVideos: 12, CorpusScale: 0.25, Reopens: 15,
	SoloScale: 0.15, SharedScale: 1, SharedSessions: 8,
	Shards:      3,
	OnlineShare: 0.6, SideTopKShare: 0.2,
	IngestShare: 0.5, RepoCycleShare: 0.2,
	TracedLayerIter: 20000,
}

var quickSizes = sizes{
	Setups:       1,
	CorpusVideos: 4, CorpusScale: 0.04, Reopens: 1,
	SoloScale: 0.01, SharedScale: 0.03, SharedSessions: 3,
	Shards:      3,
	OnlineShare: 0.4, SideTopKShare: 0.3,
	IngestShare: 0.2, RepoCycleShare: 0.2,
	TracedLayerIter: 200,
}

// once is sz with a single timed re-open: what a deployment that is
// not a set-up sample needs.
func (sz sizes) once() sizes {
	sz.Reopens = 1
	return sz
}
