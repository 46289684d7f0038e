// Package infer is the shared-inference layer between the query engines
// and the detection backends: the seam where many concurrent sessions
// and top-k queries over the same hot videos stop re-invoking the same
// model on the same (frame/shot, label) units. The paper attributes
// >98% of online runtime to model inference, so at many-sessions scale
// this layer — not the matcher — is where serving capacity is won.
//
// Three layers, stacked from the engines down:
//
//  1. Session binding (ObjectFlight / ActionFlight). A thin adapter that
//     binds the resilient detector above the domain to one session's
//     ctx, so the engines keep calling plain Detect / Recognize. It
//     does no deduplication of its own.
//  2. The memo (Shared.Object / Shared.Action): one table per domain,
//     keyed by (kind, backend, unit, label). The first caller of a
//     missing entry fills it inline, on its own goroutine; concurrent
//     callers of an entry in flight wait on it and each leaves on its
//     own ctx, while the leader always finishes its fill. Every clean
//     fill stays resident, up to CacheCapacity entries evicted by
//     second-chance CLOCK. A multi-label call is served from per-label
//     entries, so ingest (all labels per frame) and sessions (one label
//     per probe) share them.
//     The memo sits BELOW the fault injector (package fault): every
//     engine-visible invocation still passes through fault's
//     deterministic draws, and corrupted results are never memoized, so
//     chaos runs are byte-identical with the cache on or off. Over an
//     infallible backend the memo carries detect.InfallibleBackend, so
//     resilience keeps its fast path; with a fault schedule armed the
//     injector sits between them and the marker does not show.
//  3. Same-profile micro-batching (BatchWindow > 0), below the memo. A
//     bounded-delay accumulator groups same-label-list unit fills
//     arriving within BatchWindow (or until BatchMax) into one
//     vectorized backend call, amortising per-invocation dispatch cost.
//     Batch results are byte-identical to per-unit calls.
//
// See docs/INFERENCE.md for the stacking contract and tuning guidance.
package infer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/trace"
)

// Config sizes one Shared inference domain. The zero value disables
// every layer except dedup (fills in flight always coalesce).
type Config struct {
	// CacheCapacity bounds the memo's resident entries (one per
	// (kind, backend, unit, label) key); <= 0 keeps none resident.
	CacheCapacity int
	// BatchWindow is how long the accumulator holds the first invocation
	// of a batch open waiting for companions; <= 0 disables batching.
	BatchWindow time.Duration
	// BatchMax caps units per vectorized call (default 16).
	BatchMax int
	// Tracer receives the infer.* counters and stage sketches; nil
	// disables instrumentation.
	Tracer *trace.Tracer
}

// DefaultBatchMax caps batch size when Config.BatchMax is unset.
const DefaultBatchMax = 16

// Stats is a point-in-time snapshot of one Shared domain's counters.
type Stats struct {
	// Memo outcomes, counted per call below fault. CacheHits calls were
	// served from resident entries alone; CacheMisses calls reached the
	// backend, one per backend call however many labels it filled.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Admitted/Evicted describe the memo's population. DoorRejected
	// stays 0: every clean fill is admitted (the field keeps its JSON
	// name for readers of earlier snapshots).
	Admitted     int64 `json:"admitted"`
	Evicted      int64 `json:"evicted"`
	DoorRejected int64 `json:"door_rejected"`
	// Dedup outcomes: Coalesced calls waited on a fill another caller
	// had in flight and made no backend call; Leaders are all the
	// others (the hits and the misses).
	Leaders   int64 `json:"leaders"`
	Coalesced int64 `json:"coalesced"`
	// Batching: Batches vectorized calls covering BatchedUnits units.
	Batches      int64 `json:"batches"`
	BatchedUnits int64 `json:"batched_units"`
}

// Add accumulates other into s (for aggregating across domains).
func (s *Stats) Add(o Stats) {
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Admitted += o.Admitted
	s.Evicted += o.Evicted
	s.DoorRejected += o.DoorRejected
	s.Leaders += o.Leaders
	s.Coalesced += o.Coalesced
	s.Batches += o.Batches
	s.BatchedUnits += o.BatchedUnits
}

// Shared is one shared-inference domain: one memo table shared by
// every backend wrapped through it, plus a batch accumulator per wrapped
// backend when batching is armed. All
// backends of the same Name() wrapped into one Shared must be
// interchangeable (same scene, same profile); the server's hub
// guarantees this by keying domains on (workload, scale, model).
type Shared struct {
	cfg    Config
	shards []memoShard

	mu       sync.Mutex
	backends map[string]uint32 // see backendID

	hits, misses, leaders, coalesce atomic.Int64
	admitted, evicted               atomic.Int64
	batches, batchUnits             atomic.Int64

	// Pre-resolved trace handles (nil-safe when cfg.Tracer is nil): /varz
	// reads these, Stats() the atomics above; both move together.
	cHits, cMisses, cAdmit, cEvict *trace.Counter
	cLeaders, cCoalesced           *trace.Counter
	cBatches, cBatchUnits          *trace.Counter
	sBatchSize, sBatchFlush        *trace.Stage
}

// Validate rejects unusable configurations. Zero values stay legal
// ("default" for BatchMax, "disabled" for the window and cache);
// negative values are configuration bugs — a negative BatchMax would
// silently disable batching while still arming a window timer per
// invocation — and are reported rather than clamped.
func (cfg Config) Validate() error {
	if cfg.BatchMax < 0 {
		return fmt.Errorf("infer: BatchMax must be positive (or 0 for the default %d), got %d", DefaultBatchMax, cfg.BatchMax)
	}
	if cfg.BatchWindow < 0 {
		return fmt.Errorf("infer: BatchWindow must be positive (or 0 to disable batching), got %v", cfg.BatchWindow)
	}
	return nil
}

// New builds a Shared domain from cfg.
func New(cfg Config) (*Shared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = DefaultBatchMax
	}
	sh := &Shared{cfg: cfg}
	sh.initMemo(cfg.CacheCapacity)
	tr := cfg.Tracer
	sh.cHits = tr.Counter("infer.cache_hits")
	sh.cMisses = tr.Counter("infer.cache_misses")
	sh.cAdmit = tr.Counter("infer.cache_admitted")
	sh.cEvict = tr.Counter("infer.cache_evicted")
	tr.Counter("infer.cache_door_rejected") // stays 0, see Stats.DoorRejected
	sh.cLeaders = tr.Counter("infer.flight_leaders")
	sh.cCoalesced = tr.Counter("infer.coalesced")
	sh.cBatches = tr.Counter("infer.batches")
	sh.cBatchUnits = tr.Counter("infer.batch_units")
	sh.sBatchSize = tr.Stage("infer.batch_size")
	sh.sBatchFlush = tr.Stage("infer.batch_flush")
	return sh, nil
}

// MustNew is New for configurations already validated upstream (e.g.
// the serving daemon's flag parsing); it panics on error.
func MustNew(cfg Config) *Shared {
	sh, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return sh
}

// Config returns the domain's configuration (with defaults applied).
func (sh *Shared) Config() Config { return sh.cfg }

// Stats snapshots the domain's counters.
func (sh *Shared) Stats() Stats {
	return Stats{
		CacheHits:    sh.hits.Load(),
		CacheMisses:  sh.misses.Load(),
		Admitted:     sh.admitted.Load(),
		Evicted:      sh.evicted.Load(),
		Leaders:      sh.leaders.Load(),
		Coalesced:    sh.coalesce.Load(),
		Batches:      sh.batches.Load(),
		BatchedUnits: sh.batchUnits.Load(),
	}
}

func (sh *Shared) noteLeader() {
	sh.leaders.Add(1)
	sh.cLeaders.Add(1)
}
