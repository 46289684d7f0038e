// Package infer is the shared-inference layer between the query engines
// and the detection backends: the seam where many concurrent sessions
// and top-k queries over the same hot videos stop re-invoking the same
// model on the same (frame/shot, label) units. The paper attributes
// >98% of online runtime to model inference, so at many-sessions scale
// this layer — not the matcher — is where serving capacity is won.
//
// Three layers, stacked from the engines down, each written once over
// detect.Backend for both model kinds:
//
//  1. Session binding (ObjectFlight / ActionFlight) binds the resilient
//     Source above the domain to one session's ctx, so the engines keep
//     calling plain Detect / Recognize. It does no dedup itself.
//  2. The memo (Shared.Object / Shared.Action): one table per domain of
//     per-label results. The first caller of a missing key fills it
//     inline; callers of a key in flight wait on it, each leaving on its
//     own ctx, while the leader always finishes its fill. Clean fills
//     stay resident, up to CacheCapacity keys, evicted by second-chance
//     CLOCK. The memo sits BELOW the fault injector (package fault), so
//     every engine-visible invocation still passes through fault's
//     deterministic draws and corrupted results are never memoized;
//     over an infallible backend it carries detect.InfallibleBackend,
//     so resilience keeps its fast path.
//  3. Same-profile micro-batching (BatchWindow > 0), below the memo,
//     groups same-label-list fills arriving within BatchWindow (or
//     until BatchMax) into one vectorized call with byte-identical
//     results.
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
	// (backend, unit, label) key); <= 0 keeps none resident.
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
// backend when batching is armed. All backends of the same Name()
// wrapped into one Shared must be interchangeable (same scene, same
// profile); the server's hub keys domains on (workload, scale, model).
type Shared struct {
	cfg    Config
	shards []memoShard // each counts its own memo outcomes; see Stats

	mu    sync.Mutex
	names atomic.Pointer[map[string]uint32] // see intern

	batches, batchUnits     atomic.Int64
	sBatchSize, sBatchFlush *trace.Stage // nil-safe when cfg.Tracer is nil
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
	// /varz reads the counters from Stats at scrape time; domains sharing
	// a tracer sum into one counter each.
	for name, f := range map[string]func(Stats) int64{
		"infer.cache_hits":          func(st Stats) int64 { return st.CacheHits },
		"infer.cache_misses":        func(st Stats) int64 { return st.CacheMisses },
		"infer.cache_admitted":      func(st Stats) int64 { return st.Admitted },
		"infer.cache_evicted":       func(st Stats) int64 { return st.Evicted },
		"infer.cache_door_rejected": func(st Stats) int64 { return st.DoorRejected },
		"infer.flight_leaders":      func(st Stats) int64 { return st.Leaders },
		"infer.coalesced":           func(st Stats) int64 { return st.Coalesced },
		"infer.batches":             func(st Stats) int64 { return st.Batches },
		"infer.batch_units":         func(st Stats) int64 { return st.BatchedUnits },
	} {
		tr.CounterFunc(name, func() int64 { return f(sh.Stats()) })
	}
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

// Stats snapshots the domain's counters. The memo counts under its
// shard locks; Stats sums the shards.
func (sh *Shared) Stats() Stats {
	st := Stats{Batches: sh.batches.Load(), BatchedUnits: sh.batchUnits.Load()}
	for i := range sh.shards {
		sh.shards[i].mu.Lock()
		st.Add(sh.shards[i].st)
		sh.shards[i].mu.Unlock()
	}
	st.Leaders = st.CacheHits + st.CacheMisses
	return st
}
