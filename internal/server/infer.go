package server

import (
	"sync"

	"vaq/internal/infer"
	"vaq/internal/resilience"
)

// inferKey identifies one shared-inference domain. Sessions agreeing on
// all three fields observe the same deterministic simulated scene and
// the same backend profiles, so their invocations are interchangeable —
// the property that makes sharing one backend stack sound.
type inferKey struct {
	workload string
	scale    float64
	model    string
}

// inferEntry is one domain's stack, built once and shared by every
// session with its key: raw sims → micro-batcher (when armed) → memo
// (dedup and cache in one table) → fault injector (when armed) →
// resilience → flights. The flights only bind the stack to a session's
// lifetime context: a session that goes away abandons its waits on
// fills others lead, and finishes any fill it leads itself.
type inferEntry struct {
	shared    *infer.Shared
	models    *resilience.Models
	objFlight *infer.ObjectFlight
	actFlight *infer.ActionFlight
}

// inferHub lazily builds and retains the shared-inference domains.
type inferHub struct {
	cfg     infer.Config
	mu      sync.Mutex
	entries map[inferKey]*inferEntry
}

func newInferHub(cfg infer.Config) *inferHub {
	return &inferHub{cfg: cfg, entries: map[inferKey]*inferEntry{}}
}

// entry returns the domain for key, building it through build on first
// use. build receives the domain's Shared so it can wrap the raw
// backends with the below-fault layers before the injector and
// resilience go on top.
func (h *inferHub) entry(key inferKey, build func(sh *infer.Shared) *resilience.Models) *inferEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[key]; ok {
		return e
	}
	// The hub's config was validated at daemon startup (flag parsing),
	// so construction cannot fail here.
	sh := infer.MustNew(h.cfg)
	models := build(sh)
	e := &inferEntry{
		shared:    sh,
		models:    models,
		objFlight: sh.ObjectFlight(models.Det.Name(), models.Det),
		actFlight: sh.ActionFlight(models.Rec.Name(), models.Rec),
	}
	h.entries[key] = e
	return e
}

// stats aggregates every domain's counters; nil when no domain was ever
// built, so /metricsz omits the block.
func (h *inferHub) stats() *infer.Stats {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) == 0 {
		return nil
	}
	var agg infer.Stats
	for _, e := range h.entries {
		agg.Add(e.shared.Stats())
	}
	return &agg
}
