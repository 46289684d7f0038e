package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/quantile"
)

// Counter is a cumulative pipeline-stage counter. Handles are resolved
// once (per engine or query) and bumped lock-free on the hot path; a
// nil *Counter (from a nil tracer) is a no-op. A layer that already
// counts under its own locks registers a CounterFunc instead, and the
// counter reads the sum of its own count and every registered func.
type Counter struct {
	n     atomic.Int64
	funcs atomic.Pointer[[]func() int64] // copy-on-write, see CounterFunc
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	v := c.n.Load()
	if fs := c.funcs.Load(); fs != nil {
		for _, f := range *fs {
			v += f()
		}
	}
	return v
}

// Counter resolves (creating on first use) the named counter. On a nil
// tracer it returns nil, whose methods are no-ops.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	if c, ok := t.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := t.counters.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// CounterFunc adds f to the named counter: each read of the counter
// (Value, Counters, /varz) calls f and adds its result. Several funcs
// may register under one name, as every domain sharing a tracer does;
// the counter then reads their sum. f must be safe to call from any
// goroutine.
func (t *Tracer) CounterFunc(name string, f func() int64) {
	if t == nil {
		return
	}
	c := t.Counter(name)
	for {
		old := c.funcs.Load()
		var fs []func() int64
		if old != nil {
			fs = append(fs, *old...)
		}
		fs = append(fs, f)
		if c.funcs.CompareAndSwap(old, &fs) {
			return
		}
	}
}

// Add bumps the named counter (handle resolution included — prefer
// pre-resolved Counter handles on hot paths).
func (t *Tracer) Add(name string, d int64) { t.Counter(name).Add(d) }

// Counters snapshots every counter, sorted by name.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := map[string]int64{}
	t.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Counter).Value()
		return true
	})
	return out
}

// Stage is a per-pipeline-stage latency sketch (one CKMS quantile
// sketch per stage, the same estimator /metricsz uses per route). A nil
// *Stage is a no-op.
type Stage struct {
	mu     sync.Mutex
	sketch *quantile.Sketch
	count  int64
	sumUS  int64
}

// Observe records one duration for the stage.
func (st *Stage) Observe(d time.Duration) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.sketch.Observe(float64(d) / float64(time.Microsecond))
	st.count++
	st.sumUS += d.Microseconds()
	st.mu.Unlock()
}

// StageStats is one stage's latency snapshot, in microseconds.
type StageStats struct {
	Count int64   `json:"count"`
	SumUS int64   `json:"sum_us"`
	P50US float64 `json:"p50_us"`
	P90US float64 `json:"p90_us"`
	P99US float64 `json:"p99_us"`
	MaxUS float64 `json:"max_us"`
}

func (st *Stage) stats() StageStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StageStats{
		Count: st.count,
		SumUS: st.sumUS,
		P50US: st.sketch.Query(0.50),
		P90US: st.sketch.Query(0.90),
		P99US: st.sketch.Query(0.99),
		MaxUS: st.sketch.Max(),
	}
}

// Stage resolves (creating on first use) the named stage sketch. On a
// nil tracer it returns nil, whose Observe is a no-op.
func (t *Tracer) Stage(name string) *Stage {
	if t == nil {
		return nil
	}
	if s, ok := t.stages.Load(name); ok {
		return s.(*Stage)
	}
	s, _ := t.stages.LoadOrStore(name, &Stage{sketch: quantile.New()})
	return s.(*Stage)
}

// Observe records one duration for the named stage (handle resolution
// included — prefer pre-resolved Stage handles on hot paths).
func (t *Tracer) Observe(name string, d time.Duration) { t.Stage(name).Observe(d) }

// Stages snapshots every stage sketch.
func (t *Tracer) Stages() map[string]StageStats {
	if t == nil {
		return nil
	}
	out := map[string]StageStats{}
	t.stages.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Stage).stats()
		return true
	})
	return out
}

// sortedKeys orders a snapshot's keys for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
