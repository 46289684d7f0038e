package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/tables"
	"vaq/internal/video"
)

// The harness's own tracing: spans recorded from outside, around the
// calls the benchmark makes into each layer, plus count+busy shims at
// the two exported interfaces every hot loop crosses (tables.Table and
// the detect backends). Per-access spans would cost more than the
// ~250 ns FileTable read they would measure, so the shims aggregate and
// the enclosing span carries the totals as attributes.

// spanRec is one finished span. Times are nanoseconds since the
// recorder started; Parent 0 marks a root; spans of one replayed
// request share Req.
type spanRec struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Req    int64            `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// (untraced runs) records nothing: root returns a nil span and every
// span method is a no-op on nil, so call sites need no branching.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

type liveSpan struct {
	r   *recorder
	rec spanRec
}

func (r *recorder) root(name string) *liveSpan {
	if r == nil {
		return nil
	}
	return &liveSpan{r: r, rec: spanRec{
		ID: r.ids.Add(1), Req: r.reqs.Add(1), Name: name, Start: int64(time.Since(r.t0)),
	}}
}

func (s *liveSpan) child(name string) *liveSpan {
	if s == nil {
		return nil
	}
	return &liveSpan{r: s.r, rec: spanRec{
		ID: s.r.ids.Add(1), Parent: s.rec.ID, Req: s.rec.Req, Name: name, Start: int64(time.Since(s.r.t0)),
	}}
}

func (s *liveSpan) set(key string, v int64) {
	if s == nil {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = map[string]int64{}
	}
	s.rec.Attrs[key] = v
}

func (s *liveSpan) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.r.t0))
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.rec)
	s.r.mu.Unlock()
}

// layerTotals aggregates the recorded spans by name: count, total
// duration and self time (duration minus the part child spans cover).
type layerTotal struct {
	Count  int64 `json:"count"`
	DurNS  int64 `json:"dur_ns"`
	SelfNS int64 `json:"self_ns"`
}

// checkSpans verifies the recorded forest — every child lies inside
// its parent, siblings do not overlap, so for each root the self times
// of its subtree sum to its duration — and returns per-name totals.
func checkSpans(spans []spanRec) (map[string]layerTotal, error) {
	byID := make(map[int64]*spanRec, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	childDur := make(map[int64]int64, len(spans))
	rootOf := func(s *spanRec) int64 {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.ID
	}
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		childDur[s.Parent] += s.End - s.Start
	}
	totals := map[string]layerTotal{}
	selfByRoot := map[int64]int64{}
	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Start
		self := dur - childDur[s.ID]
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s): children cover %d ns of its %d ns (overlapping siblings)",
				s.ID, s.Name, childDur[s.ID], dur)
		}
		t := totals[s.Name]
		t.Count++
		t.DurNS += dur
		t.SelfNS += self
		totals[s.Name] = t
		selfByRoot[rootOf(s)] += self
	}
	for id, self := range selfByRoot {
		r := byID[id]
		if dur := r.End - r.Start; self != dur {
			return nil, fmt.Errorf("root span %d (%s): self times sum to %d ns, duration is %d ns", id, r.Name, self, dur)
		}
	}
	return totals, nil
}

// traceFile is what -trace 1 writes to out/trace_<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Layers   map[string]layerTotal `json:"layers"`
	Spans    []spanRec             `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) (map[string]layerTotal, error) {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	totals, err := checkSpans(spans)
	if err != nil {
		return nil, err
	}
	blob, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Layers: totals, Spans: spans})
	if err != nil {
		return nil, fmt.Errorf("marshal trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return totals, nil
}

// busy counts calls through a shim and, when timed, the time spent in
// them. Safe for concurrent use.
type busy struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (b *busy) snapshot() (calls, nanos int64) { return b.calls.Load(), b.nanos.Load() }

// detShim / recShim interpose on the infallible detect interfaces —
// below detect.AsFallible*, so the adapters above still carry the
// InfallibleBackend marker and resilience keeps its fast path. Calls
// are counted as model invocations (units × labels), the paper's
// accounting; busy time is taken only in traced runs.
type detShim struct {
	inner detect.ObjectDetector
	b     *busy
	timed bool
}

func (d *detShim) Name() string { return d.inner.Name() }

func (d *detShim) Detect(v video.FrameIdx, labels []annot.Label) []detect.Detection {
	d.b.calls.Add(int64(len(labels)))
	if !d.timed {
		return d.inner.Detect(v, labels)
	}
	t := time.Now()
	out := d.inner.Detect(v, labels)
	d.b.nanos.Add(int64(time.Since(t)))
	return out
}

type recShim struct {
	inner detect.ActionRecognizer
	b     *busy
	timed bool
}

func (r *recShim) Name() string { return r.inner.Name() }

func (r *recShim) Recognize(s video.ShotIdx, labels []annot.Label) []detect.ActionScore {
	r.b.calls.Add(int64(len(labels)))
	if !r.timed {
		return r.inner.Recognize(s, labels)
	}
	t := time.Now()
	out := r.inner.Recognize(s, labels)
	r.b.nanos.Add(int64(time.Since(t)))
	return out
}

// tableShim times every access of a wrapped table into one shared busy
// counter (traced runs only; untraced runs use the tables unwrapped).
type tableShim struct {
	inner tables.Table
	b     *busy
}

func (t *tableShim) Label() string { return t.inner.Label() }
func (t *tableShim) Len() int      { return t.inner.Len() }

func (t *tableShim) SortedRow(i int, c *tables.AccessCounter) (tables.Row, error) {
	t0 := time.Now()
	r, err := t.inner.SortedRow(i, c)
	t.b.nanos.Add(int64(time.Since(t0)))
	t.b.calls.Add(1)
	return r, err
}

func (t *tableShim) ReverseRow(i int, c *tables.AccessCounter) (tables.Row, error) {
	t0 := time.Now()
	r, err := t.inner.ReverseRow(i, c)
	t.b.nanos.Add(int64(time.Since(t0)))
	t.b.calls.Add(1)
	return r, err
}

func (t *tableShim) RandomGet(cid int32, c *tables.AccessCounter) (float64, bool, error) {
	t0 := time.Now()
	s, ok, err := t.inner.RandomGet(cid, c)
	t.b.nanos.Add(int64(time.Since(t0)))
	t.b.calls.Add(1)
	return s, ok, err
}
