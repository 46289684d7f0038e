package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("x", 0)
	if s != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	s.SetAttr("k", "v")
	s.SetInt("n", 3)
	s.End()
	if s.ID() != 0 {
		t.Fatalf("nil span ID = %d, want 0", s.ID())
	}
	tr.Counter("c").Add(1)
	if got := tr.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value %d", got)
	}
	tr.Stage("s").Observe(time.Millisecond)
	if tr.Spans() != nil || tr.Counters() != nil || tr.Stages() != nil {
		t.Fatalf("nil tracer snapshots not empty")
	}
	ctx, s2 := Start(context.Background(), "root")
	if s2 != nil || FromContext(ctx) != nil {
		t.Fatalf("Start without tracer created state")
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := New()
	ctx := NewContext(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	root.SetAttr("video", "iron_man")
	ctx2, child := Start(ctx, "child")
	_, grand := Start(ctx2, "grandchild")
	grand.SetInt("clip", 7)
	grand.End()
	child.End()
	_, sibling := Start(ctx, "sibling")
	sibling.End()
	root.End()

	trees := tr.Trees()
	if len(trees) != 1 {
		t.Fatalf("got %d roots, want 1", len(trees))
	}
	r := trees[0]
	if r.Name != "root" || len(r.Children) != 2 {
		t.Fatalf("root %q with %d children", r.Name, len(r.Children))
	}
	if r.Children[0].Name != "child" || r.Children[1].Name != "sibling" {
		t.Fatalf("children order %q, %q", r.Children[0].Name, r.Children[1].Name)
	}
	g := r.Children[0].Children
	if len(g) != 1 || g[0].Name != "grandchild" {
		t.Fatalf("grandchild missing: %+v", g)
	}
	if len(g[0].Attrs) != 1 || g[0].Attrs[0].Key != "clip" || g[0].Attrs[0].Value != "7" {
		t.Fatalf("grandchild attrs %+v", g[0].Attrs)
	}

	var buf bytes.Buffer
	RenderTrees(&buf, trees)
	out := buf.String()
	for _, want := range []string{"root", "  child", "    grandchild", "clip=7", "video=iron_man"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, out)
		}
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(WithCapacity(16))
	for i := 0; i < 40; i++ {
		tr.StartSpan("s", 0).End()
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("retained %d spans, want 16", len(spans))
	}
	// Oldest first, and only the most recent window retained.
	if spans[0].ID != SpanID(25) || spans[15].ID != SpanID(40) {
		t.Fatalf("window [%d..%d], want [25..40]", spans[0].ID, spans[15].ID)
	}
	if tr.TotalSpans() != 40 {
		t.Fatalf("total %d, want 40", tr.TotalSpans())
	}
}

func TestCountersAndStagesConcurrent(t *testing.T) {
	tr := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.Counter("hits")
			st := tr.Stage("work")
			for i := 0; i < per; i++ {
				c.Add(1)
				st.Observe(time.Microsecond * time.Duration(i%100))
			}
		}()
	}
	wg.Wait()
	if got := tr.Counter("hits").Value(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
	st := tr.Stages()["work"]
	if st.Count != workers*per {
		t.Fatalf("stage count %d, want %d", st.Count, workers*per)
	}
	if st.MaxUS > 99 || st.P50US < 0 {
		t.Fatalf("implausible stage stats %+v", st)
	}
}

// TestCounterFunc: a counter reads its own count plus every registered
// func, through Value, Counters and /varz alike, and registration races
// with reads without losing a func.
func TestCounterFunc(t *testing.T) {
	tr := New()
	tr.CounterFunc("pulled", func() int64 { return 5 })
	tr.Counter("pulled").Add(1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.CounterFunc("pulled", func() int64 { return 10 })
			_ = tr.Counters()
		}()
	}
	wg.Wait()
	if got := tr.Counter("pulled").Value(); got != 46 {
		t.Fatalf("Value = %d, want 1 + 5 + 4*10", got)
	}
	if got := tr.Counters()["pulled"]; got != 46 {
		t.Fatalf("Counters = %d, want 46", got)
	}
	var buf bytes.Buffer
	tr.WriteVarz(&buf)
	if !strings.Contains(buf.String(), "vaq_pulled 46\n") {
		t.Fatalf("varz lacks the pulled counter:\n%s", buf.String())
	}
	var nilTr *Tracer
	nilTr.CounterFunc("pulled", func() int64 { return 1 }) // no-op
}

func TestWriteVarz(t *testing.T) {
	tr := New()
	tr.Counter("rvaq.clips_pruned").Add(12)
	tr.Stage("pool.wait").Observe(3 * time.Millisecond)
	tr.StartSpan("q", 0).End()
	var buf bytes.Buffer
	tr.WriteVarz(&buf)
	out := buf.String()
	for _, want := range []string{
		"vaq_rvaq_clips_pruned 12",
		`vaq_stage_us_count{stage="pool_wait"} 1`,
		`vaq_stage_us{stage="pool_wait",q="0.50"}`,
		"vaq_trace_spans_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("varz missing %q:\n%s", want, out)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	tr := New(WithSlowLog(0, &buf)) // threshold 0: everything is slow
	ctx := NewContext(context.Background(), tr)
	ctx, root := Start(ctx, "rvaq.topk")
	_, child := Start(ctx, "rvaq.iterate")
	child.End()
	root.End()

	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 || line == "" {
		t.Fatalf("want exactly one JSON line, got %q", buf.String())
	}
	var entry struct {
		Slow  string `json:"slow"`
		DurUS int64  `json:"dur_us"`
		Spans int    `json:"spans"`
		Tree  *Node  `json:"tree"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log line not JSON: %v\n%s", err, line)
	}
	if entry.Slow != "rvaq.topk" || entry.Spans != 2 {
		t.Fatalf("entry %+v", entry)
	}
	if entry.Tree == nil || len(entry.Tree.Children) != 1 || entry.Tree.Children[0].Name != "rvaq.iterate" {
		t.Fatalf("tree %+v", entry.Tree)
	}
	// Non-root spans never trigger the log.
	buf.Reset()
	s := tr.StartSpan("child-only", 42)
	s.End()
	if buf.Len() != 0 {
		t.Fatalf("non-root span logged: %q", buf.String())
	}
}

func TestOrphanedChildBecomesRoot(t *testing.T) {
	tr := New(WithCapacity(16))
	parent := tr.StartSpan("parent", 0)
	child := tr.StartSpan("child", parent.ID())
	child.End()
	// The parent never ends, so its record is absent from the ring;
	// some unrelated spans finish around the child.
	for i := 0; i < 10; i++ {
		tr.StartSpan("noise", 0).End()
	}
	roots := tr.Trees()
	for _, r := range roots {
		if r.Name == "child" {
			return // promoted to root once the parent is unavailable
		}
	}
	t.Fatalf("orphaned child not promoted to root: %+v", roots)
}
