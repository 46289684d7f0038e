package vaq

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"vaq/internal/detect"
	"vaq/internal/synth"
	"vaq/internal/trace"
)

// TestTracePipelineStagesOncePerClip locks the shape of a -trace run:
// without short-circuiting (the default), every clip span carries one
// child span per pipeline stage — each object predicate and the action —
// exactly once, in every clip. This is the invariant the vaqquery -trace
// listing relies on.
func TestTracePipelineStagesOncePerClip(t *testing.T) {
	qs, err := synth.YouTubeScaled("q2", DefaultGeometry(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	scene := qs.World.Scene()
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	meta := qs.World.Truth.Meta
	stream, err := NewStreamQuery(qs.Query, det, rec, meta.Geom, StreamConfig{
		Dynamic: true, HorizonClips: meta.Clips(),
	})
	if err != nil {
		t.Fatal(err)
	}

	nclips := meta.Clips()
	tr := trace.New(trace.WithCapacity((nclips + 1) * 9))
	root := tr.StartSpan("run", 0)
	stream.AttachTrace(tr, root.ID())
	for c := 0; c < nclips; c++ {
		if _, err := stream.ProcessClip(c); err != nil {
			t.Fatal(err)
		}
	}
	root.End()

	want := map[string]int{}
	for _, o := range qs.Query.Objects {
		want["obj:"+string(o)] = 1
	}
	if qs.Query.Action != "" {
		want["act:"+string(qs.Query.Action)] = 1
	}
	if len(want) < 2 {
		t.Fatalf("workload query %v has fewer than 2 predicates; test needs a multi-stage pipeline", qs.Query)
	}

	trees := tr.Trees()
	if len(trees) != 1 || trees[0].Name != "run" {
		t.Fatalf("want a single retained root span %q, got %d roots", "run", len(trees))
	}
	clips := 0
	trees[0].Walk(func(n *trace.Node) {
		if n.Name != "svaq.clip" {
			return
		}
		clips++
		got := map[string]int{}
		for _, c := range n.Children {
			got[c.Name]++
		}
		for stage, cnt := range want {
			if got[stage] != cnt {
				t.Fatalf("clip span %d: stage %q appears %d times, want %d", n.ID, stage, got[stage], cnt)
			}
		}
		for stage := range got {
			if _, ok := want[stage]; !ok {
				t.Fatalf("clip span %d: unexpected stage %q", n.ID, stage)
			}
		}
	})
	if clips != nclips {
		t.Fatalf("retained %d svaq.clip spans, want %d", clips, nclips)
	}

	// Counter cross-check: the span-level clip count and the flat
	// counter must agree, and detector invocation counters must match
	// the engine's own accounting.
	counters := tr.Counters()
	if counters["svaq.clips"] != int64(nclips) {
		t.Fatalf("svaq.clips counter = %d, want %d", counters["svaq.clips"], nclips)
	}
	if got := counters["detect.frame_invocations"] + counters["detect.shot_invocations"]; got != int64(stream.Invocations()) {
		t.Fatalf("invocation counters sum to %d, engine reports %d", got, stream.Invocations())
	}
}

// TestTraceGlobalTopKSharded is the issue's acceptance scenario: a
// traced end-to-end offline run — in-process ingestion followed by a
// sharded repository-wide top-k — must produce a span tree containing
// the ingest, per-shard top-k, bound-exchange and merge stages, with
// non-zero detector invocation and clip-pruned counters.
func TestTraceGlobalTopKSharded(t *testing.T) {
	tr := trace.New(trace.WithCapacity(1 << 15))
	ctx := trace.NewContext(context.Background(), tr)

	repo, err := OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"coffee_and_cigarettes", "iron_man", "star_wars_3", "titanic"} {
		qs, err := synth.MovieScaled(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		scene := qs.World.Scene()
		det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		truth := qs.World.Truth
		vd, err := IngestVideoCtx(ctx, det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(), IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Add(name, vd); err != nil {
			t.Fatal(err)
		}
	}

	q := Query{Action: "smoking", Objects: []Label{"wine_glass", "cup"}}
	results, _, err := repo.TopKGlobalOpts(q, 1, ExecOptions{Ctx: ctx, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("global top-k returned no results")
	}

	seen := map[string]int{}
	for _, root := range tr.Trees() {
		root.Walk(func(n *trace.Node) { seen[n.Name]++ })
	}
	for _, stage := range []string{
		"ingest.video", "ingest.infer", "ingest.stats",
		"topk.global", "topk.shard", "rvaq.topk", "rvaq.iterate",
		"rvaq.exchange", "topk.merge",
	} {
		if seen[stage] == 0 {
			t.Errorf("span tree is missing stage %q (got %v)", stage, seen)
		}
	}
	if seen["topk.shard"] != 4 {
		t.Errorf("want 4 topk.shard spans (one per video), got %d", seen["topk.shard"])
	}

	counters := tr.Counters()
	for _, c := range []string{"detect.frame_invocations", "detect.shot_invocations", "rvaq.clips_pruned", "rvaq.random_accesses"} {
		if counters[c] <= 0 {
			t.Errorf("counter %q = %d, want > 0", c, counters[c])
		}
	}

	// The fan-out records one topk.global span over all four videos.
	found := false
	for _, root := range tr.Trees() {
		root.Walk(func(n *trace.Node) {
			if n.Name != "topk.global" {
				return
			}
			for _, a := range n.Attrs {
				if a.Key == "videos" && a.Value == "4" {
					found = true
				}
			}
		})
	}
	if !found {
		t.Error("no topk.global span with videos=4")
	}

	// The varz exposition must carry every counter the JSON snapshot
	// reports, with identical values.
	var sb strings.Builder
	tr.WriteVarz(&sb)
	varz := sb.String()
	for name, v := range counters {
		mn := strings.Map(func(r rune) rune {
			if r == '.' || r == '-' {
				return '_'
			}
			return r
		}, name)
		want := "vaq_" + mn + " "
		line := ""
		for _, l := range strings.Split(varz, "\n") {
			if strings.HasPrefix(l, want) {
				line = l
			}
		}
		if line == "" {
			t.Errorf("varz is missing counter %s", want)
			continue
		}
		if !strings.HasSuffix(line, " "+strconv.FormatInt(v, 10)) {
			t.Errorf("varz line %q disagrees with counter %s=%d", line, name, v)
		}
	}
}
