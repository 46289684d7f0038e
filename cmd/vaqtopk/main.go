// Command vaqtopk answers an offline top-k query against a repository
// built by vaqingest, comparing RVAQ against the paper's baselines on
// request.
//
//	vaqtopk -dir vaq-repo -video coffee_and_cigarettes \
//	        -action smoking -objects wine_glass,cup -k 5 -compare
//
// With -synth it skips -dir and ingests the named synthetic movies into
// a temporary repository in-process first — combined with -trace the
// span tree covers the full offline path, ingestion included:
//
//	vaqtopk -synth coffee_and_cigarettes,iron_man -scale 0.25 -global -trace
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vaq"
	"vaq/internal/detect"
	"vaq/internal/infer"
	"vaq/internal/ingest"
	"vaq/internal/resilience"
	"vaq/internal/rvaq"
	"vaq/internal/server"
	"vaq/internal/synth"
	"vaq/internal/trace"
)

func main() {
	var (
		dirFlag      = flag.String("dir", "vaq-repo", "repository directory")
		videoFlag    = flag.String("video", "", "video name (empty = all videos)")
		actionFlag   = flag.String("action", "", "queried action label")
		objectsFlag  = flag.String("objects", "", "comma-separated object labels")
		kFlag        = flag.Int("k", 5, "number of results")
		compareFlag  = flag.Bool("compare", false, "also run FA, RVAQ-noSkip and Pq-Traverse")
		jsonFlag     = flag.Bool("json", false, "emit results as JSON in the server's /v1/topk response shape (skips -compare)")
		workersFlag  = flag.Int("workers", 0, "parallel per-video executions for all-video queries (0 = GOMAXPROCS, 1 = serial)")
		globalFlag   = flag.Bool("global", false, "rank across the merged repository namespace instead of merging per-video top-ks")
		synthFlag    = flag.String("synth", "", "comma-separated synthetic movie names to ingest in-process into a temporary repository (skips -dir)")
		scaleFlag    = flag.Float64("scale", 0.25, "workload scale for -synth ingestion")
		traceFlag    = flag.Bool("trace", false, "record spans across ingestion and the query; print the tree, counters and stage quantiles at exit")
		deadlineFlag = flag.Duration("deadline", 0, "bound the whole query (0 = none)")
		partialFlag  = flag.Bool("partial", false, "on deadline expiry return the best-so-far ranking flagged incomplete instead of failing")
		hopDiscFlag  = flag.String("hop-discounts", "", "comma-separated per-hop discount factors in [0, 1]: entry h down-weights clips whose worst degraded unit came from fallback hop h and flags matching results; one entry is a flat discount (empty = off)")
		batchWFlag   = flag.Duration("batch-window", 0, "micro-batch same-label detector calls during -synth ingestion (0 = off)")
		batchNFlag   = flag.Int("batch-max", infer.DefaultBatchMax, "max units per micro-batched detector call")
		planRFlag    = flag.Int("plan-rate", 0, "coarse-to-fine sampling during -synth ingestion: base rate 1-in-N (0 = dense, 1 = dense through the planner)")
		planLFlag    = flag.Int("plan-levels", 0, "cap the planner's densification ladder (0 = full ladder)")
		expFlag      = flag.Bool("explain", false, "collect a per-query EXPLAIN profile; print the attribution tree after the results (embedded in the document with -json)")
	)
	flag.Parse()
	var hopDiscounts []float64
	if *hopDiscFlag != "" {
		for _, s := range strings.Split(*hopDiscFlag, ",") {
			d, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal(fmt.Errorf("-hop-discounts: %w", err))
			}
			if d < 0 || d > 1 {
				fatal(fmt.Errorf("-hop-discounts entries must be in [0, 1], got %v", d))
			}
			hopDiscounts = append(hopDiscounts, d)
		}
	}
	if *batchNFlag <= 0 {
		fatal(fmt.Errorf("-batch-max must be positive, got %d", *batchNFlag))
	}
	if *batchWFlag < 0 {
		fatal(fmt.Errorf("-batch-window must be non-negative, got %v", *batchWFlag))
	}
	planCfg := vaq.PlanConfig{Rate: *planRFlag, Levels: *planLFlag}
	if err := planCfg.Validate(); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	var tr *vaq.Tracer
	var root *trace.Span
	if *traceFlag {
		tr = trace.New(trace.WithCapacity(1 << 16))
		ctx = trace.NewContext(ctx, tr)
		root = tr.StartSpan("vaqtopk", 0)
		ctx = trace.ContextWithSpan(ctx, root)
		defer func() {
			root.End()
			out := io.Writer(os.Stdout)
			if *jsonFlag {
				out = os.Stderr
			}
			fmt.Fprintln(out, "--- trace ---")
			trace.RenderTrees(out, tr.Trees())
			fmt.Fprintln(out, "--- metrics ---")
			tr.WriteVarz(out)
		}()
	}
	eo := vaq.ExecOptions{Workers: *workersFlag, Ctx: ctx, Deadline: *deadlineFlag, Partial: *partialFlag, HopDiscounts: hopDiscounts}

	q := vaq.Query{Action: vaq.Label(*actionFlag)}
	for _, o := range strings.Split(*objectsFlag, ",") {
		if o = strings.TrimSpace(o); o != "" {
			q.Objects = append(q.Objects, vaq.Label(o))
		}
	}

	var repo *vaq.Repository
	var err error
	if *synthFlag != "" {
		var dens map[string]vaq.Densify
		repo, dens, err = ingestSynth(ctx, *synthFlag, *scaleFlag, *batchWFlag, *batchNFlag, planCfg, &q)
		// In-process ingestion keeps the detectors around, so planned
		// repositories answer with exact scores via densification.
		eo.Densifiers = dens
	} else {
		repo, err = vaq.OpenRepository(*dirFlag)
	}
	if err != nil {
		fatal(err)
	}
	if err := q.Validate(); err != nil {
		fatal(err)
	}

	var ex *vaq.ExplainCollector
	var qstart time.Time
	if *expFlag {
		ex = vaq.NewExplainCollector("topk")
		ex.SetID("cli")
		ex.SetWorkload(*videoFlag)
		ex.SetQuery(fmt.Sprintf("%v", q))
		eo.Explain = ex
		qstart = time.Now()
	}
	// finishExplain stamps the duration and snapshots the profile; nil
	// when -explain is off.
	finishExplain := func() *vaq.ExplainProfile {
		if ex == nil {
			return nil
		}
		ex.SetDurUS(time.Since(qstart).Microseconds())
		p := ex.Profile()
		return &p
	}
	printExplain := func() {
		if p := finishExplain(); p != nil {
			fmt.Println("--- explain ---")
			vaq.RenderExplain(os.Stdout, *p)
		}
	}

	if *videoFlag == "" {
		run := repo.TopKAllOpts
		if *globalFlag {
			run = repo.TopKGlobalOpts
		}
		results, stats, err := run(q, *kFlag, eo)
		if err != nil {
			fatal(err)
		}
		if *jsonFlag {
			out := server.TopKResponse{
				Results:        []server.TopKEntry{},
				RuntimeUS:      stats.Runtime.Microseconds(),
				CPURuntimeUS:   stats.CPURuntime.Microseconds(),
				RandomAccesses: stats.Accesses.Random,
				Candidates:     stats.Candidates,
				Incomplete:     stats.Incomplete,
				DegradedClips:  stats.DegradedClips,
			}
			out.Explain = finishExplain()
			for _, r := range results {
				out.Results = append(out.Results, server.TopKEntry{
					Video: r.Video, Seq: server.Range{Lo: r.Seq.Lo, Hi: r.Seq.Hi}, Score: r.Score, Degraded: r.Degraded,
				})
			}
			emitJSON(out)
			return
		}
		fmt.Printf("top-%d for %v across %v (wall %v, cpu %v, %d random accesses)%s%s%s:\n",
			*kFlag, q, repo.Videos(), stats.Runtime.Round(time.Microsecond),
			stats.CPURuntime.Round(time.Microsecond), stats.Accesses.Random,
			incompleteMark(stats), degradedMark(stats), plannedMark(stats))
		for i, r := range results {
			fmt.Printf("  %2d. %-24s clips %v  score %.2f%s\n", i+1, r.Video, r.Seq, r.Score, degradedFlag(r.Degraded))
		}
		printExplain()
		return
	}

	results, stats, err := repo.TopKOpts(*videoFlag, q, *kFlag, eo)
	if err != nil {
		fatal(err)
	}
	if *jsonFlag {
		out := server.TopKResponse{
			Results:        []server.TopKEntry{},
			RuntimeUS:      stats.Runtime.Microseconds(),
			RandomAccesses: stats.Accesses.Random,
			Candidates:     stats.Candidates,
			Incomplete:     stats.Incomplete,
			DegradedClips:  stats.DegradedClips,
		}
		out.Explain = finishExplain()
		for _, r := range results {
			out.Results = append(out.Results, server.TopKEntry{
				Seq: server.Range{Lo: r.Seq.Lo, Hi: r.Seq.Hi}, Score: r.Score, Degraded: r.Degraded,
			})
		}
		emitJSON(out)
		return
	}
	fmt.Printf("top-%d for %v on %s (%v, %d random accesses, |Pq|=%d)%s%s%s:\n",
		*kFlag, q, *videoFlag, stats.Runtime.Round(time.Microsecond), stats.Accesses.Random, stats.Candidates,
		incompleteMark(stats), degradedMark(stats), plannedMark(stats))
	for i, r := range results {
		fmt.Printf("  %2d. clips %v  score %.2f%s\n", i+1, r.Seq, r.Score, degradedFlag(r.Degraded))
	}
	printExplain()
	if !*compareFlag {
		return
	}

	// The comparison needs the raw video metadata.
	vd, err := ingest.Load(*dirFlag + "/" + *videoFlag)
	if err != nil {
		fatal(err)
	}
	baselines := []struct {
		name string
		run  func() (rvaq.Stats, error)
	}{
		{"FA", func() (rvaq.Stats, error) { _, s, err := rvaq.FA(vd, q, *kFlag, rvaq.DefaultOptions()); return s, err }},
		{"RVAQ-noSkip", func() (rvaq.Stats, error) {
			_, s, err := rvaq.NoSkip(vd, q, *kFlag, rvaq.DefaultOptions())
			return s, err
		}},
		{"Pq-Traverse", func() (rvaq.Stats, error) {
			_, s, err := rvaq.PqTraverse(vd, q, *kFlag, rvaq.DefaultOptions())
			return s, err
		}},
	}
	fmt.Println("baselines:")
	for _, b := range baselines {
		stats, err := b.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", b.name, err))
		}
		fmt.Printf("  %-12s %10v  %6d random accesses\n",
			b.name, stats.Runtime.Round(time.Microsecond), stats.Accesses.Random)
	}
}

// ingestSynth builds a temporary repository by ingesting the named
// synthetic movies in-process; with a tracer in ctx the ingestion spans
// land in the same tree as the query's. An empty query is filled from
// the first movie's own Table 2 query. The backing directory is removed
// before returning — the repository keeps every video in memory. With
// planning armed, the returned densifier map completes planned clips
// exactly through the same in-process detectors.
func ingestSynth(ctx context.Context, names string, scale float64, batchWindow time.Duration, batchMax int, planCfg vaq.PlanConfig, q *vaq.Query) (*vaq.Repository, map[string]vaq.Densify, error) {
	tmp, err := os.MkdirTemp("", "vaqtopk-synth-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	repo, err := vaq.OpenRepository(tmp)
	if err != nil {
		return nil, nil, err
	}
	densifiers := map[string]vaq.Densify{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		qs, err := synth.MovieScaled(name, scale)
		if err != nil {
			return nil, nil, err
		}
		if q.Action == "" && len(q.Objects) == 0 {
			*q = qs.Query
		}
		scene := qs.World.Scene()
		var det detect.ObjectDetector = detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		var rec detect.ActionRecognizer = detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		if batchWindow > 0 {
			// Route ingest invocations through the micro-batcher; results
			// are byte-identical to per-unit calls, so the repository — and
			// therefore the query answer — doesn't change, only the call
			// count. The pass-through resilience wrap restores the plain
			// detector interfaces IngestVideoCtx consumes. The flags were
			// validated above, so construction cannot fail.
			sh := infer.MustNew(infer.Config{BatchWindow: batchWindow, BatchMax: batchMax})
			models := resilience.WrapFallible(
				sh.Object(detect.AsFallibleObject(det)),
				sh.Action(detect.AsFallibleAction(rec)),
				resilience.DefaultPolicy(), resilience.Options{})
			det, rec = models.Det, models.Rec
		}
		truth := qs.World.Truth
		vd, err := vaq.IngestVideoCtx(ctx, det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(),
			vaq.IngestConfig{Workers: runtime.NumCPU(), Plan: planCfg})
		if err != nil {
			return nil, nil, fmt.Errorf("ingest %s: %w", name, err)
		}
		if err := repo.Add(name, vd); err != nil {
			return nil, nil, err
		}
		if vd.Plan != nil {
			d, err := vaq.NewDensifier(vd, det, rec, *q)
			if err != nil {
				return nil, nil, fmt.Errorf("densifier %s: %w", name, err)
			}
			densifiers[name] = d
		}
	}
	if len(densifiers) == 0 {
		return repo, nil, nil
	}
	return repo, densifiers, nil
}

// incompleteMark flags a deadline-truncated ranking in the text output.
func incompleteMark(stats vaq.TopKStats) string {
	if stats.Incomplete {
		return " [INCOMPLETE: deadline fired, scores are lower bounds]"
	}
	return ""
}

// degradedMark summarizes the discount's reach in the text output.
func degradedMark(stats vaq.TopKStats) string {
	if stats.DegradedClips > 0 {
		return fmt.Sprintf(" [%d degraded clips discounted]", stats.DegradedClips)
	}
	return ""
}

// plannedMark summarizes planner-related score handling in the output.
func plannedMark(stats vaq.TopKStats) string {
	switch {
	case stats.Bounded:
		return " [BOUNDED: planned repository without densifier, scores are lower bounds]"
	case stats.DensifiedClips > 0:
		return fmt.Sprintf(" [%d clips densified]", stats.DensifiedClips)
	}
	return ""
}

// degradedFlag marks a single degraded result row.
func degradedFlag(degraded bool) string {
	if degraded {
		return "  [degraded]"
	}
	return ""
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vaqtopk:", err)
	os.Exit(1)
}
