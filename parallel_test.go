package vaq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"vaq/internal/detect"
	"vaq/internal/ingest"
	"vaq/internal/interval"
	"vaq/internal/rvaq"
	"vaq/internal/synth"
)

// multiRepo builds a repository of n distinct synthetic videos that all
// carry the q2 labels (blowing_leaves; car, plant), so one query has
// candidates in every video. Each video is the q2 world regenerated
// under a different seed.
func multiRepo(tb testing.TB, n int, scale float64) (*Repository, Query) {
	tb.Helper()
	spec, q, err := synth.YouTubeSpec("q2", DefaultGeometry())
	if err != nil {
		tb.Fatal(err)
	}
	spec = spec.Scaled(scale)
	repo, err := OpenRepository(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := spec
		s.Name = fmt.Sprintf("v%02d", i)
		s.Seed = spec.Seed + int64(1+97*i)
		w, err := synth.Generate(s)
		if err != nil {
			tb.Fatal(err)
		}
		scene := w.Scene()
		det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		vd, err := IngestVideo(det, rec, w.Truth.Meta, w.Truth.ObjectLabels(), w.Truth.ActionLabels(), IngestConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		if err := repo.Add(s.Name, vd); err != nil {
			tb.Fatal(err)
		}
	}
	return repo, q
}

func sameResults(tb testing.TB, label string, want, got []VideoTopKResult, tol float64) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Video != g.Video || w.Seq != g.Seq {
			tb.Fatalf("%s: rank %d = %s %v, want %s %v", label, i, g.Video, g.Seq, w.Video, w.Seq)
		}
		if math.Abs(w.Score-g.Score) > tol {
			tb.Fatalf("%s: rank %d score %v, want %v", label, i, g.Score, w.Score)
		}
	}
}

// mergedOracle is the paper's namespaced formulation of a
// repository-wide query (§4.2): every video merged into one clip-id
// namespace by ingest.Merge, one RVAQ run over it, and each result
// mapped back to its video. TopKGlobalOpts must reproduce its ranking.
func mergedOracle(tb testing.TB, repo *Repository, q Query, k int) []VideoTopKResult {
	tb.Helper()
	names := repo.Videos()
	videos, err := repo.videos(names)
	if err != nil {
		tb.Fatal(err)
	}
	merged, err := ingest.Merge(videos, names)
	if err != nil {
		tb.Fatal(err)
	}
	res, _, err := rvaq.TopKCtx(context.Background(), merged.VideoData, q, k, rvaq.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]VideoTopKResult, 0, len(res))
	for _, sr := range res {
		name, local, ok := merged.LocateSeq(sr.Seq)
		if !ok {
			tb.Fatalf("oracle result %v outside every video span", sr.Seq)
		}
		out = append(out, VideoTopKResult{Video: name, TopKResult: TopKResult{Seq: local, Score: sr.Score, Degraded: sr.Degraded}})
	}
	return out
}

// matchesMergedOracle runs the global query at several fan-out widths
// and on a shared pool (the daemon's configuration) and checks every
// run against the merged-namespace oracle. The per-video iterators
// exchange B_lo^K, which only prunes sequences whose upper bound lies
// strictly below a proven global lower bound, so the rankings coincide
// at any width.
func matchesMergedOracle(t *testing.T, repo *Repository, q Query, k int) {
	t.Helper()
	want := mergedOracle(t, repo, q, k)
	if len(want) == 0 {
		t.Fatalf("k=%d: oracle has no results", k)
	}
	for _, workers := range []int{1, 2, 4} {
		got, stats, err := repo.TopKGlobalOpts(q, k, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("k=%d workers=%d", k, workers), want, got, 1e-9)
		if stats.Candidates == 0 {
			t.Fatalf("k=%d workers=%d: empty stats %+v", k, workers, stats)
		}
	}
	p := NewWorkerPool(3)
	pooled, _, err := repo.TopKGlobalOpts(q, k, ExecOptions{Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, fmt.Sprintf("k=%d pooled", k), want, pooled, 1e-9)
	if p.InUse() != 0 {
		t.Fatalf("k=%d: %d pool slots leaked", k, p.InUse())
	}
}

// TestTopKAllParallelMatchesSequential asserts the fan-out width is a
// pure performance choice for a repository-wide query: any worker count,
// and a shared pool, reproduce the 1-worker ranking bit for bit.
func TestTopKAllParallelMatchesSequential(t *testing.T) {
	repo, q := multiRepo(t, 3, 0.12)
	for _, k := range []int{1, 4, 9} {
		seq, seqStats, err := repo.TopKGlobalOpts(q, k, ExecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 {
			t.Fatalf("k=%d: no sequential results", k)
		}
		for _, workers := range []int{2, 4} {
			par, parStats, err := repo.TopKGlobalOpts(q, k, ExecOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("k=%d workers=%d", k, workers), seq, par, 0)
			if par := parStats.Candidates; par != seqStats.Candidates {
				t.Fatalf("k=%d workers=%d: %d candidates, want %d", k, workers, par, seqStats.Candidates)
			}
		}
		p := NewWorkerPool(3)
		pooled, _, err := repo.TopKGlobalOpts(q, k, ExecOptions{Pool: p})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("k=%d pooled", k), seq, pooled, 0)
		if p.InUse() != 0 {
			t.Fatalf("k=%d: %d pool slots leaked", k, p.InUse())
		}
	}
}

// TestTopKGlobalShardedMatchesMerged pits the per-video fan-out against
// the merged-namespace oracle at k in {1, 4, 9}.
func TestTopKGlobalShardedMatchesMerged(t *testing.T) {
	repo, q := multiRepo(t, 3, 0.12)
	for _, k := range []int{1, 4, 9} {
		matchesMergedOracle(t, repo, q, k)
	}
}

// TestTopKGlobalMoviesMatchesMergedOracle repeats the oracle check on
// the Table 2 movie workloads: two movies ingested with a shared label
// universe, queried with the first movie's query.
func TestTopKGlobalMoviesMatchesMergedOracle(t *testing.T) {
	repo, err := OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var q Query
	for i, name := range []string{"coffee_and_cigarettes", "iron_man"} {
		qs, err := synth.MovieScaled(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			q = qs.Query
		}
		scene := qs.World.Scene()
		det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		truth := qs.World.Truth
		objs := append(truth.ObjectLabels(), q.Objects...)
		acts := append(truth.ActionLabels(), q.Action)
		vd, err := IngestVideo(det, rec, truth.Meta, dedupLabels(objs), dedupLabels(acts), IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Add(name, vd); err != nil {
			t.Fatal(err)
		}
	}
	matchesMergedOracle(t, repo, q, 5)
}

// TestTopKGlobalMissingLabel: a video that never ingested the queried
// action contributes no candidates — its span would be empty in the
// merged namespace — so the query ranks the other videos. Only when no
// video has the action does it fail, with ErrNotIngested.
func TestTopKGlobalMissingLabel(t *testing.T) {
	repo, q := multiRepo(t, 2, 0.08)
	qs, err := synth.YouTubeScaled("q4", DefaultGeometry(), 0.08)
	if err != nil {
		t.Fatal(err)
	}
	scene := qs.World.Scene()
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	truth := qs.World.Truth
	var acts []Label
	for _, a := range truth.ActionLabels() {
		if a != q.Action {
			acts = append(acts, a)
		}
	}
	vd, err := IngestVideo(det, rec, truth.Meta, dedupLabels(append(truth.ObjectLabels(), q.Objects...)), acts, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add("v-no-action", vd); err != nil {
		t.Fatal(err)
	}
	want := mergedOracle(t, repo, q, 5)
	if len(want) == 0 {
		t.Fatal("oracle has no results")
	}
	for _, workers := range []int{1, 4} {
		got, _, err := repo.TopKGlobalOpts(q, 5, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameResults(t, fmt.Sprintf("workers=%d", workers), want, got, 1e-9)
		none := Query{Action: "smoking", Objects: q.Objects}
		if _, _, err := repo.TopKGlobalOpts(none, 5, ExecOptions{Workers: workers}); !errors.Is(err, ingest.ErrNotIngested) {
			t.Fatalf("workers=%d: action no video has: err = %v, want ErrNotIngested", workers, err)
		}
	}
}

func dedupLabels(ls []Label) []Label {
	seen := make(map[Label]bool, len(ls))
	out := ls[:0]
	for _, l := range ls {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// TestTopKGlobalStaleNames is the regression test for the discarded
// Video() ok: a names snapshot can go stale when a concurrent Remove
// wins the race, and the lookup the fan-out runs on its snapshot must
// fail with ErrVideoNotFound instead of handing a nil *VideoData to
// RVAQ.
func TestTopKGlobalStaleNames(t *testing.T) {
	repo, q := multiRepo(t, 2, 0.05)
	stale := append(repo.Videos(), "zz-removed")
	if _, err := repo.videos(stale); !errors.Is(err, ErrVideoNotFound) {
		t.Fatalf("fan-out lookup with stale names: err = %v, want ErrVideoNotFound", err)
	}
	if _, _, err := repo.TopKOpts("zz-removed", q, 3, ExecOptions{}); !errors.Is(err, ErrVideoNotFound) {
		t.Fatalf("TopKOpts on unknown video: err = %v, want ErrVideoNotFound", err)
	}
}

// TestSortVideoResultsDeterministic asserts the merge order that
// replaced the insertion sort: score descending, ties broken by video
// name then sequence start — the order the merged clip-id namespace
// induces.
func TestSortVideoResultsDeterministic(t *testing.T) {
	mk := func(video string, lo int, score float64) VideoTopKResult {
		return VideoTopKResult{Video: video, TopKResult: TopKResult{Seq: interval.Interval{Lo: lo, Hi: lo + 3}, Score: score}}
	}
	all := []VideoTopKResult{
		mk("v02", 10, 0.5), mk("v00", 40, 0.5), mk("v01", 7, 0.9),
		mk("v00", 5, 0.5), mk("v00", 5, 0.7), mk("v02", 2, 0.9),
	}
	want := []VideoTopKResult{
		mk("v01", 7, 0.9), mk("v02", 2, 0.9), mk("v00", 5, 0.7),
		mk("v00", 5, 0.5), mk("v00", 40, 0.5), mk("v02", 10, 0.5),
	}
	// Any starting permutation must land on the same order.
	for shift := 0; shift < len(all); shift++ {
		perm := append(append([]VideoTopKResult{}, all[shift:]...), all[:shift]...)
		sortVideoResults(perm)
		for i := range want {
			if perm[i] != want[i] {
				t.Fatalf("shift %d rank %d = %+v, want %+v", shift, i, perm[i], want[i])
			}
		}
	}
}

// TestTopKCancellation: a cancelled context aborts both entry points
// between iterations.
func TestTopKCancellation(t *testing.T) {
	repo, q := multiRepo(t, 2, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		if _, _, err := repo.TopKGlobalOpts(q, 3, ExecOptions{Ctx: ctx, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Fatalf("TopKGlobalOpts(workers=%d): err = %v, want context.Canceled", workers, err)
		}
	}
	if _, _, err := repo.TopKOpts(repo.Videos()[0], q, 3, ExecOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKOpts: err = %v, want context.Canceled", err)
	}
}

// TestTopKGlobalStatsClocks: the aggregate stats separate the wall
// clock of the fan-out (Runtime) from the summed per-video runtimes
// (CPURuntime); their ratio is the effective speedup.
func TestTopKGlobalStatsClocks(t *testing.T) {
	repo, q := multiRepo(t, 3, 0.08)
	_, stats, err := repo.TopKGlobalOpts(q, 5, ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runtime <= 0 || stats.CPURuntime <= 0 {
		t.Fatalf("clocks not populated: %+v", stats)
	}
}

// BenchmarkTopKGlobalWorkers sweeps the repository fan-out width; on
// a multi-core machine the ns/op ratio between workers=1 and workers=4
// is the offline speedup (the CI bench smoke step compiles and runs it
// once per configuration).
func BenchmarkTopKGlobalWorkers(b *testing.B) {
	repo, q := multiRepo(b, 4, 0.25)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := repo.TopKGlobalOpts(q, 5, ExecOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRepositoryConcurrentAddRemove runs Add/Remove cycles against
// pinned and global top-k on one repository. Under -race it proves the
// video map is safe to read while it is written; a query that meets a
// video removed after its names snapshot fails with ErrVideoNotFound.
func TestRepositoryConcurrentAddRemove(t *testing.T) {
	repo, q := multiRepo(t, 3, 0.05)
	extra, ok := repo.repo.Video("v02")
	if !ok {
		t.Fatal("v02 not in repository")
	}
	if err := repo.Remove("v02"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := repo.Add("v02", extra); err != nil {
				done <- err
				return
			}
			if err := repo.Remove("v02"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		for _, name := range []string{"v00", "v02"} {
			if _, _, err := repo.TopKOpts(name, q, 3, ExecOptions{}); err != nil && !errors.Is(err, ErrVideoNotFound) {
				t.Fatalf("TopKOpts(%s): %v", name, err)
			}
		}
		if _, _, err := repo.TopKGlobalOpts(q, 3, ExecOptions{}); err != nil && !errors.Is(err, ErrVideoNotFound) {
			t.Fatalf("TopKGlobalOpts: %v", err)
		}
	}
	if got := repo.Videos(); len(got) != 2 {
		t.Errorf("videos after the cycles = %v, want v00 and v01", got)
	}
}
