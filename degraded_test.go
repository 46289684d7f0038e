package vaq

import (
	"reflect"
	"testing"
	"time"

	"vaq/internal/detect"
	"vaq/internal/fault"
	"vaq/internal/resilience"
	"vaq/internal/synth"
)

// degradedRepo ingests the q2 workload through the resilience wrapper
// under an error burst confined to early units, persists the degraded
// frame/shot sets with the video, and returns the repository re-opened
// from disk — the exact vaqingest → vaqtopk path.
func degradedRepo(t *testing.T) (*Repository, Query) {
	t.Helper()
	qs, err := synth.YouTubeScaled("q2", DefaultGeometry(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	scene := qs.World.Scene()
	sched, err := fault.Parse(11, "error:0-999:0.7")
	if err != nil {
		t.Fatal(err)
	}
	fdet := fault.NewObject(detect.AsFallibleObject(detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)), sched)
	frec := fault.NewAction(detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil)), sched)
	pol := resilience.Policy{
		MaxRetries:  1,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  100 * time.Microsecond,
		Seed:        3,
	}
	models := resilience.WrapFallible(fdet, frec, pol, resilience.Options{})
	truth := qs.World.Truth
	vd, err := IngestVideo(models.Det, models.Rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(), IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vd.SetDegradedFrames(models.Det.DegradedHops())
	vd.SetDegradedShots(models.Rec.DegradedHops())
	if len(vd.DegradedFrames) == 0 && len(vd.DegradedShots) == 0 {
		t.Fatal("no degraded units under a 70% error burst; the fault injector is not engaged")
	}

	dir := t.TempDir()
	repo, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Add("q2", vd); err != nil {
		t.Fatal(err)
	}
	// Re-open from disk: the degraded sets must survive the manifest
	// round-trip, not just ride the in-memory copy.
	reopened, err := OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := reopened.repo.Video("q2")
	if !ok {
		t.Fatal("reopened repository lost the video")
	}
	if !reflect.DeepEqual(loaded.DegradedFrames, vd.DegradedFrames) ||
		!reflect.DeepEqual(loaded.DegradedShots, vd.DegradedShots) {
		t.Fatalf("degraded sets did not survive the disk round-trip:\nframes %v vs %v\nshots %v vs %v",
			loaded.DegradedFrames, vd.DegradedFrames, loaded.DegradedShots, vd.DegradedShots)
	}
	// The per-unit fallback hops must survive too — hop-aware
	// discounting reads them from the manifest, never from memory.
	if !reflect.DeepEqual(loaded.DegradedFrameHops, vd.DegradedFrameHops) ||
		!reflect.DeepEqual(loaded.DegradedShotHops, vd.DegradedShotHops) {
		t.Fatalf("degraded hops did not survive the disk round-trip:\nframes %v vs %v\nshots %v vs %v",
			loaded.DegradedFrameHops, vd.DegradedFrameHops, loaded.DegradedShotHops, vd.DegradedShotHops)
	}
	return reopened, qs.Query
}

// TestDegradedIngestPersistsAndDiscounts is the acceptance path for
// degraded-unit persistence: ingesting under a fault schedule produces
// a repository whose degraded clips are visible to offline top-k, and
// the same query with the discount on down-weights and flags exactly
// the sequences built on them while leaving clean sequences untouched.
func TestDegradedIngestPersistsAndDiscounts(t *testing.T) {
	repo, q := degradedRepo(t)
	const k = 8

	off, offStats, err := repo.TopKOpts("q2", q, k, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	on, onStats, err := repo.TopKOpts("q2", q, k, ExecOptions{HopDiscounts: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}

	if offStats.DegradedClips != 0 {
		t.Errorf("discount off: stats count %d degraded clips, want 0", offStats.DegradedClips)
	}
	for _, r := range off {
		if r.Degraded {
			t.Errorf("discount off: result %v flagged degraded", r.Seq)
		}
	}
	if onStats.DegradedClips == 0 {
		t.Fatal("discount on: repository's degraded clips invisible to top-k")
	}

	offScore := make(map[Sequence]float64, len(off))
	for _, r := range off {
		offScore[r.Seq] = r.Score
	}
	flagged := 0
	for _, r := range on {
		raw, shared := offScore[r.Seq]
		if !r.Degraded {
			if shared && r.Score != raw {
				t.Errorf("clean sequence %v rescored under the discount: %v vs %v", r.Seq, r.Score, raw)
			}
			continue
		}
		flagged++
		if shared && r.Score >= raw {
			t.Errorf("degraded sequence %v not down-weighted: %v vs raw %v", r.Seq, r.Score, raw)
		}
	}
	if flagged == 0 {
		t.Error("discount on: no ranked sequence flagged degraded (raise k or the fault rate if the workload changed)")
	}
}

// TestHopDiscountsEndToEnd drives the per-hop discount table down the
// same vaqingest → vaqtopk path: the persisted hops are visible to
// offline top-k, and degraded sequences are down-weighted and flagged.
func TestHopDiscountsEndToEnd(t *testing.T) {
	repo, q := degradedRepo(t)
	const k = 8

	off, _, err := repo.TopKOpts("q2", q, k, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	on, onStats, err := repo.TopKOpts("q2", q, k, ExecOptions{HopDiscounts: []float64{0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if onStats.DegradedClips == 0 {
		t.Fatal("hop table on: repository's degraded clips invisible to top-k")
	}
	offScore := make(map[Sequence]float64, len(off))
	for _, r := range off {
		offScore[r.Seq] = r.Score
	}
	flagged := 0
	for _, r := range on {
		raw, shared := offScore[r.Seq]
		if r.Degraded {
			flagged++
			if shared && r.Score >= raw {
				t.Errorf("degraded sequence %v not down-weighted: %v vs raw %v", r.Seq, r.Score, raw)
			}
		} else if shared && r.Score != raw {
			t.Errorf("clean sequence %v rescored under the hop table: %v vs %v", r.Seq, r.Score, raw)
		}
	}
	if flagged == 0 {
		t.Error("hop table on: no ranked sequence flagged degraded")
	}
}

// TestDegradedDiscountValidation pins the option's domain: a table with
// an entry outside [0, 1] is an error, an empty table is off.
func TestDegradedDiscountValidation(t *testing.T) {
	repo, q := degradedRepo(t)
	for _, bad := range [][]float64{{-0.1}, {1.01}, {0.3, 1.2}} {
		if _, _, err := repo.TopKOpts("q2", q, 3, ExecOptions{HopDiscounts: bad}); err == nil {
			t.Errorf("hop discounts %v accepted, want error", bad)
		}
	}
	if _, _, err := repo.TopKOpts("q2", q, 3, ExecOptions{}); err != nil {
		t.Errorf("empty table (off) rejected: %v", err)
	}
}
