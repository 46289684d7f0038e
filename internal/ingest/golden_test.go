package ingest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/plan"
	"vaq/internal/tables"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// ingestTraced ingests scene with MaskRCNN/I3D under a tracer and returns
// the metadata plus the frame and shot invocation counters.
func ingestTraced(t *testing.T, scene *detect.Scene, cfg Config) (vd *VideoData, frames, shots int64) {
	t.Helper()
	tr := trace.New()
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	vd, err := VideoCtx(trace.NewContext(context.Background(), tr), det, rec, scene.Truth.Meta,
		scene.Truth.ObjectLabels(), scene.Truth.ActionLabels(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Counters()
	return vd, c["detect.frame_invocations"], c["detect.shot_invocations"]
}

// familyDigest hashes one model family of an ingest: every label's table
// rows in score order and its sequences, then the per-clip missing-unit
// counts, so a test can pin the family as one literal.
func familyDigest(t *testing.T, tabs map[annot.Label]tables.Table, seqs map[annot.Label]interval.Set, missing map[int32]int) string {
	t.Helper()
	h := sha256.New()
	labels := make([]string, 0, len(tabs))
	for l := range tabs {
		labels = append(labels, string(l))
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(h, "label %s\n", l)
		for _, r := range tableRows(t, tabs[annot.Label(l)]) {
			fmt.Fprintf(h, "%d %x\n", r.CID, r.Score)
		}
		fmt.Fprintf(h, "seqs %v\n", seqs[annot.Label(l)])
	}
	writeMissing(h, missing)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeMissing(h hash.Hash, missing map[int32]int) {
	cids := make([]int, 0, len(missing))
	for cid := range missing {
		cids = append(cids, int(cid))
	}
	sort.Ints(cids)
	for _, cid := range cids {
		fmt.Fprintf(h, "missing %d %d\n", cid, missing[int32(cid)])
	}
}

// videoDigests returns the object-family digest (tracks included) and the
// action-family digest of vd.
func videoDigests(t *testing.T, vd *VideoData) (obj, act string) {
	t.Helper()
	var mf, ms map[int32]int
	if vd.Plan != nil {
		mf, ms = vd.Plan.MissingFrames, vd.Plan.MissingShots
	}
	obj = familyDigest(t, vd.ObjTables, vd.ObjSeqs, mf) + fmt.Sprintf("/tracks=%d", vd.TracksOpened)
	act = familyDigest(t, vd.ActTables, vd.ActSeqs, ms)
	return obj, act
}

// TestDenseIngestGolden pins dense and Rate-1 ingest, serial and with
// four workers, to digests and invocation counts recorded before the
// per-family unit loop replaced the separate dense and planned loops.
func TestDenseIngestGolden(t *testing.T) {
	scenes := []struct {
		name          string
		scene         *detect.Scene
		obj, act      string
		frames, shots int64
	}{
		{"ingestScene", ingestScene(t), "a49378233d5c9ccc/tracks=1393", "a6ba5faa84cc0a35", 50000, 5000},
		{"benchScene", benchScene(), "5c920bf2cccb89f0/tracks=2600", "01418094c76e7cce", 100000, 5000},
	}
	for _, sc := range scenes {
		for _, cfg := range []Config{{}, {Workers: 4}, {Plan: plan.Config{Rate: 1}}, {Workers: 4, Plan: plan.Config{Rate: 1}}} {
			vd, frames, shots := ingestTraced(t, sc.scene, cfg)
			obj, act := videoDigests(t, vd)
			if obj != sc.obj || act != sc.act || frames != sc.frames || shots != sc.shots || vd.Plan != nil {
				t.Errorf("%s workers=%d rate=%d: got obj %s act %s frames %d shots %d plan %v, want obj %s act %s frames %d shots %d plan <nil>",
					sc.name, cfg.Workers, cfg.Plan.Rate, obj, act, frames, shots, vd.Plan, sc.obj, sc.act, sc.frames, sc.shots)
			}
		}
	}
}

// TestPlannedIngestGolden pins planned ingest on ingestScene. The object
// side (tables, sequences, tracks, missing frames, frame invocations) is
// the ladder's own and was recorded before the shared evaluator. The
// action side runs a 5-shot window, at most MinSample units, so the
// short-window rule evaluates it densely: it must equal dense ingest,
// miss no shot and spend every shot invocation.
func TestPlannedIngestGolden(t *testing.T) {
	scene := ingestScene(t)
	dense, _, denseShots := ingestTraced(t, scene, Config{})
	_, denseAct := videoDigests(t, dense)
	cases := []struct {
		cfg    plan.Config
		obj    string
		frames int64
	}{
		{plan.Config{Rate: 2}, "9fab6a6a68c31a62/tracks=870", 31550},
		{plan.Config{Rate: 4}, "e622723dfd1c1d69/tracks=688", 24040},
		{plan.Config{Rate: 8}, "e622723dfd1c1d69/tracks=688", 24040},
		{plan.Config{Rate: 8, Levels: 2}, "13ca9a8835584976/tracks=394", 13000},
	}
	for _, c := range cases {
		vd, frames, shots := ingestTraced(t, scene, Config{Plan: c.cfg})
		obj, act := videoDigests(t, vd)
		if obj != c.obj || frames != c.frames {
			t.Errorf("rate=%d levels=%d: object side %s with %d frame invocations, want %s with %d",
				c.cfg.Rate, c.cfg.Levels, obj, frames, c.obj, c.frames)
		}
		if act != denseAct || shots != denseShots || len(vd.Plan.MissingShots) != 0 {
			t.Errorf("rate=%d levels=%d: action side %s with %d shot invocations and %d partial clips, want dense %s with %d and none",
				c.cfg.Rate, c.cfg.Levels, act, shots, len(vd.Plan.MissingShots), denseAct, denseShots)
		}
	}
}

// TestIngestOneSided: an object-only video ingests with no recognizer and
// an action-only video with no detector — dense, with workers and planned
// — and each side equals the same side of the two-family ingest. A family
// with no labels neither probes its (absent) model nor allocates.
func TestIngestOneSided(t *testing.T) {
	scene := ingestScene(t)
	meta := scene.Truth.Meta
	for _, cfg := range []Config{{}, {Workers: 4}, {Plan: plan.Config{Rate: 4}}} {
		both, _, _ := ingestTraced(t, scene, cfg)
		wantObj, wantAct := videoDigests(t, both)

		det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
		objOnly, err := Video(det, nil, meta, scene.Truth.ObjectLabels(), nil, cfg)
		if err != nil {
			t.Fatalf("workers=%d rate=%d: object-only ingest: %v", cfg.Workers, cfg.Plan.Rate, err)
		}
		if obj, act := videoDigests(t, objOnly); obj != wantObj || len(objOnly.ActTables) != 0 || act != familyDigest(t, nil, nil, nil) {
			t.Errorf("workers=%d rate=%d: object-only ingest %s, want %s and no action tables", cfg.Workers, cfg.Plan.Rate, obj, wantObj)
		}

		rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
		actOnly, err := Video(nil, rec, meta, nil, scene.Truth.ActionLabels(), cfg)
		if err != nil {
			t.Fatalf("workers=%d rate=%d: action-only ingest: %v", cfg.Workers, cfg.Plan.Rate, err)
		}
		if _, act := videoDigests(t, actOnly); act != wantAct || len(actOnly.ObjTables) != 0 || actOnly.Plan != nil {
			t.Errorf("workers=%d rate=%d: action-only ingest %s (plan %+v), want %s", cfg.Workers, cfg.Plan.Rate, act, actOnly.Plan, wantAct)
		}
	}

	empty := actionFamily(nil, nil, meta.Geom, 0, nil)
	if err := empty.prepare(Config{}, meta.Clips(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		empty.fetch(3)
		if err := empty.clip(3, plan.Config{Rate: 4}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a family with no labels allocates %v per clip", allocs)
	}
}

// TestPlannedIngestSamplesLongShotWindows: with more than MinSample shots
// per clip the shot window runs the sparse ladder, so planned ingest
// still leaves shots unsampled and records them as slack.
func TestPlannedIngestSamplesLongShotWindows(t *testing.T) {
	geom := video.Geometry{FPS: 30, ShotLen: 2, ShotsPerClip: 25}
	meta := video.Meta{Name: "long-shots", Frames: 200 * geom.ClipLen(), Geom: geom}
	truth := annot.NewVideo(meta)
	truth.AddAction("run", interval.Set{{Lo: 500, Hi: 999}})
	scene := &detect.Scene{Truth: truth, Seed: 5}
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	vd, err := Video(nil, rec, meta, nil, truth.ActionLabels(), Config{Plan: plan.Config{Rate: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if vd.Plan == nil || len(vd.Plan.MissingShots) == 0 || vd.Plan.MaxShotSlack() == 0 {
		t.Fatalf("25-shot windows at rate 8 left no shot unsampled: %+v", vd.Plan)
	}
}
