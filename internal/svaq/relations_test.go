package svaq

import (
	"slices"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/video"
)

// relationWorld: person and car co-present during the action episodes.
func relationWorld(t *testing.T) (*detect.Scene, annot.Query) {
	t.Helper()
	geom := video.DefaultGeometry()
	meta := video.Meta{Name: "rel", Frames: 40000, Geom: geom} // 800 clips
	truth := annot.NewVideo(meta)
	truth.AddAction("loading", interval.Set{{Lo: 500, Hi: 799}, {Lo: 2500, Hi: 2799}})
	frames := interval.Set{{Lo: 4900, Hi: 8100}, {Lo: 24900, Hi: 28100}}
	truth.AddObject("person", frames)
	truth.AddObject("car", frames)
	return &detect.Scene{Truth: truth, Seed: 71},
		annot.Query{Action: "loading", Objects: []annot.Label{"person", "car"}}
}

func TestRelationsRestrictResults(t *testing.T) {
	scene, q := relationWorld(t)
	nclips := scene.Truth.Meta.Clips()
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)

	plain, err := New(q, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: nclips})
	if err != nil {
		t.Fatal(err)
	}
	plainSeqs, err := plain.Run(nclips)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainSeqs) == 0 {
		t.Fatal("plain query found nothing; world broken")
	}

	withRel, err := New(q, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: nclips})
	if err != nil {
		t.Fatal(err)
	}
	if err := withRel.WithRelations([]detect.Relation{
		{A: "person", B: "car", Kind: detect.LeftOf},
	}); err != nil {
		t.Fatal(err)
	}
	relSeqs, err := withRel.Run(nclips)
	if err != nil {
		t.Fatal(err)
	}
	// The relation can only restrict: every relation-positive clip set
	// must be covered by the plain result.
	if extra := relSeqs.Subtract(plainSeqs); extra.Len() > 0 {
		t.Fatalf("relation added clips the plain query rejected: %v", extra)
	}
}

func TestImpossibleRelationEmptiesResults(t *testing.T) {
	scene, q := relationWorld(t)
	// "dog" is never annotated: no relation with it ever holds.
	nclips := scene.Truth.Meta.Clips()
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	e, err := New(q, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: nclips})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WithRelations([]detect.Relation{
		{A: "person", B: "dog", Kind: detect.Near},
	}); err != nil {
		t.Fatal(err)
	}
	seqs, err := e.Run(nclips)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 0 {
		t.Fatalf("impossible relation still produced %v", seqs)
	}
}

func TestRelationCountsReported(t *testing.T) {
	scene, q := relationWorld(t)
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	e, err := New(q, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: 200})
	if err != nil {
		t.Fatal(err)
	}
	rel := detect.Relation{A: "person", B: "car", Kind: detect.LeftOf}
	if err := e.WithRelations([]detect.Relation{rel}); err != nil {
		t.Fatal(err)
	}
	// Clip 100 lies inside the co-presence region (frames 5000..5049).
	for c := 0; c <= 100; c++ {
		res, err := e.ProcessClip(video.ClipIdx(c))
		if err != nil {
			t.Fatal(err)
		}
		if c == 100 {
			slot := slices.Index(e.Predicates(), "rel:"+rel.String())
			if slot < 0 {
				t.Fatalf("Predicates lacks %q: %v", rel.String(), e.Predicates())
			}
			if len(res.Counts) <= slot || res.Counts[slot] < 0 {
				t.Fatalf("Counts lacks the relation (slot %d): %v", slot, res.Counts)
			}
		}
	}
}

func TestWithRelationsValidation(t *testing.T) {
	scene, q := relationWorld(t)
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	e, err := New(q, det, rec, scene.Truth.Meta.Geom, Config{HorizonClips: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessClip(0); err != nil {
		t.Fatal(err)
	}
	if err := e.WithRelations([]detect.Relation{{A: "a", B: "b", Kind: detect.Near}}); err == nil {
		t.Error("relations after processing accepted")
	}
	// Action-only engine without a detector cannot take relations.
	e2, err := New(annot.Query{Action: "loading"}, nil, rec, scene.Truth.Meta.Geom, Config{HorizonClips: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.WithRelations([]detect.Relation{{A: "a", B: "b", Kind: detect.Near}}); err == nil {
		t.Error("relations without a detector accepted")
	}
}
