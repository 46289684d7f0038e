package vaq_test

import (
	"fmt"
	"log"

	"vaq"
	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/video"
)

// exampleScene builds a tiny deterministic world: a "loading" action on
// clips 10..19 with a truck present throughout.
func exampleScene() (*detect.Scene, vaq.Geometry, int) {
	geom := vaq.DefaultGeometry()
	const nclips = 60
	meta := video.Meta{Name: "example", Frames: nclips * geom.ClipLen(), Geom: geom}
	truth := annot.NewVideo(meta)
	truth.AddAction("loading", interval.Set{{Lo: 50, Hi: 99}})  // shots → clips 10..19
	truth.AddObject("truck", interval.Set{{Lo: 450, Hi: 1049}}) // frames → clips 9..20
	return &detect.Scene{Truth: truth, Seed: 1}, geom, nclips
}

// ExampleParseQuery compiles one of the paper's SQL-like statements.
func ExampleParseQuery() {
	plan, err := vaq.ParseQuery(`
		SELECT MERGE(clipID) AS Sequence
		FROM (PROCESS cam PRODUCE clipID, obj USING ObjectDetector,
		      act USING ActionRecognizer)
		WHERE act = 'loading' AND obj.include('truck')`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)
	// Output:
	// plan(cam [act=loading] [obj:truck])
}

// ExampleNewStream runs an online SVAQD query end to end over a
// simulated stream with ideal models.
func ExampleNewStream() {
	scene, geom, nclips := exampleScene()
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)

	plan, _ := vaq.ParseQuery(`
		SELECT MERGE(clipID) FROM (PROCESS cam PRODUCE clipID, obj, act)
		WHERE act = 'loading' AND obj.include('truck')`)
	stream, err := vaq.NewStream(plan, det, rec, geom, vaq.StreamConfig{
		Dynamic: true, HorizonClips: nclips,
	})
	if err != nil {
		log.Fatal(err)
	}
	seqs, err := stream.Run(nclips)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(seqs)
	// Output:
	// {[10,19]}
}

// ExampleWithSharedInference runs the same query twice through one
// SharedInference domain: the second stream's model invocations are all
// served from the shared score cache, so the backends are never called
// again.
func ExampleWithSharedInference() {
	scene, geom, nclips := exampleScene()
	var meter detect.CostMeter
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, &meter)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, &meter)

	si, err := vaq.NewSharedInference(vaq.SharedInferenceConfig{CacheCapacity: 1 << 16})
	if err != nil {
		log.Fatal(err)
	}
	plan, _ := vaq.ParseQuery(`
		SELECT MERGE(clipID) FROM (PROCESS cam PRODUCE clipID, obj, act)
		WHERE act = 'loading' AND obj.include('truck')`)
	run := func() interval.Set {
		stream, err := vaq.NewStream(plan, det, rec, geom, vaq.StreamConfig{
			Dynamic: true, HorizonClips: nclips,
		}, vaq.WithSharedInference(si))
		if err != nil {
			log.Fatal(err)
		}
		seqs, err := stream.Run(nclips)
		if err != nil {
			log.Fatal(err)
		}
		return seqs
	}

	first := run()
	callsAfterFirst := meter.Calls()
	second := run()
	fmt.Println("sequences:", first)
	fmt.Println("same answer:", second.Equal(first))
	fmt.Println("backend calls added by second run:", meter.Calls()-callsAfterFirst)
	// Output:
	// sequences: {[10,19]}
	// same answer: true
	// backend calls added by second run: 0
}

// ExampleTopKVideo ingests a video and answers an offline top-k query
// with RVAQ, straight from the in-memory metadata (no repository).
func ExampleTopKVideo() {
	scene, _, _ := exampleScene()
	det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
	vd, err := vaq.IngestVideo(det, rec, scene.Truth.Meta,
		scene.Truth.ObjectLabels(), scene.Truth.ActionLabels(), vaq.IngestConfig{})
	if err != nil {
		log.Fatal(err)
	}
	results, _, err := vaq.TopKVideo(vd, vaq.Query{Action: "loading", Objects: []vaq.Label{"truck"}}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best sequence: clips %d..%d\n", results[0].Seq.Lo, results[0].Seq.Hi)
	// Output:
	// best sequence: clips 10..19
}
