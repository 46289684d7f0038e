package svaq

import (
	"testing"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/interval"
	"vaq/internal/video"
)

func benchSetup(b *testing.B, cfg Config) *Engine {
	b.Helper()
	geom := video.DefaultGeometry()
	nclips := 1 << 20
	meta := video.Meta{Name: "bench", Frames: nclips * geom.ClipLen(), Geom: geom}
	truth := annot.NewVideo(meta)
	truth.AddAction("run", interval.Set{{Lo: 1000, Hi: 2000}})
	truth.AddObject("car", interval.Set{{Lo: 50000, Hi: 100000}})
	truth.AddObject("dog", interval.Set{{Lo: 60000, Hi: 90000}})
	scene := &detect.Scene{Truth: truth, Seed: 12}
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	cfg.HorizonClips = nclips
	e, err := New(annot.Query{Action: "run", Objects: []annot.Label{"car", "dog"}},
		det, rec, geom, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkProcessClip measures one full clip evaluation (Algorithm 2):
// 100 object-detector invocations (two predicates × 50 frames) plus 5
// recognizer invocations plus the statistics updates.
func BenchmarkProcessClip(b *testing.B) {
	e := benchSetup(b, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ProcessClip(video.ClipIdx(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessClipDynamic adds SVAQD's estimator updates and
// critical-value maintenance.
func BenchmarkProcessClipDynamic(b *testing.B) {
	e := benchSetup(b, Config{Dynamic: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ProcessClip(video.ClipIdx(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessClipShortCircuit measures the adaptive-order
// short-circuit pipeline on mostly-negative clips.
func BenchmarkProcessClipShortCircuit(b *testing.B) {
	e := benchSetup(b, Config{ShortCircuit: true, AdaptiveOrder: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ProcessClip(video.ClipIdx(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// indicatorSink keeps the benchmarked indicator computation alive.
var indicatorSink bool

// BenchmarkLabelTrackerObserve isolates the per-clip statistics update:
// the dense indicator against K(), then the tracker's ObserveRun.
func BenchmarkLabelTrackerObserve(b *testing.B) {
	lt, err := NewLabelTracker(TrackerConfig{
		UnitsPerClip: 50, HorizonClips: 100000, P0: 1e-4, Dynamic: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indicatorSink = i%3 >= lt.K()
		if err := lt.ObserveRun(50, i%3); err != nil {
			b.Fatal(err)
		}
	}
}
