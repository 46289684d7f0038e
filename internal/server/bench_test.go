package server

import (
	"context"
	"testing"

	"vaq"
	"vaq/internal/detect"
	"vaq/internal/infer"
	"vaq/internal/resilience"
	"vaq/internal/synth"
)

// benchStream builds a q2 stream whose engine keeps consuming clips
// past the generated world (the detectors extrapolate background), so
// b.N is unbounded.
func benchStream(b *testing.B) *vaq.Stream {
	b.Helper()
	qs, err := synth.YouTubeScaled("q2", vaq.DefaultGeometry(), 0.05)
	if err != nil {
		b.Fatal(err)
	}
	scene := qs.World.Scene()
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	stream, err := vaq.NewStreamQuery(qs.Query, det, rec, qs.World.Truth.Meta.Geom,
		vaq.StreamConfig{Dynamic: true})
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// BenchmarkDirectProcessClip is the baseline: raw engine stepping with
// no serving layer.
func BenchmarkDirectProcessClip(b *testing.B) {
	stream := benchStream(b)
	b.ResetTimer()
	for c := 0; c < b.N; c++ {
		if _, err := stream.ProcessClip(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStep drives the same engine through the session hot
// path: ProcessClip plus the snapshot publication (mutex, sequence
// materialization, critical-value copy, long-poll broadcast). The delta
// to BenchmarkDirectProcessClip is the per-clip serving overhead.
func BenchmarkSessionStep(b *testing.B) {
	stream := benchStream(b)
	_, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := newSession("bench", CreateSessionRequest{}, stream, b.N, cancel)
	b.ResetTimer()
	for c := 0; c < b.N; c++ {
		if err := sess.step(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStepThroughPool adds the shared worker-pool
// round-trip, the full per-clip path of Session.run.
func BenchmarkSessionStepThroughPool(b *testing.B) {
	stream := benchStream(b)
	_, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := newSession("bench", CreateSessionRequest{}, stream, b.N, cancel)
	workers := make(chan struct{}, 4)
	b.ResetTimer()
	for c := 0; c < b.N; c++ {
		workers <- struct{}{}
		err := sess.step(c)
		<-workers
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStepShared is BenchmarkSessionStep over the default
// vaqd stack: the engine's detectors are a shared-inference domain's
// bound flights over resilience over the memo over the raw sims, built
// through the same inferHub entry the daemon uses. The delta to
// BenchmarkSessionStep is what shared inference costs a session whose
// invocations nobody else shares.
func BenchmarkSessionStepShared(b *testing.B) {
	qs, err := synth.YouTubeScaled("q2", vaq.DefaultGeometry(), 0.05)
	if err != nil {
		b.Fatal(err)
	}
	scene := qs.World.Scene()
	hub := newInferHub(infer.Config{CacheCapacity: DefaultInferCache})
	entry := hub.entry(inferKey{"q2", 0.05, ""}, func(sh *infer.Shared) *resilience.Models {
		det := sh.Object(detect.AsFallibleObject(detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)))
		rec := sh.Action(detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil)))
		return resilience.WrapFallible(det, rec, resilience.DefaultPolicy(), resilience.Options{})
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := vaq.NewStreamQuery(qs.Query, entry.objFlight.Bind(ctx), entry.actFlight.Bind(ctx),
		qs.World.Truth.Meta.Geom, vaq.StreamConfig{Dynamic: true})
	if err != nil {
		b.Fatal(err)
	}
	sess := newSession("bench", CreateSessionRequest{}, stream, b.N, cancel)
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < b.N; c++ {
		if err := sess.step(c); err != nil {
			b.Fatal(err)
		}
	}
}
