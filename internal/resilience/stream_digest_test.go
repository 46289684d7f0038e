package resilience

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/fault"
	"vaq/internal/interval"
	"vaq/internal/trace"
	"vaq/internal/video"
)

// The determinism tests elsewhere compare two runs of one build, so a
// stream that shifts the same way in both runs (a mistyped salt, a
// reordered draw) passes them. TestStreamDigests pins every seeded
// stream of both model kinds to a digest instead: fault draws, corrupt
// scores, backoff jitter, the prior sampler and a one-hop chain. A
// digest moves only when a draw does; update it only for a deliberate
// change of a stream.

const (
	digestObjectFault   = "06a2fc46f428f7910ce26ca85ff749da1b78fb410f2d0db077edc7f436b332b2"
	digestActionFault   = "9c062078690b7e8e5da44abb513216a91ad808017a58b9ccfb1529f83533795b"
	digestBackoff       = "ecf2857e648e84e2096df3c8ebae77dc3ff08937c0896ac484868471a775c1ba"
	digestPrior         = "56c4038f18fe5e4928f643a39143779241ac05f1d3a31216101a731eee7d1bd3"
	digestChain         = "8908ed759af3acf3d459a3194b5fcdd539d3c01c88ec67d38cf6c5e0e053a8f9"
	digestTraceSurfaces = "2ba367a7f410dff0aeb7865269e2f6f699728e69cb8f7ede3c309e96d5d719e3"
)

// digestUnits is how many frames and shots each stream is drawn over.
const digestUnits = 300

func digestScene() *detect.Scene {
	meta := video.Meta{Name: "digest", Frames: 60000, Geom: video.DefaultGeometry()}
	truth := annot.NewVideo(meta)
	truth.AddAction("run", interval.Set{{Lo: 40, Hi: 179}, {Lo: 2000, Hi: 2119}})
	truth.AddObject("car", interval.Set{{Lo: 0, Hi: 220}, {Lo: 950, Hi: 1850}})
	truth.AddObject("person", interval.Set{{Lo: 100, Hi: 400}})
	return &detect.Scene{Truth: truth, Seed: 5}
}

var (
	digestObjLabels = []annot.Label{"car", "person"}
	digestActLabels = []annot.Label{"run", "walk"}
)

// digestSchedule fires every fault family that moves result bytes.
var digestSchedule = fault.Schedule{Seed: 21, Episodes: []fault.Episode{
	{Kind: fault.Error, Lo: 0, Hi: -1, Rate: 0.3},
	{Kind: fault.Corrupt, Lo: 0, Hi: -1, Rate: 0.25},
	{Kind: fault.Error, Lo: 50, Hi: 120, Rate: 0.5},
}}

func writeDets(h hash.Hash, dets []detect.Detection) {
	for _, d := range dets {
		fmt.Fprintf(h, "%s %x %v %d;", d.Label, math.Float64bits(d.Score), d.Box, d.Track)
	}
	fmt.Fprintln(h)
}

func writeScores(h hash.Hash, scores []detect.ActionScore) {
	for _, s := range scores {
		fmt.Fprintf(h, "%s %x;", s.Label, math.Float64bits(s.Score))
	}
	fmt.Fprintln(h)
}

func writeHops(h hash.Hash, hops map[int]int) {
	units := make([]int, 0, len(hops))
	for u := range hops {
		units = append(units, u)
	}
	sort.Ints(units)
	for _, u := range units {
		fmt.Fprintf(h, "%d:%d;", u, hops[u])
	}
	fmt.Fprintln(h)
}

func checkDigest(t *testing.T, name, want string, h hash.Hash) {
	t.Helper()
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("%s stream digest = %s, want %s", name, got, want)
	}
}

func TestStreamDigests(t *testing.T) {
	scene := digestScene()
	ctx := context.Background()
	objSim := func(p detect.Profile) detect.FallibleObjectDetector {
		return detect.AsFallibleObject(detect.NewSimObjectDetector(scene, p, nil))
	}
	actSim := func() detect.FallibleActionRecognizer {
		return detect.AsFallibleAction(detect.NewSimActionRecognizer(scene, detect.I3D, nil))
	}
	retry := Policy{MaxRetries: 2, Seed: 8}
	prior := &ModeVar{}
	prior.Set(ModePrior)
	cheap := &ModeVar{}
	cheap.Set(ModeCheap)

	t.Run("object fault", func(t *testing.T) {
		// Explicit attempts 0..2 on every frame: each attempt's error and
		// corrupt draws show, whatever the attempt before it drew.
		h := sha256.New()
		inj := fault.NewObject(objSim(detect.MaskRCNN), digestSchedule)
		for v := 0; v < digestUnits; v++ {
			for attempt := 0; attempt < 3; attempt++ {
				dets, err := inj.DetectCtx(fault.WithCall(ctx, attempt, 0), video.FrameIdx(v), digestObjLabels)
				fmt.Fprintf(h, "%d %d %v ", v, attempt, err != nil)
				writeDets(h, dets)
			}
		}
		// The same draws through resilience's retry rounds.
		d := NewDetector(fault.NewObject(objSim(detect.MaskRCNN), digestSchedule), retry, Options{})
		for v := 0; v < digestUnits; v++ {
			writeDets(h, d.Detect(video.FrameIdx(v), digestObjLabels))
		}
		fmt.Fprintf(h, "%+v %+v\n", inj.Counts(), d.Stats())
		writeHops(h, d.DegradedHops())
		checkDigest(t, "object fault", digestObjectFault, h)
	})

	t.Run("action fault", func(t *testing.T) {
		// A fault-injected chain hop under ModeCheap sees every call, so
		// three calls per shot draw its attempts 0..2 in turn; an errored
		// attempt shows as the prior's scores.
		h := sha256.New()
		hop := fault.NewAction(actSim(), digestSchedule)
		r := NewRecognizer(actSim(), Policy{Seed: 8}, Options{Mode: cheap, FallbackActions: []detect.FallibleActionRecognizer{hop}})
		for s := 0; s < digestUnits; s++ {
			for attempt := 0; attempt < 3; attempt++ {
				writeScores(h, r.Recognize(video.ShotIdx(s), digestActLabels))
			}
		}
		// Resilience's retry rounds stamp explicit attempts 0..2.
		inj := fault.NewAction(actSim(), digestSchedule)
		rr := NewRecognizer(inj, retry, Options{})
		for s := 0; s < digestUnits; s++ {
			writeScores(h, rr.Recognize(video.ShotIdx(s), digestActLabels))
		}
		fmt.Fprintf(h, "%+v %+v %+v %+v\n", hop.Counts(), inj.Counts(), r.Stats(), rr.Stats())
		writeHops(h, r.DegradedHops())
		writeHops(h, rr.DegradedHops())
		checkDigest(t, "action fault", digestActionFault, h)
	})

	t.Run("backoff", func(t *testing.T) {
		h := sha256.New()
		p := Policy{BaseBackoff: time.Millisecond, MaxBackoff: 40 * time.Millisecond, Seed: 8}
		d := NewDetector(objSim(detect.MaskRCNN), p, Options{})
		r := NewRecognizer(actSim(), p, Options{})
		for u := 0; u < digestUnits; u++ {
			prevD, prevR := p.BaseBackoff, p.BaseBackoff
			for attempt := 0; attempt < 3; attempt++ {
				prevD = d.in.backoff(u, attempt, prevD)
				prevR = r.in.backoff(u, attempt, prevR)
				fmt.Fprintf(h, "%d %d;", prevD, prevR)
			}
		}
		checkDigest(t, "backoff", digestBackoff, h)
	})

	t.Run("prior", func(t *testing.T) {
		h := sha256.New()
		p := Policy{Seed: 8, FallbackP: 0.05}
		d := NewDetector(objSim(detect.MaskRCNN), p, Options{Mode: prior})
		r := NewRecognizer(actSim(), p, Options{Mode: prior})
		for u := 0; u < digestUnits; u++ {
			writeDets(h, d.Detect(video.FrameIdx(u), digestObjLabels))
			writeScores(h, r.Recognize(video.ShotIdx(u), digestActLabels))
		}
		fmt.Fprintf(h, "%+v %+v\n", d.Stats(), r.Stats())
		checkDigest(t, "prior", digestPrior, h)
	})

	t.Run("chain", func(t *testing.T) {
		// A dead primary hands every unit to one fault-injected hop; what
		// that hop fails goes on to the prior.
		h := sha256.New()
		dead := fault.Schedule{Seed: 3, Episodes: []fault.Episode{{Kind: fault.Error, Lo: 0, Hi: -1, Rate: 1}}}
		p := Policy{Seed: 8, FallbackP: 0.05}
		d := NewDetector(fault.NewObject(objSim(detect.MaskRCNN), dead), p, Options{
			FallbackObjects: []detect.FallibleObjectDetector{fault.NewObject(objSim(detect.YOLOv3), digestSchedule)},
		})
		r := NewRecognizer(fault.NewAction(actSim(), dead), p, Options{
			FallbackActions: []detect.FallibleActionRecognizer{fault.NewAction(actSim(), digestSchedule)},
		})
		for u := 0; u < digestUnits; u++ {
			writeDets(h, d.Detect(video.FrameIdx(u), digestObjLabels))
			writeScores(h, r.Recognize(video.ShotIdx(u), digestActLabels))
		}
		fmt.Fprintf(h, "%+v %+v\n", d.Stats(), r.Stats())
		writeHops(h, d.DegradedHops())
		writeHops(h, r.DegradedHops())
		checkDigest(t, "chain", digestChain, h)
	})

	t.Run("trace surfaces", func(t *testing.T) {
		// The per-kind latency stages and the counters each wrapper
		// registers, by name.
		h := sha256.New()
		tr := trace.New()
		p := Policy{Seed: 8, HedgeQuantile: 0.9}
		NewDetector(objSim(detect.MaskRCNN), p, Options{Tracer: tr})
		NewRecognizer(actSim(), p, Options{Tracer: tr})
		var names []string
		for name := range tr.Stages() {
			names = append(names, "stage "+name)
		}
		for name := range tr.Counters() {
			names = append(names, "counter "+name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintln(h, name)
		}
		checkDigest(t, "trace surfaces", digestTraceSurfaces, h)
	})
}
