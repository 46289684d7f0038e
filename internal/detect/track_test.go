package detect

import (
	"testing"

	"vaq/internal/annot"
	"vaq/internal/video"
)

func det(label annot.Label, b Box) Detection { return Detection{Label: label, Score: 0.9, Box: b} }

func TestTrackerKeepsIDAcrossFrames(t *testing.T) {
	trk := NewTracker(0.3, 5)
	d1 := trk.Update(0, []Detection{det("car", Box{0.1, 0.1, 0.2, 0.2})})
	if d1[0].Track != 1 {
		t.Fatalf("first track id = %d, want 1", d1[0].Track)
	}
	// Slightly moved box: same track.
	d2 := trk.Update(1, []Detection{det("car", Box{0.11, 0.1, 0.2, 0.2})})
	if d2[0].Track != 1 {
		t.Fatalf("moved box got track %d, want 1", d2[0].Track)
	}
}

func TestTrackerSeparatesLabels(t *testing.T) {
	trk := NewTracker(0.3, 5)
	trk.Update(0, []Detection{det("car", Box{0.1, 0.1, 0.2, 0.2})})
	d := trk.Update(1, []Detection{det("dog", Box{0.1, 0.1, 0.2, 0.2})})
	if d[0].Track == 1 {
		t.Fatal("different label matched an existing track")
	}
}

func TestTrackerSeparatesDistantBoxes(t *testing.T) {
	trk := NewTracker(0.3, 5)
	trk.Update(0, []Detection{det("car", Box{0.0, 0.0, 0.1, 0.1})})
	d := trk.Update(1, []Detection{det("car", Box{0.8, 0.8, 0.1, 0.1})})
	if d[0].Track == 1 {
		t.Fatal("distant box matched an existing track")
	}
	if len(trk.active) != 2 {
		t.Fatalf("active tracks = %d, want 2", len(trk.active))
	}
}

func TestTrackerExpiry(t *testing.T) {
	trk := NewTracker(0.3, 3)
	trk.Update(0, []Detection{det("car", Box{0.1, 0.1, 0.2, 0.2})})
	// No detections for longer than maxAge.
	trk.Update(10, nil)
	d := trk.Update(11, []Detection{det("car", Box{0.1, 0.1, 0.2, 0.2})})
	if d[0].Track == 1 {
		t.Fatal("expired track was reused")
	}
	if trk.TracksOpened() != 2 {
		t.Fatalf("opened = %d, want 2", trk.TracksOpened())
	}
}

func TestTrackerGreedyPicksBestIoU(t *testing.T) {
	trk := NewTracker(0.1, 5)
	trk.Update(0, []Detection{det("car", Box{0.1, 0.1, 0.2, 0.2})})
	// Two candidates overlap the track; the closer one must win.
	d := trk.Update(1, []Detection{
		det("car", Box{0.15, 0.1, 0.2, 0.2}), // lower IoU
		det("car", Box{0.10, 0.1, 0.2, 0.2}), // exact match
	})
	if d[1].Track != 1 {
		t.Fatalf("exact match got track %d, want 1", d[1].Track)
	}
	if d[0].Track == 1 {
		t.Fatal("both detections matched the same track")
	}
}

func TestTrackerTwoInstancesStayStable(t *testing.T) {
	trk := NewTracker(0.3, 10)
	boxA := Box{0.1, 0.1, 0.2, 0.2}
	boxB := Box{0.6, 0.6, 0.2, 0.2}
	var idA, idB int
	for v := 0; v < 50; v++ {
		boxA.X += 0.002
		boxB.Y -= 0.002
		d := trk.Update(video.FrameIdx(v), []Detection{det("car", boxA), det("car", boxB)})
		if v == 0 {
			idA, idB = d[0].Track, d[1].Track
			continue
		}
		if d[0].Track != idA || d[1].Track != idB {
			t.Fatalf("frame %d: tracks drifted: %d/%d vs %d/%d", v, d[0].Track, d[1].Track, idA, idB)
		}
	}
	if trk.TracksOpened() != 2 {
		t.Fatalf("opened = %d, want 2", trk.TracksOpened())
	}
}

func TestTrackerDefaults(t *testing.T) {
	trk := NewTracker(0, 0)
	if trk.iouThresh != 0.3 || trk.maxAge != 15 {
		t.Fatalf("defaults = %v/%v", trk.iouThresh, trk.maxAge)
	}
}

func TestHashKeyStable(t *testing.T) {
	a := HashKey(1, "car", 42)
	b := HashKey(1, "car", 42)
	if a != b {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey(2, "car", 42) == a || HashKey(1, "dog", 42) == a || HashKey(1, "car", 43) == a {
		t.Fatal("HashKey collisions across distinct keys (unexpectedly)")
	}
}

func TestUnitRandUniformish(t *testing.T) {
	key := HashKey(9, "x", 0)
	sum := 0.0
	const n = 20000
	for i := uint64(0); i < n; i++ {
		u := UnitRand(key, i)
		if u < 0 || u >= 1 {
			t.Fatalf("UnitRand out of [0,1): %v", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Fatalf("UnitRand mean %v far from 0.5", mean)
	}
}

func TestTrackerTieBreakIsDeterministic(t *testing.T) {
	// Two co-located instances: both candidate pairs at frame 1 have
	// identical IoU, so only the (det, trk) tie-break decides the
	// association. It must come out the same on every run: detection 0
	// takes the older track, detection 1 the younger.
	for run := 0; run < 50; run++ {
		trk := NewTracker(0.3, 5)
		b := Box{0.4, 0.4, 0.2, 0.2}
		d0 := trk.Update(0, []Detection{det("car", b), det("car", b)})
		if d0[0].Track != 1 || d0[1].Track != 2 {
			t.Fatalf("run %d: opening ids = %d, %d, want 1, 2", run, d0[0].Track, d0[1].Track)
		}
		d1 := trk.Update(1, []Detection{det("car", b), det("car", b)})
		if d1[0].Track != 1 || d1[1].Track != 2 {
			t.Fatalf("run %d: tied association gave %d, %d, want 1, 2", run, d1[0].Track, d1[1].Track)
		}
	}
}

func TestTrackerSingleDetectionTiedBetweenTwoTracks(t *testing.T) {
	trk := NewTracker(0.3, 5)
	b := Box{0.4, 0.4, 0.2, 0.2}
	trk.Update(0, []Detection{det("car", b), det("car", b)}) // tracks 1 and 2
	d := trk.Update(1, []Detection{det("car", b)})
	if d[0].Track != 1 {
		t.Fatalf("tied single detection matched track %d, want the older track 1", d[0].Track)
	}
}

func TestTrackerSurvivesEmptyFramesWithinMaxAge(t *testing.T) {
	trk := NewTracker(0.3, 5)
	b := Box{0.1, 0.1, 0.2, 0.2}
	trk.Update(0, []Detection{det("car", b)})
	// The detector returns nothing for a few frames mid-track (occlusion
	// or missed detections) — within maxAge the track must survive.
	trk.Update(1, nil)
	trk.Update(2, []Detection{})
	trk.Update(3, nil)
	d := trk.Update(4, []Detection{det("car", b)})
	if d[0].Track != 1 {
		t.Fatalf("track lost over an in-age gap: got %d, want 1", d[0].Track)
	}
	if trk.TracksOpened() != 1 {
		t.Fatalf("opened = %d, want 1", trk.TracksOpened())
	}
}

func TestTrackerExpiryBoundaryExact(t *testing.T) {
	// A gap of exactly maxAge frames keeps the track; maxAge+1 drops it.
	trk := NewTracker(0.3, 3)
	b := Box{0.1, 0.1, 0.2, 0.2}
	trk.Update(0, []Detection{det("car", b)})
	if d := trk.Update(3, []Detection{det("car", b)}); d[0].Track != 1 {
		t.Fatalf("gap == maxAge: got %d, want 1", d[0].Track)
	}
	trk2 := NewTracker(0.3, 3)
	trk2.Update(0, []Detection{det("car", b)})
	if d := trk2.Update(4, []Detection{det("car", b)}); d[0].Track != 2 {
		t.Fatalf("gap > maxAge: got %d, want a fresh track 2", d[0].Track)
	}
}

func TestTrackerStableAcrossFallbackHop(t *testing.T) {
	// A resilience fallback hop swaps the detector mid-track: the
	// fallback model localizes the same instance with a slightly offset
	// box for one frame, then the primary returns. As long as the offset
	// box still clears the IoU threshold, the identifier must not churn.
	trk := NewTracker(0.3, 5)
	primary := Box{0.30, 0.30, 0.20, 0.20}
	fallback := Box{0.32, 0.31, 0.20, 0.20} // same instance, different model
	for f := 0; f < 4; f++ {
		if d := trk.Update(video.FrameIdx(f), []Detection{det("car", primary)}); d[0].Track != 1 {
			t.Fatalf("frame %d: track %d, want 1", f, d[0].Track)
		}
	}
	if d := trk.Update(4, []Detection{det("car", fallback)}); d[0].Track != 1 {
		t.Fatalf("fallback-hop frame: track %d, want 1", d[0].Track)
	}
	for f := 5; f < 8; f++ {
		if d := trk.Update(video.FrameIdx(f), []Detection{det("car", primary)}); d[0].Track != 1 {
			t.Fatalf("frame %d after hop: track %d, want 1", f, d[0].Track)
		}
	}
	if trk.TracksOpened() != 1 {
		t.Fatalf("opened = %d tracks across the hop, want 1", trk.TracksOpened())
	}
}
