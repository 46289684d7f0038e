package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// stubObject is a trivially-succeeding fallible backend.
type stubObject struct{ calls int }

func (s *stubObject) Name() string { return "stub" }

func (s *stubObject) DetectCtx(_ context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	s.calls++
	out := make([]detect.Detection, len(labels))
	for i, l := range labels {
		out[i] = detect.Detection{Label: l, Score: 0.75}
	}
	return out, nil
}

type stubAction struct{}

func (stubAction) Name() string { return "stub-act" }

func (stubAction) DetectCtx(_ context.Context, s video.ShotIdx, labels []annot.Label) ([]detect.ActionScore, error) {
	out := make([]detect.ActionScore, len(labels))
	for i, l := range labels {
		out[i] = detect.ActionScore{Label: l, Score: 0.6}
	}
	return out, nil
}

var testLabels = []annot.Label{"person", "car"}

func TestParse(t *testing.T) {
	sched, err := Parse(7, "error:0-999:0.1,latency:500-:0.2:20ms,stall:100-120:1:5s,corrupt:0-:0.05")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sched.Seed != 7 || len(sched.Episodes) != 4 {
		t.Fatalf("got %+v", sched)
	}
	want := []Episode{
		{Kind: Error, Lo: 0, Hi: 999, Rate: 0.1},
		{Kind: Latency, Lo: 500, Hi: -1, Rate: 0.2, Delay: 20 * time.Millisecond},
		{Kind: Stall, Lo: 100, Hi: 120, Rate: 1, Delay: 5 * time.Second},
		{Kind: Corrupt, Lo: 0, Hi: -1, Rate: 0.05},
	}
	for i, ep := range sched.Episodes {
		if ep != want[i] {
			t.Errorf("episode %d: got %+v want %+v", i, ep, want[i])
		}
	}
	// Round-trips through String.
	back, err := Parse(7, sched.String())
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", sched.String(), err)
	}
	for i := range back.Episodes {
		if back.Episodes[i] != sched.Episodes[i] {
			t.Errorf("round-trip episode %d: %+v != %+v", i, back.Episodes[i], sched.Episodes[i])
		}
	}
	// Empty spec is the empty schedule.
	if s, err := Parse(1, "  "); err != nil || !s.Empty() {
		t.Errorf("empty spec: %+v, %v", s, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"error",                // too few fields
		"error:0-9:0.1:1s:x",   // too many fields
		"wedge:0-9:0.5",        // unknown kind
		"error:9:0.5",          // range without dash
		"error:-1-9:0.5",       // negative start
		"error:9-3:0.5",        // end before start
		"error:0-9:1.5",        // rate out of range
		"latency:0-9:0.5",      // latency without delay
		"stall:0-9:0.5",        // stall without delay
		"latency:0-9:0.5:-3ms", // negative delay
	} {
		if _, err := Parse(1, spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

func TestErrorEpisodeRateAndDeterminism(t *testing.T) {
	sched := Schedule{Seed: 42, Episodes: []Episode{{Kind: Error, Lo: 0, Hi: -1, Rate: 0.1}}}
	run := func() (errs int, pattern []bool) {
		inj := NewObject(&stubObject{}, sched)
		for f := 0; f < 2000; f++ {
			_, err := inj.DetectCtx(context.Background(), video.FrameIdx(f), testLabels)
			failed := err != nil
			if failed {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("frame %d: error %v is not ErrInjected", f, err)
				}
				errs++
			}
			pattern = append(pattern, failed)
		}
		return errs, pattern
	}
	errs1, pat1 := run()
	errs2, pat2 := run()
	if errs1 != errs2 {
		t.Fatalf("non-deterministic error counts: %d vs %d", errs1, errs2)
	}
	for i := range pat1 {
		if pat1[i] != pat2[i] {
			t.Fatalf("frame %d: fault pattern differs across identical runs", i)
		}
	}
	// ~10% of 2000 = 200; allow a generous band.
	if errs1 < 120 || errs1 > 290 {
		t.Errorf("rate 0.1 over 2000 frames fired %d times, want ~200", errs1)
	}
	// Counters match observed faults.
	inj := NewObject(&stubObject{}, sched)
	for f := 0; f < 100; f++ {
		inj.DetectCtx(context.Background(), video.FrameIdx(f), testLabels)
	}
	c := inj.Counts()
	if c.Errors == 0 || c.Errors != c.Total() {
		t.Errorf("counts = %+v, want only errors, non-zero", c)
	}
}

func TestRetriesAreFreshDraws(t *testing.T) {
	// With rate 0.5 and per-attempt draws, a frame that fails on the
	// first attempt should eventually succeed on retry.
	sched := Schedule{Seed: 1, Episodes: []Episode{{Kind: Error, Lo: 0, Hi: -1, Rate: 0.5}}}
	inj := NewObject(&stubObject{}, sched)
	recovered := 0
	for f := 0; f < 50; f++ {
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			if _, err = inj.DetectCtx(context.Background(), video.FrameIdx(f), testLabels); err == nil {
				if attempt > 0 {
					recovered++
				}
				break
			}
		}
		if err != nil {
			t.Fatalf("frame %d never recovered over 20 attempts at rate 0.5", f)
		}
	}
	if recovered == 0 {
		t.Error("no frame needed a retry at rate 0.5 over 50 frames")
	}
}

func TestEpisodeRanges(t *testing.T) {
	sched := Schedule{Seed: 9, Episodes: []Episode{{Kind: Error, Lo: 10, Hi: 19, Rate: 1}}}
	inj := NewObject(&stubObject{}, sched)
	for f := 0; f < 30; f++ {
		_, err := inj.DetectCtx(context.Background(), video.FrameIdx(f), testLabels)
		inRange := f >= 10 && f <= 19
		if inRange && err == nil {
			t.Errorf("frame %d: in-episode call did not fail", f)
		}
		if !inRange && err != nil {
			t.Errorf("frame %d: out-of-episode call failed: %v", f, err)
		}
	}
}

func TestLatencyAndStall(t *testing.T) {
	sched := Schedule{Seed: 3, Episodes: []Episode{{Kind: Latency, Lo: 0, Hi: -1, Rate: 1, Delay: 30 * time.Millisecond}}}
	inj := NewObject(&stubObject{}, sched)
	start := time.Now()
	if _, err := inj.DetectCtx(context.Background(), 0, testLabels); err != nil {
		t.Fatalf("latency episode errored: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("latency episode delayed only %v, want >= 30ms", d)
	}

	// A stall longer than the deadline returns ctx's error.
	stall := Schedule{Seed: 3, Episodes: []Episode{{Kind: Stall, Lo: 0, Hi: -1, Rate: 1, Delay: 10 * time.Second}}}
	sinj := NewObject(&stubObject{}, stall)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := sinj.DetectCtx(ctx, 0, testLabels)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call returned %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("stalled call took %v despite 20ms deadline", d)
	}
	if c := sinj.Counts(); c.Stalls != 1 {
		t.Errorf("stall count = %d, want 1", c.Stalls)
	}
}

func TestCorruptScores(t *testing.T) {
	sched := Schedule{Seed: 11, Episodes: []Episode{{Kind: Corrupt, Lo: 0, Hi: -1, Rate: 1}}}
	inj := NewObject(&stubObject{}, sched)
	dets, err := inj.DetectCtx(context.Background(), 5, testLabels)
	if err != nil {
		t.Fatalf("corrupt episode errored: %v", err)
	}
	if len(dets) != len(testLabels) {
		t.Fatalf("got %d detections, want %d", len(dets), len(testLabels))
	}
	for i, d := range dets {
		if d.Score == 0.75 {
			t.Errorf("detection %d score untouched by corruption", i)
		}
		if d.Score < 0 || d.Score > 1 {
			t.Errorf("corrupted score %v outside [0,1]", d.Score)
		}
		if d.Label != testLabels[i] {
			t.Errorf("corruption changed label %d: %v", i, d.Label)
		}
	}
	// Corruption itself is deterministic.
	again, _ := NewObject(&stubObject{}, sched).DetectCtx(context.Background(), 5, testLabels)
	for i := range dets {
		if dets[i] != again[i] {
			t.Errorf("corrupted detection %d differs across runs: %+v vs %+v", i, dets[i], again[i])
		}
	}
}

func TestActionInjector(t *testing.T) {
	sched := Schedule{Seed: 5, Episodes: []Episode{{Kind: Error, Lo: 0, Hi: 4, Rate: 1}, {Kind: Corrupt, Lo: 5, Hi: -1, Rate: 1}}}
	inj := NewAction(stubAction{}, sched)
	if inj.Name() != "stub-act" {
		t.Errorf("Name = %q", inj.Name())
	}
	if _, err := inj.DetectCtx(context.Background(), 2, testLabels); !errors.Is(err, ErrInjected) {
		t.Errorf("shot 2: want ErrInjected, got %v", err)
	}
	scores, err := inj.DetectCtx(context.Background(), 7, testLabels)
	if err != nil {
		t.Fatalf("shot 7: %v", err)
	}
	for _, s := range scores {
		if s.Score == 0.6 {
			t.Errorf("shot 7 score untouched by corruption")
		}
	}
	c := inj.Counts()
	if c.Errors != 1 || c.Corrupted != 1 {
		t.Errorf("counts = %+v, want 1 error + 1 corrupted", c)
	}
}

func TestEmptyScheduleIsTransparent(t *testing.T) {
	stub := &stubObject{}
	inj := NewObject(stub, Schedule{})
	dets, err := inj.DetectCtx(context.Background(), 0, testLabels)
	if err != nil || len(dets) != 2 || dets[0].Score != 0.75 {
		t.Fatalf("empty schedule altered the call: %v, %+v", err, dets)
	}
	if stub.calls != 1 {
		t.Errorf("backend called %d times, want 1", stub.calls)
	}
	if c := inj.Counts(); c.Total() != 0 {
		t.Errorf("counts = %+v, want zero", c)
	}
}
