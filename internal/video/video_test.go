package video

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("DefaultGeometry invalid: %v", err)
	}
	if g.ClipLen() != 50 {
		t.Fatalf("ClipLen = %d, want 50", g.ClipLen())
	}
}

func TestValidate(t *testing.T) {
	bad := []Geometry{
		{FPS: 0, ShotLen: 10, ShotsPerClip: 5},
		{FPS: 30, ShotLen: 0, ShotsPerClip: 5},
		{FPS: 30, ShotLen: 10, ShotsPerClip: 0},
		{FPS: -1, ShotLen: -1, ShotsPerClip: -1},
	}
	for _, g := range bad {
		if g.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", g)
		}
	}
}

func TestIndexConversions(t *testing.T) {
	g := Geometry{FPS: 30, ShotLen: 10, ShotsPerClip: 5}
	cases := []struct {
		frame FrameIdx
		clip  ClipIdx
	}{
		{0, 0},
		{9, 0},
		{10, 0},
		{49, 0},
		{50, 1},
		{123, 2},
	}
	for _, c := range cases {
		if got := g.ClipOfFrame(c.frame); got != c.clip {
			t.Errorf("ClipOfFrame(%d) = %d, want %d", c.frame, got, c.clip)
		}
	}
	if got := g.ClipOfShot(7); got != 1 {
		t.Errorf("ClipOfShot(7) = %d, want 1", got)
	}
}

func TestRanges(t *testing.T) {
	g := Geometry{FPS: 30, ShotLen: 10, ShotsPerClip: 5}
	lo, hi := g.FrameRangeOfClip(2)
	if lo != 100 || hi != 150 {
		t.Errorf("FrameRangeOfClip(2) = [%d,%d), want [100,150)", lo, hi)
	}
	slo, shi := g.ShotRangeOfClip(2)
	if slo != 10 || shi != 15 {
		t.Errorf("ShotRangeOfClip(2) = [%d,%d), want [10,15)", slo, shi)
	}
}

func TestCounts(t *testing.T) {
	g := Geometry{FPS: 30, ShotLen: 10, ShotsPerClip: 5}
	if got := g.Clips(149); got != 2 {
		t.Errorf("Clips(149) = %d, want 2 (trailing frames dropped)", got)
	}
	if got := g.Shots(35); got != 3 {
		t.Errorf("Shots(35) = %d, want 3", got)
	}
	if got := g.FramesForDuration(60); got != 1800 {
		t.Errorf("FramesForDuration(60) = %d, want 1800", got)
	}
}

func TestMeta(t *testing.T) {
	m := Meta{ID: 1, Name: "test", Frames: 1000, Geom: DefaultGeometry()}
	if m.Clips() != 20 {
		t.Errorf("Clips = %d, want 20", m.Clips())
	}
	if m.Shots() != 100 {
		t.Errorf("Shots = %d, want 100", m.Shots())
	}
	if s := m.String(); s == "" {
		t.Error("String empty")
	}
}

// Property: every frame inside FrameRangeOfClip(c) maps back to clip c,
// and shot/clip nesting is consistent.
func TestQuickGeometryRoundTrip(t *testing.T) {
	g := Geometry{FPS: 30, ShotLen: 12, ShotsPerClip: 4}
	f := func(raw uint16) bool {
		v := FrameIdx(raw)
		c := g.ClipOfFrame(v)
		lo, hi := g.FrameRangeOfClip(c)
		if !(lo <= v && v < hi) {
			return false
		}
		s := ShotIdx(int(v) / g.ShotLen)
		return g.ClipOfShot(s) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
