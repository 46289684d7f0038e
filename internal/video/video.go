// Package video defines the structural vocabulary of the paper
// (§2 Background): frames, shots, clips and sequences, together with the
// geometry that converts between their index spaces.
//
// A video is a sequence of frames. A shot is a fixed-length run of
// consecutive frames (the input unit of action recognition). A clip is a
// fixed-length run of consecutive shots (the unit at which query
// indicators are decided). A sequence is a run of consecutive clips (the
// unit of query results).
package video

import "fmt"

// FrameIdx indexes a frame within a single video, starting at 0.
type FrameIdx int

// ShotIdx indexes a shot within a single video, starting at 0.
type ShotIdx int

// ClipIdx indexes a clip within a single video, starting at 0.
type ClipIdx int

// ID identifies a video within a repository.
type ID int

// Geometry fixes the frame/shot/clip structure of a video. The shot
// length is dictated by the action recognition model (typical values
// 10–30 frames); the clip length is a tunable parameter of the system
// (Figures 4 and 5 of the paper study its effect).
type Geometry struct {
	// FPS is the frame rate, used only to convert wall-clock durations
	// into frame counts when synthesizing workloads.
	FPS int
	// ShotLen is the number of frames per shot.
	ShotLen int
	// ShotsPerClip is the number of shots per clip.
	ShotsPerClip int
}

// DefaultGeometry mirrors the example of Figure 1: fifty-frame clips of
// five ten-frame shots, at 30 frames per second.
func DefaultGeometry() Geometry {
	return Geometry{FPS: 30, ShotLen: 10, ShotsPerClip: 5}
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.FPS <= 0:
		return fmt.Errorf("video: FPS must be positive, got %d", g.FPS)
	case g.ShotLen <= 0:
		return fmt.Errorf("video: ShotLen must be positive, got %d", g.ShotLen)
	case g.ShotsPerClip <= 0:
		return fmt.Errorf("video: ShotsPerClip must be positive, got %d", g.ShotsPerClip)
	}
	return nil
}

// ClipLen returns the number of frames in one clip.
func (g Geometry) ClipLen() int { return g.ShotLen * g.ShotsPerClip }

// ClipOfFrame returns the clip containing frame v.
func (g Geometry) ClipOfFrame(v FrameIdx) ClipIdx { return ClipIdx(int(v) / g.ClipLen()) }

// ClipOfShot returns the clip containing shot s.
func (g Geometry) ClipOfShot(s ShotIdx) ClipIdx { return ClipIdx(int(s) / g.ShotsPerClip) }

// FrameRangeOfClip returns the half-open frame range [lo, hi) of clip c.
func (g Geometry) FrameRangeOfClip(c ClipIdx) (lo, hi FrameIdx) {
	lo = FrameIdx(int(c) * g.ClipLen())
	return lo, lo + FrameIdx(g.ClipLen())
}

// ShotRangeOfClip returns the half-open shot range [lo, hi) of clip c.
func (g Geometry) ShotRangeOfClip(c ClipIdx) (lo, hi ShotIdx) {
	lo = ShotIdx(int(c) * g.ShotsPerClip)
	return lo, lo + ShotIdx(g.ShotsPerClip)
}

// Clips returns the number of whole clips in a video of n frames.
// Trailing frames that do not fill a clip are dropped, matching the
// paper's division of a video into non-overlapping fixed-length clips.
func (g Geometry) Clips(n int) int { return n / g.ClipLen() }

// Shots returns the number of whole shots in a video of n frames.
func (g Geometry) Shots(n int) int { return n / g.ShotLen }

// FramesForDuration converts a duration in seconds to a frame count.
func (g Geometry) FramesForDuration(seconds float64) int {
	return int(seconds * float64(g.FPS))
}

// Meta describes one video in a repository.
type Meta struct {
	ID     ID
	Name   string
	Frames int
	Geom   Geometry
}

// Clips returns the number of whole clips in the video.
func (m Meta) Clips() int { return m.Geom.Clips(m.Frames) }

// Shots returns the number of whole shots in the video.
func (m Meta) Shots() int { return m.Geom.Shots(m.Frames) }

func (m Meta) String() string {
	return fmt.Sprintf("video %d %q (%d frames, %d clips)", m.ID, m.Name, m.Frames, m.Clips())
}
