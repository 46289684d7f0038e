package detect

import (
	"sort"

	"vaq/internal/annot"
	"vaq/internal/video"
)

// Tracker assigns stable tracking identifiers to per-frame detections by
// greedy IoU data association, standing in for CenterTrack (§5.1). Each
// object instance keeps its identifier for as long as it is matched;
// identifiers start at 1 and are never reused.
//
// A Tracker is stateful and must be fed frames in ascending order.
type Tracker struct {
	iouThresh float64
	maxAge    int
	nextID    int
	active    []trackState
}

type trackState struct {
	id       int
	label    annot.Label
	box      Box
	lastSeen video.FrameIdx
}

// NewTracker returns a tracker matching detections to existing tracks
// when IoU ≥ iouThresh, dropping tracks unseen for more than maxAge
// frames.
func NewTracker(iouThresh float64, maxAge int) *Tracker {
	if iouThresh <= 0 {
		iouThresh = 0.3
	}
	if maxAge <= 0 {
		maxAge = 15
	}
	return &Tracker{iouThresh: iouThresh, maxAge: maxAge, nextID: 1}
}

// Update associates the detections of frame v with tracks, filling each
// Detection's Track field, and returns the detections. Unmatched
// detections open new tracks; stale tracks are expired.
func (t *Tracker) Update(v video.FrameIdx, dets []Detection) []Detection {
	// Expire stale tracks.
	alive := t.active[:0]
	for _, tr := range t.active {
		if int(v-tr.lastSeen) <= t.maxAge {
			alive = append(alive, tr)
		}
	}
	t.active = alive

	// Greedy matching: consider candidate pairs in decreasing IoU.
	type pair struct {
		det, trk int
		iou      float64
	}
	var pairs []pair
	for di, d := range dets {
		for ti, tr := range t.active {
			if tr.label != d.Label {
				continue
			}
			if iou := d.Box.IoU(tr.box); iou >= t.iouThresh {
				pairs = append(pairs, pair{det: di, trk: ti, iou: iou})
			}
		}
	}
	// Equal-IoU pairs tie-break on (detection index, track index) so
	// association is deterministic — sort.Slice alone is unstable and
	// would let ties pick arbitrary winners run to run.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].iou != pairs[j].iou {
			return pairs[i].iou > pairs[j].iou
		}
		if pairs[i].det != pairs[j].det {
			return pairs[i].det < pairs[j].det
		}
		return pairs[i].trk < pairs[j].trk
	})
	usedDet := make([]bool, len(dets))
	usedTrk := make([]bool, len(t.active))
	for _, p := range pairs {
		if usedDet[p.det] || usedTrk[p.trk] {
			continue
		}
		usedDet[p.det] = true
		usedTrk[p.trk] = true
		tr := &t.active[p.trk]
		tr.box = dets[p.det].Box
		tr.lastSeen = v
		dets[p.det].Track = tr.id
	}
	// Unmatched detections open new tracks.
	for di := range dets {
		if usedDet[di] {
			continue
		}
		dets[di].Track = t.nextID
		t.active = append(t.active, trackState{
			id:       t.nextID,
			label:    dets[di].Label,
			box:      dets[di].Box,
			lastSeen: v,
		})
		t.nextID++
	}
	return dets
}

// TracksOpened returns the total number of track identifiers issued.
func (t *Tracker) TracksOpened() int { return t.nextID - 1 }
