// Package annot holds ground-truth annotations for videos: for each
// object label, the frame intervals during which instances of that
// object are visible, and for each action label, the shot intervals
// during which the action takes place. It also derives, for a query, the
// ground-truth result sequences used for evaluation (§5.1): the
// intersection of the temporal intervals of all query-specified objects
// and the action.
package annot

import (
	"fmt"
	"sort"

	"vaq/internal/interval"
	"vaq/internal/video"
)

// Label names an object type or action category (e.g. "car",
// "washing_dishes").
type Label string

// Video is the full ground-truth annotation of one video.
type Video struct {
	Meta video.Meta
	// Objects maps object labels to the frame intervals during which at
	// least one instance is visible.
	Objects map[Label]interval.Set
	// Actions maps action labels to the shot intervals during which the
	// action takes place.
	Actions map[Label]interval.Set
}

// NewVideo returns an empty annotation for the given video.
func NewVideo(meta video.Meta) *Video {
	return &Video{
		Meta:    meta,
		Objects: map[Label]interval.Set{},
		Actions: map[Label]interval.Set{},
	}
}

// AddObject records that object label o is visible during the given
// frame intervals (merged with any previously recorded presence).
func (a *Video) AddObject(o Label, frames interval.Set) {
	a.Objects[o] = a.Objects[o].Union(frames).Clamp(0, a.Meta.Frames-1)
}

// AddAction records that action label act takes place during the given
// shot intervals.
func (a *Video) AddAction(act Label, shots interval.Set) {
	a.Actions[act] = a.Actions[act].Union(shots).Clamp(0, a.Meta.Shots()-1)
}

// ObjectLabels returns the annotated object labels in sorted order.
func (a *Video) ObjectLabels() []Label { return sortedLabels(a.Objects) }

// ActionLabels returns the annotated action labels in sorted order.
func (a *Video) ActionLabels() []Label { return sortedLabels(a.Actions) }

func sortedLabels(m map[Label]interval.Set) []Label {
	out := make([]Label, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Query is a conjunctive query per §2: one action plus zero or more
// object predicates.
type Query struct {
	// Action is the queried action label; empty means the query has no
	// action predicate (used by some Table 3 variants such as
	// "a=blowing leaves" alone — there the action is the only predicate).
	Action Label
	// Objects are the queried object labels, in the user-chosen
	// evaluation order (footnote 5: predicate order is user expertise).
	Objects []Label
}

// Validate reports whether the query has at least one predicate.
func (q Query) Validate() error {
	if q.Action == "" && len(q.Objects) == 0 {
		return fmt.Errorf("annot: query has no predicates")
	}
	return nil
}

func (q Query) String() string {
	s := "q:{"
	for i, o := range q.Objects {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("o%d=%s", i+1, o)
	}
	if q.Action != "" {
		if len(q.Objects) > 0 {
			s += "; "
		}
		s += "a=" + string(q.Action)
	}
	return s + "}"
}

// MinCoverUnits is the number of occurrence units (frames for objects,
// shots for actions) a predicate must hold within a clip for the clip to
// count as covered by the ground truth. Two units — the smallest
// statistically meaningful presence, matching the floor of the detection
// critical values — keeps the annotation convention consistent with the
// algorithms' clip indicators, so ideal models reproduce the ground
// truth exactly (Table 4).
const MinCoverUnits = 2

// GroundTruthClips returns the clip intervals over which every query
// predicate is simultaneously true: object frame intervals and action
// shot intervals are each mapped to the clips they cover (a clip counts
// as covered when the predicate holds on at least MinCoverUnits of its
// units), then intersected (§5.1's annotation protocol).
func (a *Video) GroundTruthClips(q Query) (interval.Set, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	g := a.Meta.Geom
	nclips := a.Meta.Clips()
	sets := make([]interval.Set, 0, len(q.Objects)+1)
	if q.Action != "" {
		sets = append(sets, coveredClips(a.Actions[q.Action], g.ShotsPerClip, nclips))
	}
	for _, o := range q.Objects {
		sets = append(sets, coveredClips(a.Objects[o], g.ClipLen(), nclips))
	}
	return interval.IntersectAll(sets...), nil
}

// coveredClips maps fine-grained presence intervals (frames or shots) to
// the clips on which the label is present for at least MinCoverUnits
// units, given unitsPerClip units per clip.
func coveredClips(fine interval.Set, unitsPerClip, nclips int) interval.Set {
	if nclips <= 0 {
		return nil
	}
	minCover := MinCoverUnits
	if minCover > unitsPerClip {
		minCover = unitsPerClip
	}
	ind := make([]bool, nclips)
	for c := 0; c < nclips; c++ {
		lo, hi := c*unitsPerClip, (c+1)*unitsPerClip-1
		cover := fine.Intersect(interval.Set{{Lo: lo, Hi: hi}}).Len()
		ind[c] = cover >= minCover
	}
	return interval.FromIndicators(ind)
}
