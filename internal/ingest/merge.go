package ingest

import (
	"fmt"

	"vaq/internal/annot"
	"vaq/internal/interval"
	"vaq/internal/tables"
	"vaq/internal/video"
)

// §4.2: "Multiple videos are handled in the same manner by associating a
// video identifier to each clip identifier." Merge implements that
// namespacing: it combines several ingested videos into one VideoData
// whose clip identifiers are offset per video, so the offline algorithms
// (RVAQ and the baselines) run once across the whole repository and
// rank sequences globally. The repository's global top-k gets the same
// ranking from one run per video with a shared bound and is tested
// against this formulation.

// ClipSpan records where one video's clips live in a merged namespace.
type ClipSpan struct {
	Name string
	// Base is the merged clip id of the video's clip 0; the video
	// occupies [Base, Base+Clips).
	Base, Clips int
}

// Merged is a multi-video VideoData plus the namespace map.
type Merged struct {
	*VideoData
	Spans []ClipSpan
}

// Locate maps a merged clip id back to (video name, local clip id).
func (m *Merged) Locate(cid int) (string, int, bool) {
	for _, s := range m.Spans {
		if cid >= s.Base && cid < s.Base+s.Clips {
			return s.Name, cid - s.Base, true
		}
	}
	return "", 0, false
}

// LocateSeq maps a merged result sequence back to its video and local
// clip range. Merged sequences never span videos (a gap of one clip id
// is reserved between videos).
func (m *Merged) LocateSeq(seq interval.Interval) (name string, local interval.Interval, ok bool) {
	n, lo, ok := m.Locate(seq.Lo)
	if !ok {
		return "", interval.Interval{}, false
	}
	n2, hi, ok := m.Locate(seq.Hi)
	if !ok || n2 != n {
		return "", interval.Interval{}, false
	}
	return n, interval.Interval{Lo: lo, Hi: hi}, true
}

// Merge combines ingested videos (name → metadata) into one namespaced
// VideoData. Every video must share the same geometry. Labels absent
// from some videos simply contribute no rows/sequences for that span. A
// one-clip gap separates consecutive videos so result sequences cannot
// bridge them.
func Merge(videos []*VideoData, names []string) (*Merged, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("ingest: nothing to merge")
	}
	if len(videos) != len(names) {
		return nil, fmt.Errorf("ingest: %d videos but %d names", len(videos), len(names))
	}
	geom := videos[0].Meta.Geom
	out := &Merged{
		VideoData: &VideoData{
			Meta:      video.Meta{Name: "merged", Geom: geom},
			ObjTables: map[annot.Label]tables.Table{},
			ActTables: map[annot.Label]tables.Table{},
			ObjSeqs:   map[annot.Label]interval.Set{},
			ActSeqs:   map[annot.Label]interval.Set{},
		},
	}
	objRows := map[annot.Label][]tables.Row{}
	actRows := map[annot.Label][]tables.Row{}
	objSeqs := map[annot.Label][]interval.Interval{}
	actSeqs := map[annot.Label][]interval.Interval{}

	base := 0
	for i, vd := range videos {
		if vd.Meta.Geom != geom {
			return nil, fmt.Errorf("ingest: video %q geometry %+v differs from %+v", names[i], vd.Meta.Geom, geom)
		}
		nclips := vd.Meta.Clips()
		out.Spans = append(out.Spans, ClipSpan{Name: names[i], Base: base, Clips: nclips})
		if err := mergeTables(vd.ObjTables, objRows, base); err != nil {
			return nil, fmt.Errorf("ingest: video %q: %w", names[i], err)
		}
		if err := mergeTables(vd.ActTables, actRows, base); err != nil {
			return nil, fmt.Errorf("ingest: video %q: %w", names[i], err)
		}
		mergeSeqs(vd.ObjSeqs, objSeqs, base)
		mergeSeqs(vd.ActSeqs, actSeqs, base)
		out.TracksOpened += vd.TracksOpened
		// Degraded unit indices shift with the clip namespace: the
		// video's frame 0 is merged frame base·ClipLen, its shot 0 is
		// merged shot base·ShotsPerClip.
		for _, f := range vd.DegradedFrames {
			out.DegradedFrames = append(out.DegradedFrames, f+base*geom.ClipLen())
		}
		for _, s := range vd.DegradedShots {
			out.DegradedShots = append(out.DegradedShots, s+base*geom.ShotsPerClip)
		}
		// Per-unit hops shift with the same offsets; the hop values
		// themselves are namespace-free (they index the fallback chain).
		for f, hop := range vd.DegradedFrameHops {
			if out.DegradedFrameHops == nil {
				out.DegradedFrameHops = map[int]int{}
			}
			out.DegradedFrameHops[f+base*geom.ClipLen()] = hop
		}
		for s, hop := range vd.DegradedShotHops {
			if out.DegradedShotHops == nil {
				out.DegradedShotHops = map[int]int{}
			}
			out.DegradedShotHops[s+base*geom.ShotsPerClip] = hop
		}
		// Planned-ingest slack shifts with the namespace too, so a merged
		// top-k keeps the same sound bounds as the per-video runs. The
		// unit caps must agree across videos — they describe the model
		// family, not one video.
		if !vd.Plan.Empty() {
			if out.Plan == nil {
				out.Plan = &PlanInfo{
					Rate: vd.Plan.Rate, Levels: vd.Plan.Levels,
					ObjUnitCap: vd.Plan.ObjUnitCap, ActUnitCap: vd.Plan.ActUnitCap,
					MissingFrames: map[int32]int{}, MissingShots: map[int32]int{},
				}
			} else if out.Plan.ObjUnitCap != vd.Plan.ObjUnitCap || out.Plan.ActUnitCap != vd.Plan.ActUnitCap {
				return nil, fmt.Errorf("ingest: video %q plan unit caps (%v, %v) differ from (%v, %v)",
					names[i], vd.Plan.ObjUnitCap, vd.Plan.ActUnitCap, out.Plan.ObjUnitCap, out.Plan.ActUnitCap)
			}
			for cid, n := range vd.Plan.MissingFrames {
				out.Plan.MissingFrames[cid+int32(base)] = n
			}
			for cid, n := range vd.Plan.MissingShots {
				out.Plan.MissingShots[cid+int32(base)] = n
			}
		}
		base += nclips + 1 // reserve a gap clip between videos
	}
	out.Meta.Frames = base * geom.ClipLen()
	for l, rows := range objRows {
		out.ObjTables[l] = tables.NewMemTable(string(l), rows)
		out.ObjSeqs[l] = interval.Normalize(objSeqs[l])
	}
	for l, rows := range actRows {
		out.ActTables[l] = tables.NewMemTable(string(l), rows)
		out.ActSeqs[l] = interval.Normalize(actSeqs[l])
	}
	return out, nil
}

func mergeTables(in map[annot.Label]tables.Table, acc map[annot.Label][]tables.Row, base int) error {
	for l, t := range in {
		for i := 0; i < t.Len(); i++ {
			r, err := t.SortedRow(i, nil)
			if err != nil {
				return err
			}
			r.CID += int32(base)
			acc[l] = append(acc[l], r)
		}
	}
	return nil
}

func mergeSeqs(in map[annot.Label]interval.Set, acc map[annot.Label][]interval.Interval, base int) {
	for l, s := range in {
		for _, iv := range s {
			acc[l] = append(acc[l], interval.Interval{Lo: iv.Lo + base, Hi: iv.Hi + base})
		}
		if _, ok := acc[l]; !ok {
			acc[l] = []interval.Interval{}
		}
	}
}
