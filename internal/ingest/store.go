package ingest

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"vaq/internal/annot"
	"vaq/internal/interval"
	"vaq/internal/tables"
	"vaq/internal/video"
)

// Repository directory layout, one directory per video:
//
//	<dir>/<video>/manifest.json          meta + individual sequences
//	<dir>/<video>/obj_<label>.tbl        object clip score tables
//	<dir>/<video>/act_<label>.tbl        action clip score tables
//
// Adding a video is writing its directory; removing it is deleting the
// directory — the per-video isolation the paper's table design enables.

// manifest is the JSON-serialized part of VideoData.
type manifest struct {
	Name    string                    `json:"name"`
	Frames  int                       `json:"frames"`
	Geom    video.Geometry            `json:"geometry"`
	ObjSeqs map[string][]intervalJSON `json:"object_sequences"`
	ActSeqs map[string][]intervalJSON `json:"action_sequences"`
	Tracks  int                       `json:"tracks_opened"`
	// DegradedFrames / DegradedShots persist the units the resilience
	// fallback chain served during ingestion (absent for clean ingests).
	DegradedFrames []int `json:"degraded_frames,omitempty"`
	DegradedShots  []int `json:"degraded_shots,omitempty"`
	// DegradedFrameHops / DegradedShotHops persist each degraded
	// unit's fallback hop (JSON object keys are strings, so the int
	// unit indices round-trip through strconv like the plan's clip
	// ids). Absent in pre-hop manifests: those units load with hop 0,
	// "unknown".
	DegradedFrameHops map[string]int `json:"degraded_frame_hops,omitempty"`
	DegradedShotHops  map[string]int `json:"degraded_shot_hops,omitempty"`
	// Plan persists the adaptive-sampling state of a planned ingest
	// (absent for dense ingests). JSON object keys are strings, so the
	// int32 clip ids round-trip through strconv in planToJSON.
	Plan *planJSON `json:"plan,omitempty"`
}

// planJSON mirrors PlanInfo with string clip-id keys for JSON.
type planJSON struct {
	Rate          int            `json:"rate"`
	Levels        int            `json:"levels,omitempty"`
	ObjUnitCap    float64        `json:"obj_unit_cap"`
	ActUnitCap    float64        `json:"act_unit_cap"`
	MissingFrames map[string]int `json:"missing_frames,omitempty"`
	MissingShots  map[string]int `json:"missing_shots,omitempty"`
}

func planToJSON(p *PlanInfo) *planJSON {
	if p.Empty() {
		return nil
	}
	out := &planJSON{Rate: p.Rate, Levels: p.Levels, ObjUnitCap: p.ObjUnitCap, ActUnitCap: p.ActUnitCap}
	if len(p.MissingFrames) > 0 {
		out.MissingFrames = make(map[string]int, len(p.MissingFrames))
		for cid, n := range p.MissingFrames {
			out.MissingFrames[strconv.Itoa(int(cid))] = n
		}
	}
	if len(p.MissingShots) > 0 {
		out.MissingShots = make(map[string]int, len(p.MissingShots))
		for cid, n := range p.MissingShots {
			out.MissingShots[strconv.Itoa(int(cid))] = n
		}
	}
	return out
}

func planFromJSON(p *planJSON) (*PlanInfo, error) {
	if p == nil {
		return nil, nil
	}
	out := &PlanInfo{Rate: p.Rate, Levels: p.Levels, ObjUnitCap: p.ObjUnitCap, ActUnitCap: p.ActUnitCap,
		MissingFrames: map[int32]int{}, MissingShots: map[int32]int{}}
	for s, n := range p.MissingFrames {
		cid, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("ingest: plan clip id %q: %w", s, err)
		}
		out.MissingFrames[int32(cid)] = n
	}
	for s, n := range p.MissingShots {
		cid, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("ingest: plan clip id %q: %w", s, err)
		}
		out.MissingShots[int32(cid)] = n
	}
	return out, nil
}

func hopsToJSON(m map[int]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for u, hop := range m {
		out[strconv.Itoa(u)] = hop
	}
	return out
}

func hopsFromJSON(m map[string]int) (map[int]int, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[int]int, len(m))
	for s, hop := range m {
		u, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("ingest: degraded unit index %q: %w", s, err)
		}
		out[u] = hop
	}
	return out, nil
}

type intervalJSON struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

func seqsToJSON(m map[annot.Label]interval.Set) map[string][]intervalJSON {
	out := make(map[string][]intervalJSON, len(m))
	for l, s := range m {
		ivs := make([]intervalJSON, len(s))
		for i, iv := range s {
			ivs[i] = intervalJSON{Lo: iv.Lo, Hi: iv.Hi}
		}
		out[string(l)] = ivs
	}
	return out
}

func seqsFromJSON(m map[string][]intervalJSON) map[annot.Label]interval.Set {
	out := make(map[annot.Label]interval.Set, len(m))
	for l, ivs := range m {
		s := make([]interval.Interval, len(ivs))
		for i, iv := range ivs {
			s[i] = interval.Interval{Lo: iv.Lo, Hi: iv.Hi}
		}
		out[annot.Label(l)] = interval.Normalize(s)
	}
	return out
}

// Save persists the video's metadata under dir (created if needed).
// Tables must be MemTables (fresh from Video); loading them back yields
// FileTables that read rows from disk.
func (vd *VideoData) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ingest: mkdir %s: %w", dir, err)
	}
	man := manifest{
		Name:    vd.Meta.Name,
		Frames:  vd.Meta.Frames,
		Geom:    vd.Meta.Geom,
		ObjSeqs: seqsToJSON(vd.ObjSeqs),
		ActSeqs: seqsToJSON(vd.ActSeqs),
		Tracks:  vd.TracksOpened,

		DegradedFrames:    vd.DegradedFrames,
		DegradedShots:     vd.DegradedShots,
		DegradedFrameHops: hopsToJSON(vd.DegradedFrameHops),
		DegradedShotHops:  hopsToJSON(vd.DegradedShotHops),
		Plan:              planToJSON(vd.Plan),
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("ingest: marshal manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644); err != nil {
		return fmt.Errorf("ingest: write manifest: %w", err)
	}
	write := func(prefix string, m map[annot.Label]tables.Table) error {
		for l, t := range m {
			mt, ok := t.(*tables.MemTable)
			if !ok {
				return fmt.Errorf("ingest: table %q is not in memory; re-ingest before saving", l)
			}
			path := filepath.Join(dir, prefix+sanitize(string(l))+".tbl")
			if err := tables.WriteFile(path, string(l), mt.Rows()); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("obj_", vd.ObjTables); err != nil {
		return err
	}
	return write("act_", vd.ActTables)
}

// sanitize keeps labels filesystem-safe.
func sanitize(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		}
		return '_'
	}, label)
}

// Load reads a video's metadata back from dir. Tables come back
// file-backed: every row accessed at query time is a disk read.
func Load(dir string) (*VideoData, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("ingest: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("ingest: parse manifest: %w", err)
	}
	planInfo, err := planFromJSON(man.Plan)
	if err != nil {
		return nil, err
	}
	frameHops, err := hopsFromJSON(man.DegradedFrameHops)
	if err != nil {
		return nil, err
	}
	shotHops, err := hopsFromJSON(man.DegradedShotHops)
	if err != nil {
		return nil, err
	}
	vd := &VideoData{
		Meta:         video.Meta{Name: man.Name, Frames: man.Frames, Geom: man.Geom},
		ObjTables:    map[annot.Label]tables.Table{},
		ActTables:    map[annot.Label]tables.Table{},
		ObjSeqs:      seqsFromJSON(man.ObjSeqs),
		ActSeqs:      seqsFromJSON(man.ActSeqs),
		TracksOpened: man.Tracks,

		DegradedFrames:    man.DegradedFrames,
		DegradedShots:     man.DegradedShots,
		DegradedFrameHops: frameHops,
		DegradedShotHops:  shotHops,
		Plan:              planInfo,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: read dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".tbl") {
			continue
		}
		t, err := tables.OpenFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasPrefix(name, "obj_"):
			vd.ObjTables[annot.Label(t.Label())] = t
		case strings.HasPrefix(name, "act_"):
			vd.ActTables[annot.Label(t.Label())] = t
		default:
			t.Close()
		}
	}
	return vd, nil
}

// Repository manages a directory of ingested videos. Readers take the
// current video map without a lock; Add and Remove copy it under mu and
// publish the copy, so a query holds a consistent snapshot while the
// repository changes under it.
type Repository struct {
	dir    string
	mu     sync.Mutex // serializes writers
	videos atomic.Pointer[map[string]*VideoData]
}

// OpenRepository loads every video directory under dir (creating dir if
// absent).
func OpenRepository(dir string) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: mkdir %s: %w", dir, err)
	}
	videos := map[string]*VideoData{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: read repository: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		vd, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("ingest: load video %s: %w", e.Name(), err)
		}
		videos[e.Name()] = vd
	}
	r := &Repository{dir: dir}
	r.videos.Store(&videos)
	return r, nil
}

// Add ingest-saves a video into the repository and registers it.
func (r *Repository) Add(name string, vd *VideoData) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.videos.Load()
	if _, exists := old[name]; exists {
		return fmt.Errorf("ingest: video %q already in repository", name)
	}
	if err := vd.Save(filepath.Join(r.dir, sanitize(name))); err != nil {
		return err
	}
	videos := maps.Clone(old)
	videos[name] = vd
	r.videos.Store(&videos)
	return nil
}

// Remove deletes a video's metadata from the repository.
func (r *Repository) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.videos.Load()
	if _, exists := old[name]; !exists {
		return fmt.Errorf("ingest: video %q not in repository", name)
	}
	if err := os.RemoveAll(filepath.Join(r.dir, sanitize(name))); err != nil {
		return err
	}
	videos := maps.Clone(old)
	delete(videos, name)
	r.videos.Store(&videos)
	return nil
}

// Video returns one video's metadata.
func (r *Repository) Video(name string) (*VideoData, bool) {
	vd, ok := (*r.videos.Load())[name]
	return vd, ok
}

// Names lists the repository's videos in sorted order.
func (r *Repository) Names() []string {
	videos := *r.videos.Load()
	out := make([]string, 0, len(videos))
	for n := range videos {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
