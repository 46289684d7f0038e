package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/ingest"
	"vaq/internal/rvaq"
	"vaq/internal/synth"
)

// ingestFileBacked runs the ingestion phase over the world's full label
// universe, persists the metadata under dir/name, and loads it back
// file-backed so every query-time table access is a disk read (as in the
// paper's secondary-storage setting).
func (c *Context) ingestFileBacked(qs *synth.QuerySet, dir, name string) (*ingest.VideoData, error) {
	scene := qs.World.Scene()
	det := detect.NewSimObjectDetector(scene, c.ObjProfile, nil)
	rec := detect.NewSimActionRecognizer(scene, c.ActProfile, nil)
	truth := qs.World.Truth
	vd, err := ingest.Video(det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(), ingest.Config{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	vdir := filepath.Join(dir, name)
	if err := vd.Save(vdir); err != nil {
		return nil, err
	}
	return ingest.Load(vdir)
}

// offlineMethods are the four top-k methods Tables 6 and 7 compare.
var offlineMethods = []struct {
	name string
	run  func(*ingest.VideoData, annot.Query, int, rvaq.Options) ([]rvaq.SeqResult, rvaq.Stats, error)
}{
	{"FA", rvaq.FA},
	{"RVAQ-noSkip", rvaq.NoSkip},
	{"Pq-Traverse", rvaq.PqTraverse},
	{"RVAQ", rvaq.TopK},
}

// Table6Row is one (method, K) cell pair of Table 6.
type Table6Row struct {
	Method         string
	K              int
	Runtime        time.Duration
	RandomAccesses int64
	SortedAccesses int64
}

// Table6Ks is the K sweep of Table 6.
var Table6Ks = []int{1, 5, 9, 11, 13, 15}

// Table6 reproduces Table 6: runtime and random-access counts of FA,
// RVAQ-noSkip, Pq-Traverse and RVAQ on the movie Coffee and Cigarettes
// as K varies. Tables are file-backed: accesses are real disk reads.
func (c *Context) Table6() ([]Table6Row, error) {
	dir, err := os.MkdirTemp("", "vaq-table6-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	qs, err := synth.MovieScaled("coffee_and_cigarettes", c.Scale)
	if err != nil {
		return nil, err
	}
	vd, err := c.ingestFileBacked(qs, dir, "coffee_and_cigarettes")
	if err != nil {
		return nil, err
	}
	var out []Table6Row
	for _, m := range offlineMethods {
		for _, k := range Table6Ks {
			_, stats, err := m.run(vd, qs.Query, k, rvaq.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("%s K=%d: %w", m.name, k, err)
			}
			out = append(out, Table6Row{
				Method: m.name, K: k,
				Runtime:        stats.Runtime,
				RandomAccesses: stats.Accesses.Random,
				SortedAccesses: stats.Accesses.Sorted + stats.Accesses.Reverse,
			})
		}
	}
	return out, nil
}

// Table7Row is one cell of Table 7.
type Table7Row struct {
	Set            string
	Method         string
	Runtime        time.Duration
	RandomAccesses int64
}

// Table7 reproduces Table 7: the four methods on the YouTube sets q1
// and q2 at K = 5.
func (c *Context) Table7() ([]Table7Row, error) {
	dir, err := os.MkdirTemp("", "vaq-table7-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	const k = 5
	var out []Table7Row
	for _, id := range []string{"q1", "q2"} {
		qs, err := c.youtube(id)
		if err != nil {
			return nil, err
		}
		vd, err := c.ingestFileBacked(qs, dir, id)
		if err != nil {
			return nil, err
		}
		for _, m := range offlineMethods {
			_, stats, err := m.run(vd, qs.Query, k, rvaq.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", m.name, id, err)
			}
			out = append(out, Table7Row{Set: id, Method: m.name, Runtime: stats.Runtime, RandomAccesses: stats.Accesses.Random})
		}
	}
	return out, nil
}

// Table8Row is one cell of Table 8: the speedup of RVAQ over
// Pq-Traverse.
type Table8Row struct {
	Movie   string
	K       int
	MaxK    bool
	Speedup float64
}

// Table8Ks is the K sweep of Table 8. Each movie runs the Ks below its
// max K (the number of candidate sequences), then max K itself.
var Table8Ks = []int{1, 3, 5, 7, 9, 11}

// Table8 reproduces Table 8: RVAQ's speedup over Pq-Traverse on the
// movies Iron Man, Star Wars 3 and Titanic as K varies. The speedup is
// computed on random-access counts (the paper's runtime is dominated by
// them; access counts are deterministic where wall time is noisy).
func (c *Context) Table8() ([]Table8Row, error) {
	dir, err := os.MkdirTemp("", "vaq-table8-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out []Table8Row
	for _, name := range []string{"iron_man", "star_wars_3", "titanic"} {
		qs, err := synth.MovieScaled(name, c.Scale)
		if err != nil {
			return nil, err
		}
		vd, err := c.ingestFileBacked(qs, dir, name)
		if err != nil {
			return nil, err
		}
		pq, err := vd.CandidateSequences(qs.Query)
		if err != nil {
			return nil, err
		}
		maxK := len(pq)
		if maxK == 0 {
			return nil, fmt.Errorf("table8: %s has no candidate sequences", name)
		}
		_, base, err := rvaq.PqTraverse(vd, qs.Query, 1, rvaq.DefaultOptions())
		if err != nil {
			return nil, err
		}
		var ks []int
		for _, k := range Table8Ks {
			if k < maxK {
				ks = append(ks, k)
			}
		}
		ks = append(ks, maxK)
		for i, k := range ks {
			_, stats, err := rvaq.TopK(vd, qs.Query, k, rvaq.DefaultOptions())
			if err != nil {
				return nil, err
			}
			speedup := float64(base.Accesses.Random) / float64(max(stats.Accesses.Random, 1))
			out = append(out, Table8Row{Movie: name, K: k, MaxK: i == len(ks)-1, Speedup: speedup})
		}
	}
	return out, nil
}
