package rvaq

import (
	"math"
	"math/rand"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/ingest"
	"vaq/internal/interval"
	"vaq/internal/score"
	"vaq/internal/tables"
	"vaq/internal/video"
)

// synthVideoData fabricates an ingested video directly: per-label clip
// scores over nclips clips, individual sequences derived from which
// clips carry meaningful scores. Every clip inside a label's sequences
// has a positive score in that label's table — the invariant real
// ingestion guarantees.
func synthVideoData(rng *rand.Rand, nclips, nseqs int) (*ingest.VideoData, annot.Query) {
	q := annot.Query{Action: "a", Objects: []annot.Label{"o1", "o2"}}
	labels := []annot.Label{"a", "o1", "o2"}

	// Candidate regions: random disjoint sequences.
	var ivs []interval.Interval
	pos := rng.Intn(5)
	for i := 0; i < nseqs && pos < nclips-2; i++ {
		length := 1 + rng.Intn(12)
		hi := pos + length - 1
		if hi >= nclips {
			hi = nclips - 1
		}
		ivs = append(ivs, interval.Interval{Lo: pos, Hi: hi})
		pos = hi + 2 + rng.Intn(10)
	}
	seqs := interval.Normalize(ivs)

	vd := &ingest.VideoData{
		Meta:      video.Meta{Name: "synth", Frames: nclips * 50, Geom: video.DefaultGeometry()},
		ObjTables: map[annot.Label]tables.Table{},
		ActTables: map[annot.Label]tables.Table{},
		ObjSeqs:   map[annot.Label]interval.Set{},
		ActSeqs:   map[annot.Label]interval.Set{},
	}
	for _, l := range labels {
		var rows []tables.Row
		for c := 0; c < nclips; c++ {
			switch {
			case seqs.Contains(c):
				// In-sequence clips always have positive scores.
				rows = append(rows, tables.Row{CID: int32(c), Score: 0.5 + rng.Float64()*20})
			case rng.Float64() < 0.3:
				// Background noise rows elsewhere.
				rows = append(rows, tables.Row{CID: int32(c), Score: rng.Float64() * 3})
			}
		}
		tab := tables.NewMemTable(string(l), rows)
		if l == "a" {
			vd.ActTables[l] = tab
			vd.ActSeqs[l] = seqs
		} else {
			vd.ObjTables[l] = tab
			vd.ObjSeqs[l] = seqs
		}
	}
	return vd, q
}

func resultsEqual(a, b []SeqResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || math.Abs(a[i].Score-b[i].Score) > 1e-6 {
			return false
		}
	}
	return true
}

// TestPropRVAQMatchesOracle is the central correctness property: on
// random workloads, RVAQ (with and without skip), FA and Pq-Traverse
// return identical rankings for every K, for both scoring schemes.
func TestPropRVAQMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	schemes := []score.Functions{
		score.Default(),
		{H: score.Additive{}, G: score.Additive{}, F: score.MaxSeq{}},
	}
	for trial := 0; trial < 40; trial++ {
		vd, q := synthVideoData(rng, 150+rng.Intn(200), 2+rng.Intn(12))
		fns := schemes[trial%len(schemes)]
		opts := Options{Score: fns, Skip: true, ExactScores: true}
		pq, err := vd.CandidateSequences(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 5, len(pq), len(pq) + 3} {
			if k <= 0 {
				continue
			}
			oracle, _, err := PqTraverse(vd, q, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := TopK(vd, q, k, opts)
			if err != nil {
				t.Fatalf("trial %d k %d: %v", trial, k, err)
			}
			if !resultsEqual(got, oracle) {
				t.Fatalf("trial %d k=%d: RVAQ %v != oracle %v", trial, k, got, oracle)
			}
			ns, _, err := NoSkip(vd, q, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(ns, oracle) {
				t.Fatalf("trial %d k=%d: NoSkip %v != oracle %v", trial, k, ns, oracle)
			}
			fa, _, err := FA(vd, q, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(fa, oracle) {
				t.Fatalf("trial %d k=%d: FA %v != oracle %v", trial, k, fa, oracle)
			}
		}
	}
}

func TestRVAQSkipReducesAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vd, q := synthVideoData(rng, 400, 15)
	_, withSkip, err := TopK(vd, q, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, noSkip, err := NoSkip(vd, q, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if withSkip.Accesses.Random >= noSkip.Accesses.Random {
		t.Fatalf("skip did not reduce random accesses: %d vs %d",
			withSkip.Accesses.Random, noSkip.Accesses.Random)
	}
}

func TestRVAQConvergesToPqTraverseAtMaxK(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	vd, q := synthVideoData(rng, 300, 12)
	pq, _ := vd.CandidateSequences(q)
	_, rv, err := TopK(vd, q, len(pq), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, pt, err := PqTraverse(vd, q, len(pq), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// With all sequences requested and exact scores, RVAQ must do at
	// least as much random-access work as Pq-Traverse's lower bound,
	// but not wildly more (within 2x).
	if rv.Accesses.Random > 2*pt.Accesses.Random {
		t.Fatalf("RVAQ at max K uses %d accesses vs Pq-Traverse %d", rv.Accesses.Random, pt.Accesses.Random)
	}
}

func TestTopKValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vd, q := synthVideoData(rng, 100, 3)
	if _, _, err := TopK(vd, q, 0, DefaultOptions()); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := PqTraverse(vd, q, -1, DefaultOptions()); err == nil {
		t.Error("negative k accepted")
	}
	if _, _, err := FA(vd, q, 0, DefaultOptions()); err == nil {
		t.Error("FA k=0 accepted")
	}
	if _, _, err := TopK(vd, annot.Query{Action: "ghost"}, 1, DefaultOptions()); err == nil {
		t.Error("unknown action accepted")
	}
}

func TestTopKEmptyCandidates(t *testing.T) {
	vd := &ingest.VideoData{
		Meta:      video.Meta{Name: "empty", Frames: 5000, Geom: video.DefaultGeometry()},
		ObjTables: map[annot.Label]tables.Table{"o1": tables.NewMemTable("o1", nil)},
		ActTables: map[annot.Label]tables.Table{"a": tables.NewMemTable("a", nil)},
		ObjSeqs:   map[annot.Label]interval.Set{"o1": nil},
		ActSeqs:   map[annot.Label]interval.Set{"a": nil},
	}
	q := annot.Query{Action: "a", Objects: []annot.Label{"o1"}}
	for _, f := range []func(*ingest.VideoData, annot.Query, int, Options) ([]SeqResult, Stats, error){TopK, NoSkip, PqTraverse, FA} {
		res, stats, err := f(vd, q, 3, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 || stats.Candidates != 0 {
			t.Fatalf("empty candidates yielded %v", res)
		}
	}
}

func TestResultsSortedByScore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vd, q := synthVideoData(rng, 250, 10)
	res, _, err := TopK(vd, q, 8, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatalf("results not sorted: %v", res)
		}
	}
}

func TestInexactScoresAreLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	vd, q := synthVideoData(rng, 250, 10)
	opts := DefaultOptions()
	opts.ExactScores = false
	approx, approxStats, err := TopK(vd, q, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact, exactStats, err := TopK(vd, q, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same membership (compare as sets of sequences).
	mem := map[interval.Interval]float64{}
	for _, r := range exact {
		mem[r.Seq] = r.Score
	}
	for _, r := range approx {
		want, ok := mem[r.Seq]
		if !ok {
			t.Fatalf("inexact mode changed membership: %v not in %v", r.Seq, exact)
		}
		if r.Score > want+1e-9 {
			t.Fatalf("lower bound %v exceeds exact %v", r.Score, want)
		}
	}
	if approxStats.Accesses.Random > exactStats.Accesses.Random {
		t.Fatalf("inexact mode used more accesses: %d vs %d",
			approxStats.Accesses.Random, exactStats.Accesses.Random)
	}
}

func TestFindSeq(t *testing.T) {
	pq := interval.Set{{Lo: 3, Hi: 7}, {Lo: 20, Hi: 22}}
	if i, ok := findSeq(pq, 5); !ok || i != 0 {
		t.Fatalf("findSeq(5) = %d,%v", i, ok)
	}
	if i, ok := findSeq(pq, 21); !ok || i != 1 {
		t.Fatalf("findSeq(21) = %d,%v", i, ok)
	}
	if _, ok := findSeq(pq, 10); ok {
		t.Fatal("findSeq(10) should miss")
	}
}

func TestNegativeScoreRejected(t *testing.T) {
	vd := &ingest.VideoData{
		Meta: video.Meta{Name: "neg", Frames: 500, Geom: video.DefaultGeometry()},
		ObjTables: map[annot.Label]tables.Table{
			"o1": tables.NewMemTable("o1", []tables.Row{{CID: 1, Score: -5}}),
		},
		ActTables: map[annot.Label]tables.Table{},
		ObjSeqs:   map[annot.Label]interval.Set{"o1": {{Lo: 1, Hi: 1}}},
		ActSeqs:   map[annot.Label]interval.Set{},
	}
	q := annot.Query{Objects: []annot.Label{"o1"}}
	if _, _, err := TopK(vd, q, 1, DefaultOptions()); err == nil {
		t.Fatal("negative clip score accepted")
	}
}
