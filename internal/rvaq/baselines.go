package rvaq

import (
	"fmt"
	"sort"
	"time"

	"vaq/internal/annot"
	"vaq/internal/ingest"
)

// NoSkip runs RVAQ with the skip mechanism disabled (§5.1's
// RVAQ-noSkip): the iterator processes every clip of the video, paying
// random accesses for clips outside P_q too.
func NoSkip(vd *ingest.VideoData, q annot.Query, k int, opts Options) ([]SeqResult, Stats, error) {
	opts = opts.withDefaults()
	opts.Skip = false
	return TopK(vd, q, k, opts)
}

// PqTraverse is the §5.1 baseline that random-accesses every clip of
// every sequence in P_q, computes all sequence scores exactly, and
// returns the K best. Its cost is constant in K.
func PqTraverse(vd *ingest.VideoData, q annot.Query, k int, opts Options) ([]SeqResult, Stats, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("rvaq: k must be positive, got %d", k)
	}
	pq, err := vd.CandidateSequences(q)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Candidates: len(pq)}
	act, objs, err := vd.QueryTables(q)
	if err != nil {
		return nil, stats, err
	}
	fns := opts.Score
	it := newTBClip(act, objs, fns, &stats.Accesses, func(int32) bool { return false }, nil)

	results := make([]SeqResult, 0, len(pq))
	for _, iv := range pq {
		total := fns.F.Zero()
		for c := iv.Lo; c <= iv.Hi; c++ {
			s, err := it.ScoreClip(int32(c))
			if err != nil {
				return nil, stats, err
			}
			total = fns.F.Merge(total, s)
		}
		results = append(results, SeqResult{Seq: iv, Score: total})
	}
	sortResults(results)
	if len(results) > k {
		results = results[:k]
	}
	stats.Runtime = time.Since(start)
	return results, stats, nil
}

// FA is Fagin's Algorithm adapted as in §5.1: sorted access in parallel
// over the query tables produces clips in score order; clips outside the
// ranges of P_q are disregarded; clips inside are scored by random
// access. The algorithm stops once the score of every sequence in P_q is
// complete and returns the K best.
func FA(vd *ingest.VideoData, q annot.Query, k int, opts Options) ([]SeqResult, Stats, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("rvaq: k must be positive, got %d", k)
	}
	pq, err := vd.CandidateSequences(q)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Candidates: len(pq)}
	if len(pq) == 0 {
		stats.Runtime = time.Since(start)
		return nil, stats, nil
	}
	act, objs, err := vd.QueryTables(q)
	if err != nil {
		return nil, stats, err
	}
	fns := opts.Score

	remaining := pq.Len() // clips of P_q still unscored
	seqScore := make([]float64, len(pq))
	for i := range seqScore {
		seqScore[i] = fns.F.Zero()
	}
	scored := map[int32]bool{}
	it := newTBClip(act, objs, fns, &stats.Accesses, func(int32) bool { return false }, nil)

	ts := it.allTables()
	for row := 0; remaining > 0; row++ {
		progressed := false
		for _, t := range ts {
			if row >= t.Len() {
				continue
			}
			progressed = true
			r, err := t.SortedRow(row, &stats.Accesses)
			if err != nil {
				return nil, stats, err
			}
			if scored[r.CID] {
				continue
			}
			scored[r.CID] = true
			// Fagin's algorithm produces each clip with its full score:
			// every distinct clip seen under sorted access is completed
			// by random access, and only then checked against the
			// ranges of P_q (clips outside are disregarded).
			s, err := it.ScoreClip(r.CID)
			if err != nil {
				return nil, stats, err
			}
			si, ok := findSeq(pq, r.CID)
			if !ok {
				continue
			}
			seqScore[si] = fns.F.Merge(seqScore[si], s)
			remaining--
		}
		if !progressed {
			break // tables exhausted; unseen P_q clips score zero
		}
	}

	results := make([]SeqResult, len(pq))
	for i, iv := range pq {
		results[i] = SeqResult{Seq: iv, Score: seqScore[i]}
	}
	sortResults(results)
	if len(results) > k {
		results = results[:k]
	}
	stats.Runtime = time.Since(start)
	return results, stats, nil
}

// Naive computes the exact ranking by brute force without access
// accounting shortcuts; it is the reference oracle used by tests.
func Naive(vd *ingest.VideoData, q annot.Query, k int, opts Options) ([]SeqResult, error) {
	res, _, err := PqTraverse(vd, q, k, opts)
	return res, err
}

func sortResults(results []SeqResult) {
	sort.Slice(results, func(a, b int) bool {
		if results[a].Score != results[b].Score {
			return results[a].Score > results[b].Score
		}
		return results[a].Seq.Lo < results[b].Seq.Lo
	})
}
