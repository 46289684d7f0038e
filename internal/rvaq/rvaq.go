// Package rvaq implements the offline query phase of the paper (§4.3–
// §4.4): algorithm RVAQ returns the top-K result sequences of a query
// against an ingested video, ranked by a user-supplied scoring scheme,
// while pruning clip-score-table accesses through progressively refined
// per-sequence score bounds (Equations 13–15) and a dynamically growing
// skip set. The package also ships the paper's comparison baselines:
// Fagin's algorithm (FA), RVAQ without the skip mechanism, and
// Pq-Traverse.
package rvaq

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vaq/internal/annot"
	"vaq/internal/explain"
	"vaq/internal/ingest"
	"vaq/internal/interval"
	"vaq/internal/pqueue"
	"vaq/internal/score"
	"vaq/internal/tables"
	"vaq/internal/trace"
)

// SeqResult is one ranked result sequence.
type SeqResult struct {
	Seq   interval.Interval // clip-id range (c_l, c_r)
	Score float64           // exact when Options.ExactScores, else the lower bound
	// Degraded marks a sequence containing at least one clip whose
	// ingest-time model outputs came from the resilience fallback chain.
	// Only set when Options.DegradedDiscount is armed (its Score is then
	// already down-weighted).
	Degraded bool
}

// Stats reports the cost of one query execution. For a single
// execution Runtime and CPURuntime coincide; aggregated over a
// parallel multi-video run, Runtime is the wall clock of the parallel
// region while CPURuntime sums the per-video runtimes, so
// CPURuntime/Runtime measures the effective speedup.
type Stats struct {
	Accesses   tables.AccessCounter
	Runtime    time.Duration // wall clock
	CPURuntime time.Duration // aggregate per-execution runtime
	Candidates int           // |P_q|
	Iterations int           // TBClip steps (RVAQ variants only)
	// DegradedClips counts degraded clips inside the candidate
	// sequences (only computed when Options.DegradedDiscount is armed).
	DegradedClips int
	// DensifiedClips counts clips whose scores were completed through
	// Options.Densify on a planned repository.
	DensifiedClips int
	// Bounded marks a run over a planned repository without a
	// densifier: result scores are sound lower bounds, not exact.
	Bounded bool
	// Incomplete marks a partial result: the run's deadline expired
	// before the stopping condition and Options.Partial returned the
	// best-so-far ranking (lower-bound scores) instead of an error.
	Incomplete bool
}

// Merge accumulates another execution's cost into s (wall-clock Runtime
// is left to the caller, who knows the parallel region's extent). A
// single incomplete shard marks the merged result incomplete.
func (s *Stats) Merge(o Stats) {
	s.Accesses.Add(o.Accesses)
	s.CPURuntime += o.CPURuntime
	s.Candidates += o.Candidates
	s.Iterations += o.Iterations
	s.DegradedClips += o.DegradedClips
	s.DensifiedClips += o.DensifiedClips
	s.Bounded = s.Bounded || o.Bounded
	s.Incomplete = s.Incomplete || o.Incomplete
}

// Options tunes a TopK execution.
type Options struct {
	// Score is the scoring scheme; zero value uses score.Default().
	Score score.Functions
	// Skip enables the C_skip mechanism of §4.3 (default on; RVAQ-noSkip
	// sets it off and processes every clip of the video).
	Skip bool
	// ExactScores computes exact scores for the returned top-K
	// sequences (random-accessing their remaining clips once membership
	// is decided). Off, the returned scores are the lower bounds at the
	// stopping point.
	ExactScores bool
	// Bound, when non-nil, joins the execution to a cross-shard bound
	// exchange (one shard per video of a parallel multi-video top-k):
	// the run periodically publishes its top-k lower bounds and prunes
	// with the global B_lo^K, so shards prune each other. The exchanged
	// bounds are conservative — results are identical to a run without
	// the exchange.
	Bound *GlobalBound
	// Shard identifies this execution in the exchange.
	Shard int
	// ExchangeEvery is the iteration period of the exchange (default 8).
	ExchangeEvery int
	// Partial returns the best-so-far top-K (lower-bound scores, no
	// exact-score completion) with Stats.Incomplete set when ctx expires
	// mid-run, instead of dropping the whole query with ctx's error.
	// Bounds only tighten monotonically, so a partial ranking is a valid
	// — just unrefined — answer. Off, an expired ctx is an error (the
	// pre-existing behavior).
	Partial bool
	// DegradedDiscount, in (0, 1], down-weights clips the repository
	// marked degraded at ingest time (VideoData.DegradedClipHops): a
	// degraded clip's exact score is multiplied by (1 − discount), and
	// results whose sequence contains a degraded clip carry
	// SeqResult.Degraded. The frontier bounds stay valid — a discounted
	// score never exceeds its raw value, so τ_top is still an upper
	// bound, and τ_btm is conservatively scaled by (1 − discount) for
	// the lower bound. 0 disables (degraded clips score as ingested).
	// RVAQ only; the baselines ignore it.
	DegradedDiscount float64
	// HopDiscounts generalizes DegradedDiscount to a per-hop table:
	// entry h−1 is the discount applied to clips whose worst degraded
	// unit was served by fallback hop h (1-based, as recorded in
	// VideoData.DegradedFrameHops/DegradedShotHops), so a hop-1
	// cheap-profile serve is down-weighted less than a hop-3
	// prior-only one. Hops past the table clamp to its last entry;
	// units with no recorded hop (pre-hop manifests) take the table's
	// worst (maximum) entry. Every entry must lie in [0, 1]. τ_btm is
	// conservatively scaled by (1 − max entry), so the frontier
	// bounds stay sound exactly as with the flat discount — which is
	// the single-entry-table special case. Mutually exclusive with
	// DegradedDiscount.
	HopDiscounts []float64
	// Densify, when non-nil on a planned repository (VideoData.Plan
	// set), recomputes a clip's exact score from every unit of the
	// source video, replacing the stored lower bound. With it armed the
	// run returns exact top-K results: clips are densified on first
	// touch, the finishing pass settles any membership contention the
	// bounds leave at exhaustion, and Stats.DensifiedClips counts the
	// completions. Without it, planned runs rank by lower bounds
	// (ExactScores is forced off and Stats.Bounded set). Dense
	// repositories ignore it.
	Densify func(cid int32) (float64, error)
	// Explain, when non-nil, collects the EXPLAIN top-k section: the
	// τ_top / B_lo^K bound trajectory, pruning and cache counters, and
	// the final access totals. Sharded runs share one collector (it is
	// concurrency-safe) and accumulate, mirroring Stats.Merge. Nil —
	// the default — costs only nil checks on the iteration path.
	Explain *explain.Collector
}

// DefaultOptions returns the standard RVAQ configuration.
func DefaultOptions() Options {
	return Options{Score: score.Default(), Skip: true, ExactScores: true}
}

func (o Options) withDefaults() Options {
	if o.Score.H == nil {
		o.Score = score.Default()
	}
	return o
}

// seqState tracks one candidate sequence's bound bookkeeping.
type seqState struct {
	iv         interval.Interval
	knownScore float64 // F-combined (lower-bound) scores of known clips
	// knownHi is the F-combined upper bounds of the same clips; equal to
	// knownScore except on a planned repository without a densifier,
	// where scored clips carry (lo, hi) pairs.
	knownHi    float64
	knownCount int
	up, lo     float64 // current bounds
	pruned     bool    // conclusively out of the top-K (clips skipped)
	degraded   bool    // contains a degraded clip (discount armed only)
}

// TopK runs RVAQ (Algorithm 4): top-K result sequences of query q over
// the ingested video vd.
func TopK(vd *ingest.VideoData, q annot.Query, k int, opts Options) ([]SeqResult, Stats, error) {
	return TopKCtx(context.Background(), vd, q, k, opts)
}

// TopKCtx is TopK with cancellation: the run checks ctx between TBClip
// iterations and returns ctx's error once it fires. When ctx carries a
// trace.Tracer, the run opens an "rvaq.topk" span (nested under ctx's
// current span) with child spans for the candidate computation, the
// TBClip iteration and the finishing pass, and feeds the rvaq.* counter
// catalogue (see docs/OBSERVABILITY.md).
func TopKCtx(ctx context.Context, vd *ingest.VideoData, q annot.Query, k int, opts Options) (_ []SeqResult, _ Stats, err error) {
	start := time.Now()
	opts = opts.withDefaults()
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("rvaq: k must be positive, got %d", k)
	}
	if d := opts.DegradedDiscount; d < 0 || d > 1 {
		return nil, Stats{}, fmt.Errorf("rvaq: DegradedDiscount must be in [0, 1], got %v", d)
	}
	for _, d := range opts.HopDiscounts {
		if d < 0 || d > 1 {
			return nil, Stats{}, fmt.Errorf("rvaq: hop discounts must be in [0, 1], got %v", d)
		}
	}
	if len(opts.HopDiscounts) > 0 && opts.DegradedDiscount > 0 {
		return nil, Stats{}, fmt.Errorf("rvaq: DegradedDiscount and HopDiscounts are mutually exclusive")
	}
	tr := trace.FromContext(ctx)
	ctx, qspan := trace.Start(ctx, "rvaq.topk")
	opts.Explain.TopKConfigure(k)
	stats := Stats{}
	if tr != nil {
		qspan.SetAttr("video", vd.Meta.Name)
		qspan.SetInt("k", int64(k))
		if opts.Bound != nil {
			qspan.SetInt("shard", int64(opts.Shard))
		}
		tr.Counter("rvaq.queries").Add(1)
		defer func() {
			qspan.SetInt("iterations", int64(stats.Iterations))
			qspan.SetInt("random_accesses", stats.Accesses.Random)
			if err != nil {
				qspan.SetAttr("error", err.Error())
			}
			qspan.End()
			tr.Counter("rvaq.iterations").Add(int64(stats.Iterations))
			tr.Counter("rvaq.candidates").Add(int64(stats.Candidates))
			tr.Counter("rvaq.random_accesses").Add(stats.Accesses.Random)
			tr.Counter("rvaq.sorted_accesses").Add(stats.Accesses.Sorted + stats.Accesses.Reverse)
		}()
	}
	_, cspan := trace.Start(ctx, "rvaq.candidates")
	pq, err := vd.CandidateSequences(q) // Equation 12
	cspan.End()
	if err != nil {
		return nil, stats, err
	}
	stats.Candidates = len(pq)
	if len(pq) == 0 {
		stats.Runtime = time.Since(start)
		stats.CPURuntime = stats.Runtime
		return nil, stats, nil
	}
	act, objs, err := vd.QueryTables(q)
	if err != nil {
		return nil, stats, err
	}
	fns := opts.Score

	seqs := make([]*seqState, len(pq))
	for i, iv := range pq {
		seqs[i] = &seqState{iv: iv, knownScore: fns.F.Zero(), knownHi: fns.F.Zero()}
	}

	// Degraded-clip discounting (armed by DegradedDiscount > 0 or a
	// HopDiscounts table — the flat discount is the single-entry
	// special case): mark the candidate sequences touching degraded
	// clips, and scale the bottom frontier bound conservatively —
	// every unseen clip's effective score is at least its raw τ_btm
	// bound times the worst-case factor (1 − max table entry).
	hopTable := opts.HopDiscounts
	if len(hopTable) == 0 && opts.DegradedDiscount > 0 {
		hopTable = []float64{opts.DegradedDiscount}
	}
	var degraded map[int32]int
	btmFactor := 1.0
	if len(hopTable) > 0 {
		degraded = vd.DegradedClipHops()
		if len(degraded) > 0 {
			btmFactor = 1 - maxDiscount(hopTable)
			for cid := range degraded {
				if i, ok := findSeq(pq, cid); ok {
					seqs[i].degraded = true
					stats.DegradedClips++
				}
			}
		}
	}

	// C_skip starts as the complement of P_q: the iterator never
	// random-accesses clips outside the candidate sequences. Pruned
	// sequences extend it as the algorithm progresses (§4.3).
	skip := func(cid int32) bool {
		i, ok := findSeq(pq, cid)
		if !ok {
			return true
		}
		return seqs[i].pruned
	}
	if !opts.Skip {
		skip = func(int32) bool { return false }
	}

	onScored := func(cid int32, lo, hi float64) {
		if i, ok := findSeq(pq, cid); ok {
			seqs[i].knownScore = fns.F.Merge(seqs[i].knownScore, lo)
			seqs[i].knownHi = fns.F.Merge(seqs[i].knownHi, hi)
			seqs[i].knownCount++
		}
	}

	it := newTBClip(act, objs, fns, &stats.Accesses, skip, onScored)
	// Planned repository: stored table scores are lower bounds from the
	// ingest-time adaptive sampling planner. Arm the iterator's slack
	// bookkeeping so every bound stays sound, and without a densifier
	// fall back to ranking by lower bounds.
	planned := !vd.Plan.Empty()
	if planned {
		it.armPlan(vd.Plan, opts.Densify)
		if opts.Densify == nil {
			opts.ExactScores = false
			stats.Bounded = true
		}
	}
	if len(degraded) > 0 {
		it.discount = func(cid int32) float64 {
			if hop, ok := degraded[cid]; ok {
				return 1 - hopDiscount(hopTable, hop)
			}
			return 1
		}
	}
	it.ex = opts.Explain
	var cSeqsPruned, cClipsPruned, cExchange *trace.Counter
	var stStep *trace.Stage
	if tr != nil {
		it.cacheHits = tr.Counter("rvaq.score_cache_hits")
		cSeqsPruned = tr.Counter("rvaq.seqs_pruned")
		cClipsPruned = tr.Counter("rvaq.clips_pruned")
		cExchange = tr.Counter("rvaq.exchange_rounds")
		stStep = tr.Stage("rvaq.step")
	}
	ictx, iterSpan := trace.Start(ctx, "rvaq.iterate")

	for {
		if err := ctx.Err(); err != nil {
			iterSpan.End()
			if opts.Partial {
				// Deadline mid-run: surface what the bounds already
				// establish rather than erroring. Scores are the current
				// lower bounds; no random accesses are spent finishing.
				stats.Incomplete = true
				opts.Explain.TopKPartial()
				if tr != nil {
					tr.Counter("rvaq.partial_results").Add(1)
					qspan.SetAttr("incomplete", "true")
				}
				// Before the first iteration the bounds carry no
				// information; the honest partial answer is empty.
				var topK []int
				if stats.Iterations > 0 {
					topK, _, _ = selectTopK(seqs, k)
				}
				po := opts
				po.ExactScores = false
				return finish(ctx, it, fns, seqs, topK, k, po, &stats, start)
			}
			stats.Runtime = time.Since(start)
			stats.CPURuntime = stats.Runtime
			return nil, stats, err
		}
		var stepStart time.Time
		if stStep != nil {
			stepStart = time.Now()
		}
		tauTop, tauBtm, err := it.Step()
		if err != nil {
			iterSpan.End()
			return nil, stats, err
		}
		tauBtm *= btmFactor // conservative under the degraded discount
		stats.Iterations++
		exhausted := it.Exhausted()
		if exhausted {
			// Every row has been seen: clips never scored are absent
			// from every table and carry stored score zero. On a dense
			// repository that is their exact score; on a planned one
			// their unsampled units may still hide mass, so the hi side
			// absorbs the slack-only bound per clip.
			tauTop, tauBtm = 0, 0
			for _, s := range seqs {
				n := s.iv.Len() - s.knownCount
				if n <= 0 || s.pruned {
					continue
				}
				s.knownScore = fns.F.Merge(s.knownScore, fns.F.MergeN(0, n))
				if planned {
					for c := s.iv.Lo; c <= s.iv.Hi; c++ {
						if _, known := it.Known(int32(c)); !known {
							s.knownHi = fns.F.Merge(s.knownHi, it.absentHi(int32(c)))
						}
					}
				} else {
					s.knownHi = fns.F.Merge(s.knownHi, fns.F.MergeN(0, n))
				}
				s.knownCount = s.iv.Len()
			}
		}
		// Refresh bounds (Equations 13–14): known clips contribute their
		// (lo, hi) pair — exact outside planned-without-densifier runs —
		// and each unknown clip is bounded by the frontier values.
		for _, s := range seqs {
			unknown := s.iv.Len() - s.knownCount
			s.up = fns.F.Merge(s.knownHi, fns.F.MergeN(tauTop, unknown))
			s.lo = fns.F.Merge(s.knownScore, fns.F.MergeN(tauBtm, unknown))
		}
		topK, bloK, bupRest := selectTopK(seqs, k)
		opts.Explain.TopKIteration(opts.Shard, stats.Iterations, tauTop, bloK)
		// Cross-shard exchange: periodically publish this shard's top-k
		// lower bounds and prune with the global B_lo^K, which is at
		// least as tight as the local one once other shards have
		// stronger candidates.
		pruneAt := bloK
		if opts.Bound != nil {
			every := opts.ExchangeEvery
			if every <= 0 {
				every = defaultExchangeEvery
			}
			if stats.Iterations%every == 0 || exhausted {
				_, exSpan := trace.Start(ictx, "rvaq.exchange")
				los := make([]float64, 0, len(topK))
				for _, i := range topK {
					los = append(los, seqs[i].lo)
				}
				opts.Bound.Publish(opts.Shard, los)
				cExchange.Add(1)
				exSpan.SetInt("iteration", int64(stats.Iterations))
				exSpan.End()
			}
			if g := opts.Bound.Bound(); g > pruneAt {
				pruneAt = g
			}
		}
		// Grow the skip set: sequences that can no longer reach the
		// top-K (Algorithm 4 lines 13–14).
		if opts.Skip {
			for _, s := range seqs {
				if !s.pruned && s.up < pruneAt {
					s.pruned = true
					// Every still-unknown clip of a pruned sequence is a
					// random access B_lo^K saved the query.
					cSeqsPruned.Add(1)
					cClipsPruned.Add(int64(s.iv.Len() - s.knownCount))
					opts.Explain.TopKSeqPruned(s.iv.Len() - s.knownCount)
				}
			}
		}
		if stStep != nil {
			stStep.Observe(time.Since(stepStart))
		}
		// Stopping condition (Equation 15).
		if bloK >= bupRest || exhausted {
			iterSpan.End()
			return finish(ctx, it, fns, seqs, topK, k, opts, &stats, start)
		}
	}
}

// hopDiscount picks the table entry for a clip's worst 1-based hop:
// hops past the table clamp to its last entry, and hop 0 ("unknown",
// from pre-hop manifests) takes the worst (maximum) entry.
func hopDiscount(table []float64, hop int) float64 {
	if hop <= 0 {
		return maxDiscount(table)
	}
	if hop > len(table) {
		hop = len(table)
	}
	return table[hop-1]
}

func maxDiscount(table []float64) float64 {
	m := 0.0
	for _, d := range table {
		if d > m {
			m = d
		}
	}
	return m
}

// findSeq locates the candidate sequence containing cid.
func findSeq(pq interval.Set, cid int32) (int, bool) {
	c := int(cid)
	i := sort.Search(len(pq), func(i int) bool { return pq[i].Hi >= c })
	if i < len(pq) && pq[i].Contains(c) {
		return i, true
	}
	return 0, false
}

// selectTopK returns the indices of the k sequences with the highest
// lower bounds (PQ_lo^K), the minimum lower bound among them (B_lo^K),
// and the maximum upper bound among the rest (B_up^¬K; −∞ when none).
// A size-k indexed min-heap realizes PQ_lo^K in O(S log k) per
// refresh; evicted sequences feed B_up^¬K directly.
func selectTopK(seqs []*seqState, k int) (topK []int, bloK, bupRest float64) {
	if k > len(seqs) {
		k = len(seqs)
	}
	pqLo := pqueue.New(len(seqs), pqueue.Min)
	bupRest = negInf
	for i, s := range seqs {
		if pqLo.Len() < k {
			pqLo.Push(i, s.lo)
			continue
		}
		j, minLo, _ := pqLo.Peek()
		// Deterministic ties: the earlier sequence stays in the top-K.
		if s.lo > minLo || (s.lo == minLo && s.iv.Lo < seqs[j].iv.Lo) {
			pqLo.Remove(j)
			pqLo.Push(i, s.lo)
			if seqs[j].up > bupRest {
				bupRest = seqs[j].up
			}
		} else if s.up > bupRest {
			bupRest = s.up
		}
	}
	topK = make([]int, 0, pqLo.Len())
	bloK = negInf
	for {
		i, lo, ok := pqLo.Pop()
		if !ok {
			break
		}
		if bloK == negInf {
			bloK = lo // the heap pops its minimum first
		}
		topK = append(topK, i)
	}
	return topK, bloK, bupRest
}

const negInf = -1e308

// defaultExchangeEvery is the default iteration period of the
// cross-shard bound exchange: frequent enough that shards see each
// other's progress early, sparse enough that the shared atomic and
// mutex stay off the per-row hot path.
const defaultExchangeEvery = 8

// finish materializes the final ranking; with ExactScores it completes
// the top-K sequences' scores by random access to their remaining clips.
func finish(ctx context.Context, it *tbClip, fns score.Functions, seqs []*seqState, topK []int, k int, opts Options, stats *Stats, start time.Time) ([]SeqResult, Stats, error) {
	_, fspan := trace.Start(ctx, "rvaq.finish")
	defer fspan.End()
	if it.densify != nil && opts.ExactScores {
		var err error
		if topK, err = resolveBounded(it, fns, seqs, k); err != nil {
			return nil, *stats, err
		}
	}
	results := make([]SeqResult, 0, len(topK))
	for _, i := range topK {
		s := seqs[i]
		scoreVal := s.lo
		if opts.ExactScores {
			exact, err := exactScore(it, fns, s)
			if err != nil {
				return nil, *stats, err
			}
			scoreVal = exact
		}
		results = append(results, SeqResult{Seq: s.iv, Score: scoreVal, Degraded: s.degraded})
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Score != results[b].Score {
			return results[a].Score > results[b].Score
		}
		return results[a].Seq.Lo < results[b].Seq.Lo
	})
	if len(results) > k {
		results = results[:k]
	}
	stats.DensifiedClips = it.densified
	stats.Runtime = time.Since(start)
	stats.CPURuntime = stats.Runtime
	opts.Explain.TopKFinish(stats.Candidates, stats.Iterations,
		stats.Accesses.Random, stats.Accesses.Sorted+stats.Accesses.Reverse)
	return results, *stats, nil
}

// resolveBounded settles top-K membership on a planned repository with
// a densifier. The stopping condition can fire at exhaustion with the
// lower and upper bounds of contending sequences still overlapping
// (clips absent from every table may hide mass in their unsampled
// units). Densifying a sequence pins lo = up = exact, so repeatedly
// completing the current top-K by lower bound plus every still-bounded
// contender converges: each round makes at least one more sequence
// exact, and with every contender exact the membership test
// B_lo^K ≥ B_up^¬K holds by construction of selectTopK.
func resolveBounded(it *tbClip, fns score.Functions, seqs []*seqState, k int) ([]int, error) {
	for {
		topK, bloK, bupRest := selectTopK(seqs, k)
		if bloK >= bupRest {
			return topK, nil
		}
		inTop := make(map[int]bool, len(topK))
		for _, i := range topK {
			inTop[i] = true
		}
		progress := false
		settle := func(i int) error {
			s := seqs[i]
			if s.lo == s.up {
				return nil
			}
			exact, err := exactScore(it, fns, s)
			if err != nil {
				return err
			}
			s.knownScore, s.knownHi = exact, exact
			s.knownCount = s.iv.Len()
			s.lo, s.up = exact, exact
			progress = true
			return nil
		}
		for _, i := range topK {
			if err := settle(i); err != nil {
				return nil, err
			}
		}
		for i, s := range seqs {
			if !inTop[i] && s.up > bloK {
				if err := settle(i); err != nil {
					return nil, err
				}
			}
		}
		if !progress {
			return topK, nil // every contender exact; bounds as tight as they get
		}
	}
}

// exactScore completes a sequence's exact score through the iterator's
// scoreAndRecord, so clips already scored are never random-accessed
// again and every newly scored clip is recorded (and announced) exactly
// like the ones the TBClip passes saw.
func exactScore(it *tbClip, fns score.Functions, s *seqState) (float64, error) {
	total := fns.F.Zero()
	for c := s.iv.Lo; c <= s.iv.Hi; c++ {
		v, err := it.scoreAndRecord(int32(c))
		if err != nil {
			return 0, err
		}
		total = fns.F.Merge(total, v)
	}
	return total, nil
}
