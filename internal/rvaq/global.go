package rvaq

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vaq/internal/ingest"
	"vaq/internal/trace"
)

// GlobalBound coordinates the shards of a parallel multi-video top-k.
// Each shard (one RVAQ execution per video) periodically publishes the
// lower bounds of its current top-k sequences; the exchange maintains
// the global B_lo^K — the k-th largest lower bound across every shard —
// which each shard reads to prune candidates that cannot reach the
// *global* top-k, not merely its local one.
//
// Safety: a published lower bound belongs to a concrete candidate
// sequence, and sequences are distinct across shards (different videos)
// and within a shard's published batch. If l is the k-th largest
// published bound, at least k distinct sequences have exact score ≥ l,
// so the k-th best global exact score is ≥ l; pruning any sequence
// whose upper bound is strictly below l is conservative. Exact scores
// never change, so the bound is kept monotonically non-decreasing and
// stays valid even when a shard's local lower bounds later shift.
type GlobalBound struct {
	k int

	mu     sync.Mutex
	shards map[int][]float64 // shard id → its latest top-k lower bounds

	// cur holds math.Float64bits of the current global B_lo^K; shards
	// read it lock-free on every pruning pass.
	cur atomic.Uint64
}

// NewGlobalBound builds an exchange for a top-k query.
func NewGlobalBound(k int) *GlobalBound {
	g := &GlobalBound{k: k, shards: map[int][]float64{}}
	g.cur.Store(math.Float64bits(negInf))
	return g
}

// Publish replaces shard's contribution with the lower bounds of its
// current top-k sequences and refreshes the global bound.
func (g *GlobalBound) Publish(shard int, los []float64) {
	g.mu.Lock()
	g.shards[shard] = append(g.shards[shard][:0], los...)
	all := make([]float64, 0, len(g.shards)*g.k)
	for _, s := range g.shards {
		all = append(all, s...)
	}
	g.mu.Unlock()
	if len(all) < g.k {
		return // fewer than k sequences bounded so far: no global floor yet
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	kth := all[g.k-1]
	// Monotone max: an older, higher bound remains valid forever.
	for {
		old := g.cur.Load()
		if math.Float64frombits(old) >= kth || g.cur.CompareAndSwap(old, math.Float64bits(kth)) {
			return
		}
	}
}

// Bound returns the current global B_lo^K (negInf until k sequences
// have been published).
func (g *GlobalBound) Bound() float64 {
	return math.Float64frombits(g.cur.Load())
}

// Raise folds a remote tier's sound global bound into the exchange
// (monotone max). It is the cross-process import hook: a shard's local
// B_lo^K is the k-th largest lower bound over its own candidates, and
// adding the rest of the fleet's candidates can only raise the true
// global k-th best score, so any shard's exported Bound() — or any max
// of such bounds a coordinator broadcasts — is safe to fold in here.
// Raising never invalidates anything: pruning stays conservative, so a
// broadcast can change work counts but never results.
func (g *GlobalBound) Raise(b float64) {
	for {
		old := g.cur.Load()
		if math.Float64frombits(old) >= b || g.cur.CompareAndSwap(old, math.Float64bits(b)) {
			return
		}
	}
}

// ErrLegFailed marks a scatter leg that failed tolerably: its part of
// the ranking is missing, so under partial the merge is incomplete and
// otherwise the query fails. A leg that ran out of time
// (context.DeadlineExceeded) counts the same.
var ErrLegFailed = errors.New("leg failed")

// A Leg is one arm of a global top-k scatter — one video's RVAQ run
// in process, or one shard process over the wire — run against the
// scatter's shared bound. It returns its local ranking, or an error
// that classifies it: one wrapping ingest.ErrNotIngested contributes
// nothing (the query fails only if every leg says so), one wrapping
// ErrLegFailed is tolerable, and any other is fatal.
type Leg[T any] func(ctx context.Context, gb *GlobalBound) ([]T, error)

// Merged is the outcome of a scatter.
type Merged[T any] struct {
	// Results are the answering legs' rankings merged in the engine's
	// total order and truncated to k.
	Results []T
	// Errs holds each leg's error, nil when the leg answered.
	Errs []error
	// Failed counts the legs that failed tolerably; with partial set and
	// Failed > 0, Results cover only the survivors.
	Failed int
}

// Scatter runs every leg concurrently against gb and merges the
// survivors once (§4.2: one ranking over the namespaced clip-id space,
// whether a video is local or remote). key gives an item's place in
// the total order: score descending, then video, then sequence start —
// the order the merged namespace induces, since videos are laid out in
// sorted-name order there.
//
// The error is the first fatal leg's; else, without partial, the first
// tolerably failed leg's; else, when every leg lacks the query's labels,
// the first leg's. Merged.Errs is always filled in.
func Scatter[T any](ctx context.Context, gb *GlobalBound, k int, partial bool, key func(T) (score float64, video string, lo int), legs []Leg[T]) (Merged[T], error) {
	m := Merged[T]{Errs: make([]error, len(legs))}
	parts := make([][]T, len(legs))
	var wg sync.WaitGroup
	for i, leg := range legs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], m.Errs[i] = leg(ctx, gb)
		}()
	}
	wg.Wait()

	var fatal, failed error
	missing := 0
	for _, err := range m.Errs {
		switch {
		case err == nil:
		case errors.Is(err, ingest.ErrNotIngested):
			missing++
		case errors.Is(err, ErrLegFailed), errors.Is(err, context.DeadlineExceeded):
			m.Failed++
			failed = cmp.Or(failed, err)
		default:
			fatal = cmp.Or(fatal, err)
		}
	}
	switch {
	case fatal != nil:
		return m, fatal
	case failed != nil && !partial:
		return m, failed
	case missing == len(legs) && missing > 0:
		return m, m.Errs[0]
	}

	_, span := trace.Start(ctx, "topk.merge")
	defer span.End()
	m.Results = []T{} // an empty ranking, not a null one
	for i, part := range parts {
		if m.Errs[i] == nil {
			m.Results = append(m.Results, part...)
		}
	}
	span.SetInt("results", int64(len(m.Results)))
	slices.SortFunc(m.Results, func(a, b T) int {
		sa, va, la := key(a)
		sb, vb, lb := key(b)
		if sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		if va != vb {
			return strings.Compare(va, vb)
		}
		return la - lb
	})
	if len(m.Results) > k {
		m.Results = m.Results[:k]
	}
	return m, nil
}
