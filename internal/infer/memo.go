package infer

import (
	"context"
	"sync"

	"vaq/internal/annot"
	"vaq/internal/detect"
)

// memoShards is how many independently locked shards a large memo
// splits into. A memo bounded below memoShards*256 entries keeps one
// shard, so a small capacity and its CLOCK order stay exact.
const memoShards = 16

// memoKey names one memo entry: one label's result on one unit of one
// backend. kind is 'o' (frame detections) or 'a' (shot scores); backend
// is the domain's number for the backend's name (see backendID).
type memoKey struct {
	kind    byte
	backend uint32
	unit    int
	label   annot.Label
}

// entry is one key's result. It enters its shard in flight (filled
// false) when a caller misses it; that caller fills it inline, and
// callers finding it in flight wait on wake. The result fields are
// written once, under the shard lock, and never again: a resident
// entry is served, never refilled, and an evicted one is dropped.
type entry struct {
	key    memoKey
	dets   []detect.Detection
	scores []detect.ActionScore
	err    error
	filled bool
	ref    bool          // CLOCK reference bit
	wake   chan struct{} // made by the first waiter, closed by the filler
}

// memoShard is one lock's worth of the table: every entry of its keys,
// in flight or resident, and the bounded resident set. Every clean fill
// is admitted; eviction is second-chance CLOCK over ring. Admission on
// fill suits the lockstep cohorts shared inference serves: sessions a
// few clips apart reuse what the leading one filled, where a doorkeeper
// rejecting first fills made every follower fill the unit again.
type memoShard struct {
	mu      sync.Mutex
	cap     int
	entries map[memoKey]*entry
	ring    []*entry
	hand    int
}

// initMemo sizes the shards for capacity resident entries (<= 0: none,
// the table then only deduplicates fills in flight).
func (sh *Shared) initMemo(capacity int) {
	n := memoShards
	if capacity > 0 && capacity < memoShards*256 {
		n = 1
	}
	sh.backends = map[string]uint32{}
	sh.shards = make([]memoShard, n)
	for i := range sh.shards {
		s := &sh.shards[i]
		if capacity > 0 {
			s.cap = capacity / n
			if i < capacity%n {
				s.cap++
			}
		}
		s.entries = make(map[memoKey]*entry)
	}
}

// backendID numbers a backend name within the domain, so keys carry a
// small integer rather than a string to hash and compare.
func (sh *Shared) backendID(name string) uint32 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id, ok := sh.backends[name]
	if !ok {
		id = uint32(len(sh.backends))
		sh.backends[name] = id
	}
	return id
}

// shard is the shard holding k: all labels of one backend's unit share
// one, chosen by a multiplicative hash of (kind, backend, unit).
func (sh *Shared) shard(k memoKey) *memoShard {
	h := (uint64(k.unit) ^ uint64(k.backend)<<40 ^ uint64(k.kind)<<56) * 0x9e3779b97f4a7c15
	return &sh.shards[(h>>32)%uint64(len(sh.shards))]
}

// slot is e's result field for T.
func slot[T any](e *entry) *[]T {
	if p, ok := any(&e.dets).(*[]T); ok {
		return p
	}
	return any(&e.scores).(*[]T)
}

// memoCall serves one unit's labels from the memo. Resident labels are
// read under their shard's lock. Labels nobody holds are filled inline
// by this caller, with one backend call on a context that keeps ctx's
// values but not its cancellation: a leader always finishes its own
// fill. Labels in flight are waited for until ctx ends. Every caller
// gets a fresh slice, because engines mutate detections
// (Tracker.Update).
//
// A multi-label fill is split by labelOf into one entry per label. That
// relies on the backend contract the simulators keep: a call's result is
// the concatenation, in call order, of each label's own result.
func memoCall[T any](sh *Shared, ctx context.Context, key memoKey, labels []annot.Label,
	fill func(context.Context, []annot.Label) ([]T, error), labelOf func(T) annot.Label) ([]T, error) {
	// es and vals follow labels; a repeated label is served from its
	// first occurrence. mine and waits index the entries this caller
	// fills or waits for.
	var ebuf [4]*entry
	var vbuf [4][]T
	var fbuf, wbuf [4]int
	es, vals, mine, waits := ebuf[:0], vbuf[:0], fbuf[:0], wbuf[:0]
	for i, l := range labels {
		if indexLabel(labels[:i], l) >= 0 {
			es, vals = append(es, nil), append(vals, nil)
			continue
		}
		key.label = l
		s := sh.shard(key)
		s.mu.Lock()
		e := s.entries[key]
		var v []T
		switch {
		case e == nil:
			// Spend no inference on a caller that is already gone.
			if len(mine) == 0 {
				if err := ctx.Err(); err != nil {
					s.mu.Unlock()
					return nil, err
				}
			}
			e = &entry{key: key}
			s.entries[key] = e
			mine = append(mine, len(es))
		case !e.filled:
			if e.wake == nil {
				e.wake = make(chan struct{})
			}
			waits = append(waits, len(es))
		default:
			e.ref = true
			v = *slot[T](e)
		}
		s.mu.Unlock()
		es, vals = append(es, e), append(vals, v)
	}

	var err error
	switch {
	case len(mine) > 0:
		sh.misses.Add(1)
		sh.cMisses.Add(1)
		sh.noteLeader()
		err = fillMine(sh, ctx, es, vals, mine, labels, fill, labelOf)
	case len(waits) > 0:
		sh.coalesce.Add(1)
		sh.cCoalesced.Add(1)
	default:
		sh.hits.Add(1)
		sh.cHits.Add(1)
		sh.noteLeader()
	}
	for _, i := range waits {
		e := es[i]
		select {
		case <-e.wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		s := sh.shard(e.key)
		s.mu.Lock()
		vals[i] = *slot[T](e)
		if err == nil {
			err = e.err
		}
		s.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}

	n := 0
	for _, l := range labels {
		n += len(vals[indexLabel(labels, l)])
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]T, 0, n)
	for _, l := range labels {
		out = append(out, vals[indexLabel(labels, l)]...)
	}
	return out, nil
}

// fillMine makes the one backend call for the entries this caller
// owns, publishes each entry's share and records it in vals.
func fillMine[T any](sh *Shared, ctx context.Context, es []*entry, vals [][]T, mine []int, labels []annot.Label,
	fill func(context.Context, []annot.Label) ([]T, error), labelOf func(T) annot.Label) error {
	missing := labels
	if len(mine) != len(labels) {
		missing = make([]annot.Label, len(mine))
		for j, i := range mine {
			missing[j] = es[i].key.label
		}
	}
	if ctx.Done() != nil {
		ctx = context.WithoutCancel(ctx)
	}
	got, err := fill(ctx, missing)
	for _, i := range mine {
		e, v := es[i], got
		if err != nil {
			v = nil
		} else if len(mine) > 1 {
			v = nil
			for _, x := range got {
				if labelOf(x) == e.key.label {
					v = append(v, x)
				}
			}
		}
		vals[i] = v
		s := sh.shard(e.key)
		s.mu.Lock()
		*slot[T](e) = v
		e.err, e.filled = err, true
		if e.wake != nil {
			close(e.wake)
		}
		if err != nil || !s.admit(sh, e) {
			delete(s.entries, e.key)
		}
		s.mu.Unlock()
	}
	return err
}

// admit makes a freshly filled entry resident, evicting by second-chance
// CLOCK when the shard is full; the caller holds s.mu.
func (s *memoShard) admit(sh *Shared, e *entry) bool {
	if s.cap == 0 {
		return false
	}
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, e)
	} else {
		// Advance the hand, spending reference bits, to the first entry
		// without a second chance; the new entry takes its slot.
		for s.ring[s.hand].ref {
			s.ring[s.hand].ref = false
			s.hand = (s.hand + 1) % s.cap
		}
		delete(s.entries, s.ring[s.hand].key)
		sh.evicted.Add(1)
		sh.cEvict.Add(1)
		s.ring[s.hand] = e
		s.hand = (s.hand + 1) % s.cap
	}
	sh.admitted.Add(1)
	sh.cAdmit.Add(1)
	return true
}

func indexLabel(ls []annot.Label, l annot.Label) int {
	for i, x := range ls {
		if x == l {
			return i
		}
	}
	return -1
}
