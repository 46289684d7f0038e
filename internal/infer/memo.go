package infer

import (
	"context"
	"maps"
	"slices"
	"sync"

	"vaq/internal/annot"
	"vaq/internal/detect"
)

// memoShards is how many independently locked shards a large memo
// splits into. A memo bounded below memoShards*256 entries keeps one
// shard, so a small capacity and its CLOCK order stay exact.
const memoShards = 16

// memoKey names one memo entry: one label's result on one unit of one
// backend. backend is the interned kind+name ('o' frame detections, 'a'
// shot scores) and label the interned label, so a key holds no pointer.
type memoKey struct {
	unit    int64
	backend uint32
	label   uint32
}

// hash is k's index tag; its low bits are k's home slot.
func (k memoKey) hash() uint32 {
	h := (uint64(k.unit) ^ uint64(k.label)<<40 ^ uint64(k.backend)<<56) * 0xbf58476d1ce4e5b9
	return uint32((h ^ h>>31) * 0x94d049bb133111eb >> 32)
}

// results is one key's value: frame detections or shot scores.
type results struct {
	dets   []detect.Detection
	scores []detect.ActionScore
}

// slot is r's field for T.
func slot[T any](r *results) *[]T {
	if p, ok := any(&r.dets).(*[]T); ok {
		return p
	}
	return any(&r.scores).(*[]T)
}

// resident is a ring slot: a key, its value and its CLOCK reference bit.
type resident struct {
	key memoKey
	ref bool
	results
}

// flight is a fill in progress. The first waiter makes wake; the filler
// writes the result and closes wake under the shard lock, or reuses it.
type flight struct {
	results
	err  error
	wake chan struct{}
}

// memoShard is one lock's worth of the table. ring, the resident set,
// is the CLOCK ring: it grows to cap, then each admission overwrites the
// slot the hand picks. index maps keys to ring slots by linear probing,
// at most half full: a key's hash in the high 32 bits, its ring slot + 1
// in the low 32 (0 is empty). flights holds only keys being filled.
type memoShard struct {
	mu      sync.Mutex
	cap     int
	ring    []resident
	hand    int
	index   []uint64
	flights map[memoKey]*flight
	spare   []*flight // flights no waiter joined, for reuse
	st      Stats     // counted under mu; see Shared.Stats
}

// initMemo sizes the shards for capacity resident entries (<= 0: none,
// the table then only deduplicates fills in flight).
func (sh *Shared) initMemo(capacity int) {
	capacity, n := max(capacity, 0), memoShards
	if capacity > 0 && capacity < memoShards*256 {
		n = 1
	}
	sh.names.Store(&map[string]uint32{})
	sh.shards = make([]memoShard, n)
	for i := range sh.shards {
		s := &sh.shards[i]
		s.cap = capacity / n
		if i < capacity%n {
			s.cap++
		}
		s.index = make([]uint64, 16)
		s.flights = make(map[memoKey]*flight)
	}
}

// intern numbers name within the domain. The table is copy-on-write:
// calls read it without a lock, and a new name copies it under sh.mu.
func (sh *Shared) intern(name string) uint32 {
	if id, ok := (*sh.names.Load())[name]; ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := *sh.names.Load()
	if id, ok := old[name]; ok {
		return id
	}
	m := maps.Clone(old)
	m[name] = uint32(len(old))
	sh.names.Store(&m)
	return m[name]
}

// shard is the shard holding a unit of every backend, with all its
// labels, chosen by a multiplicative hash.
func (sh *Shared) shard(unit int64) *memoShard {
	return &sh.shards[(uint64(unit)*0x9e3779b97f4a7c15>>32)%uint64(len(sh.shards))]
}

// memo is the table's face for one backend.
type memo[U detect.Unit, R detect.Result] struct {
	sh     *Shared
	id     uint32 // the interned kind+name
	concat bool   // the backend carries detect.PerLabelConcat
	inner  detect.Backend[U, R]
	label  func(R) annot.Label // the kind's; splits multi-label fills
}

func (m *memo[U, R]) Name() string { return m.inner.Name() }

// DetectCtx serves one unit's labels under one lock of its shard.
// Resident labels are read there. Labels nobody holds are filled inline
// by this caller, in one backend call on a ctx without its cancellation:
// a leader always finishes its fill. Labels in flight are waited for
// until ctx ends. Every caller gets a fresh slice, because engines
// mutate detections (Tracker.Update). A multi-label fill is split by
// label into per-label entries, which equals a direct call only over a
// backend that declares detect.PerLabelConcat; over any other, a
// multi-label call goes straight to the backend, a miss filling nothing.
func (m *memo[U, R]) DetectCtx(ctx context.Context, u U, labels []annot.Label) ([]R, error) {
	unit := int64(u)
	s := m.sh.shard(unit)
	if len(labels) > 1 && !m.concat {
		s.mu.Lock()
		s.st.CacheMisses++
		s.mu.Unlock()
		return m.inner.DetectCtx(ctx, u, labels)
	}
	// keys, vals and fls follow labels, a repeat served from its first
	// occurrence; mine and waits index the keys this call fills or awaits.
	var kbuf [4]memoKey
	var vbuf [4][]R
	var fbuf [4]*flight
	var mbuf, wbuf [4]int
	keys, vals, fls, mine, waits := kbuf[:0], vbuf[:0], fbuf[:0], mbuf[:0], wbuf[:0]
	for _, l := range labels {
		keys = append(keys, memoKey{unit: unit, backend: m.id, label: m.sh.intern(string(l))})
	}
	s.mu.Lock()
	for i, k := range keys {
		vals, fls = append(vals, nil), append(fls, nil)
		if slices.Index(keys, k) < i {
			continue
		}
		if r := s.find(k); r >= 0 {
			s.ring[r].ref = true
			vals[i] = *slot[R](&s.ring[r].results)
			continue
		}
		if f := s.flights[k]; f != nil {
			if f.wake == nil {
				f.wake = make(chan struct{})
			}
			fls[i], waits = f, append(waits, i)
			continue
		}
		// Spend no inference on a caller that is already gone.
		if err := ctx.Err(); err != nil && len(mine) == 0 {
			s.mu.Unlock()
			return nil, err
		}
		if n := len(s.spare); n > 0 {
			fls[i], s.spare = s.spare[n-1], s.spare[:n-1]
		} else {
			fls[i] = new(flight)
		}
		s.flights[k], mine = fls[i], append(mine, i)
	}
	switch {
	case len(mine) > 0:
		s.st.CacheMisses++
	case len(waits) > 0:
		s.st.Coalesced++
	default:
		s.st.CacheHits++
	}
	s.mu.Unlock()

	var err error
	if len(mine) > 0 {
		missing := labels
		if len(mine) != len(labels) {
			missing = make([]annot.Label, len(mine))
			for j, i := range mine {
				missing[j] = labels[i]
			}
		}
		var got []R
		if got, err = m.inner.DetectCtx(detached(ctx), u, missing); err == nil && len(mine) == 1 {
			vals[mine[0]] = got
		} else if err == nil {
			for _, i := range mine {
				for _, x := range got {
					if m.label(x) == labels[i] {
						vals[i] = append(vals[i], x)
					}
				}
			}
		}
		s.mu.Lock()
		for _, i := range mine {
			var r results
			*slot[R](&r) = vals[i]
			delete(s.flights, keys[i])
			if err == nil {
				s.admit(keys[i], r)
			}
			if f := fls[i]; f.wake != nil {
				f.results, f.err = r, err
				close(f.wake)
			} else {
				s.spare = append(s.spare, f)
			}
		}
		s.mu.Unlock()
	}
	for _, i := range waits {
		select {
		case <-fls[i].wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// The filler wrote these before closing wake, and never again.
		vals[i] = *slot[R](&fls[i].results)
		if err == nil {
			err = fls[i].err
		}
	}
	if err != nil {
		return nil, err
	}
	var out []R
	for _, k := range keys {
		out = append(out, vals[slices.Index(keys, k)]...)
	}
	return out, nil
}

// admit makes a freshly filled key resident, evicting by second-chance
// CLOCK when the shard is full; the caller holds s.mu.
func (s *memoShard) admit(k memoKey, r results) {
	if s.cap == 0 {
		return
	}
	if len(s.ring) < s.cap {
		if len(s.ring) == cap(s.ring) { // double, never past cap
			s.ring = append(make([]resident, 0, min(s.cap, max(16, 2*len(s.ring)))), s.ring...)
		}
		if 2*(len(s.ring)+1) > len(s.index) {
			s.index = make([]uint64, 2*len(s.index))
			for i := range s.ring {
				s.place(s.ring[i].key, i)
			}
		}
		s.ring = append(s.ring, resident{key: k, results: r})
		s.place(k, len(s.ring)-1)
	} else {
		// The new key takes the first slot the hand finds without a ref.
		for s.ring[s.hand].ref {
			s.ring[s.hand].ref = false
			s.hand = (s.hand + 1) % s.cap
		}
		s.unplace(s.ring[s.hand].key, s.hand)
		s.ring[s.hand] = resident{key: k, results: r}
		s.place(k, s.hand)
		s.st.Evicted++
		s.hand = (s.hand + 1) % s.cap
	}
	s.st.Admitted++
}

// find returns k's ring slot, or -1 when k is not resident.
func (s *memoShard) find(k memoKey) int {
	tag, mask := k.hash(), uint32(len(s.index)-1)
	for i := tag & mask; s.index[i] != 0; i = (i + 1) & mask {
		if r := uint32(s.index[i]) - 1; uint32(s.index[i]>>32) == tag && s.ring[r].key == k {
			return int(r)
		}
	}
	return -1
}

// place indexes k at ring slot r.
func (s *memoShard) place(k memoKey, r int) {
	tag, mask := k.hash(), uint32(len(s.index)-1)
	i := tag & mask
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = uint64(tag)<<32 | uint64(r+1)
}

// unplace drops k, at ring slot r, from the index by backward shift:
// later keys of its probe run whose home allows it move into the hole.
func (s *memoShard) unplace(k memoKey, r int) {
	tag, mask := k.hash(), uint32(len(s.index)-1)
	i := tag & mask
	for s.index[i] != uint64(tag)<<32|uint64(r+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		if home := uint32(s.index[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			s.index[i], i = s.index[j], j
		}
	}
	s.index[i] = 0
}
