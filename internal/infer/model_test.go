package infer

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// modelShard is the reference one memo shard is checked against: a Go
// map from resident key to ring slot, and second-chance CLOCK admission
// over a plain ring of keys.
type modelShard struct {
	cap  int
	slot map[memoKey]int
	ring []memoKey
	ref  []bool
	hand int

	hits, misses, admitted, evicted int64
}

func (m *modelShard) admit(k memoKey) {
	if m.cap == 0 {
		return
	}
	if len(m.ring) < m.cap {
		m.slot[k] = len(m.ring)
		m.ring, m.ref = append(m.ring, k), append(m.ref, false)
	} else {
		for m.ref[m.hand] {
			m.ref[m.hand] = false
			m.hand = (m.hand + 1) % m.cap
		}
		delete(m.slot, m.ring[m.hand])
		m.evicted++
		m.slot[k], m.ring[m.hand], m.ref[m.hand] = m.hand, k, false
		m.hand = (m.hand + 1) % m.cap
	}
	m.admitted++
}

// call applies one sequential call for keys, all of one shard.
func (m *modelShard) call(keys []memoKey, concat bool) {
	if len(keys) > 1 && !concat {
		m.misses++
		return
	}
	var missing []memoKey
	for i, k := range keys {
		if slices.Contains(keys[:i], k) {
			continue
		}
		if r, ok := m.slot[k]; ok {
			m.ref[r] = true
		} else {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		m.hits++
		return
	}
	m.misses++
	for _, k := range missing {
		m.admit(k)
	}
}

// unmarkedObj is fakeObj without the PerLabelConcat marker.
type unmarkedObj struct{ f *fakeObj }

func (u unmarkedObj) Name() string { return u.f.Name() }

func (u unmarkedObj) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	return u.f.DetectCtx(ctx, v, labels)
}

// TestMemoMatchesClockModel drives random single- and multi-label calls
// over two marked backends and one unmarked one, through the memo and
// through the reference model, at capacities 0, 1, 7 and a multi-shard
// size. After every call the touched shard must match the model: the
// ring's keys in order, their reference bits, the hand and the
// hit/miss/admitted/evicted counts. Its index must hold exactly the
// resident keys, each reachable from its home slot without crossing an
// empty one, so deletion by backward shift never breaks a probe run.
func TestMemoMatchesClockModel(t *testing.T) {
	labels := []annot.Label{"car", "person", "dog", "cup"}
	for _, capacity := range []int{0, 1, 7, memoShards * 256} {
		units, calls := 12, 3000
		if capacity > memoShards*64 {
			units, calls = 3000, 40000
		}
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		sh := MustNew(Config{CacheCapacity: capacity})
		fakes := []*fakeObj{{name: "a"}, {name: "b"}, {name: "c"}}
		backends := []detect.FallibleObjectDetector{sh.Object(fakes[0]), sh.Object(fakes[1]), sh.Object(unmarkedObj{fakes[2]})}
		model := make([]modelShard, len(sh.shards))
		for i := range model {
			model[i] = modelShard{cap: sh.shards[i].cap, slot: map[memoKey]int{}}
		}
		for c := 0; c < calls; c++ {
			b := rng.Intn(len(backends))
			v := video.FrameIdx(rng.Intn(units))
			ls := make([]annot.Label, 1+rng.Intn(3)*rng.Intn(2))
			for i := range ls {
				ls[i] = labels[rng.Intn(len(labels))]
			}
			if got := detectOK(t, backends[b], v, ls...); !reflect.DeepEqual(got, perLabel(v, ls)) {
				t.Fatalf("capacity %d call %d: %v on unit %d got %v", capacity, c, ls, v, got)
			}
			id := sh.intern("o" + fakes[b].Name())
			keys := make([]memoKey, len(ls))
			for i, l := range ls {
				keys[i] = memoKey{unit: int64(v), backend: id, label: sh.intern(string(l))}
			}
			si := 0
			for &sh.shards[si] != sh.shard(int64(v)) {
				si++
			}
			model[si].call(keys, b < 2)
			if err := matchModel(&sh.shards[si], &model[si]); err != nil {
				t.Fatalf("capacity %d call %d (%v on unit %d of %s): shard %d: %v", capacity, c, ls, v, fakes[b].Name(), si, err)
			}
		}
		for si := range model {
			if err := matchModel(&sh.shards[si], &model[si]); err != nil {
				t.Fatalf("capacity %d, at the end: shard %d: %v", capacity, si, err)
			}
		}
		if st := sh.Stats(); capacity > 1 && (st.CacheHits == 0 || st.Evicted == 0) {
			t.Fatalf("capacity %d: %+v: the calls never hit or never evicted", capacity, st)
		}
	}
}

// matchModel compares one memo shard with its model, and checks that
// the shard's index holds exactly its resident keys, each reachable
// from its home slot.
func matchModel(s *memoShard, m *modelShard) error {
	if len(s.ring) != len(m.ring) || s.hand != m.hand {
		return fmt.Errorf("%d resident, hand %d; model %d, hand %d", len(s.ring), s.hand, len(m.ring), m.hand)
	}
	for r := range s.ring {
		if s.ring[r].key != m.ring[r] || s.ring[r].ref != m.ref[r] {
			return fmt.Errorf("slot %d holds %+v (ref %v), model %+v (ref %v)", r, s.ring[r].key, s.ring[r].ref, m.ring[r], m.ref[r])
		}
		if got := s.find(s.ring[r].key); got != r {
			return fmt.Errorf("slot %d's key %+v found at %d", r, s.ring[r].key, got)
		}
	}
	if got, want := [4]int64{s.st.CacheHits, s.st.CacheMisses, s.st.Admitted, s.st.Evicted}, [4]int64{m.hits, m.misses, m.admitted, m.evicted}; got != want {
		return fmt.Errorf("hits/misses/admitted/evicted %v, model %v", got, want)
	}
	if len(s.flights) != 0 {
		return fmt.Errorf("%d flights left after sequential calls", len(s.flights))
	}
	if n := indexed(s); n != len(s.ring) || 2*n > len(s.index) {
		return fmt.Errorf("%d keys indexed in %d slots for %d resident", n, len(s.index), len(s.ring))
	}
	mask := uint32(len(s.index) - 1)
	for i, x := range s.index {
		if x == 0 {
			continue
		}
		r := int(uint32(x)) - 1
		if r >= len(s.ring) || uint32(x>>32) != s.ring[r].key.hash() {
			return fmt.Errorf("index slot %d = %#x names no resident key", i, x)
		}
		for j := uint32(x>>32) & mask; j != uint32(i); j = (j + 1) & mask {
			if s.index[j] == 0 {
				return fmt.Errorf("index slot %d (ring slot %d) is cut off from its home by empty slot %d", i, r, j)
			}
		}
	}
	return nil
}
