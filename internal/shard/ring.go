// Package shard is the multi-process serving tier: it partitions a
// video repository across N vaqd shard processes by consistent hashing
// on video id, and fronts them with a thin coordinator that runs a
// global /v1/topk as one remote leg per shard of rvaq.Scatter — the
// same scatter/merge core as the single-process fan-out — each leg
// trading the shared B_lo^K bound with its shard mid-query so every
// iterator prunes against remote progress. Sessions and video-pinned
// queries route to the owning shard. The coordinator reuses the
// resilience vocabulary: hedged shard requests, a per-shard circuit
// breaker, and partial (Incomplete) merged results when a shard is
// down or shedding. See docs/SHARDING.md.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the number of ring points per shard. More points
// smooth the partition (expected imbalance shrinks roughly with
// 1/sqrt(replicas)) at the cost of a larger, still tiny, ring.
const DefaultReplicas = 128

// Ring is a consistent-hash partition of the video-id space across a
// fixed set of named shards. Hashing is FNV-1a over the video id —
// deterministic across processes and releases, so the coordinator and
// any out-of-band partitioner (e.g. the ingest pipeline placing new
// videos) agree on ownership forever; a pinned regression test guards
// the mapping. Shards are identified by stable names, not addresses: a
// shard can move hosts without remapping a single video.
//
// Changing the shard set remaps only the videos whose owning arc is
// claimed or released — about 1/N of them — which is the property that
// makes resharding an incremental migration instead of a full
// reshuffle.
type Ring struct {
	names  []string
	points []ringPoint // sorted by (hash, shard) — shard breaks hash ties
}

type ringPoint struct {
	hash  uint64
	shard int // index into names
}

// NewRing builds a ring over the given shard names with replicas
// points each (<= 0 picks DefaultReplicas). Names must be non-empty
// and unique.
func NewRing(names []string, replicas int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := map[string]bool{}
	r := &Ring{
		names:  append([]string(nil), names...),
		points: make([]ringPoint, 0, len(names)*replicas),
	}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("shard: empty shard name at position %d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("shard: duplicate shard name %q", name)
		}
		seen[name] = true
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", name, v)), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A full 64-bit collision between two shards' points is
		// astronomically unlikely; break it by name so the ring is a
		// pure function of the shard set either way.
		return r.names[r.points[a].shard] < r.names[r.points[b].shard]
	})
	return r, nil
}

// hash64 is FNV-1a finished with a splitmix64 avalanche — stable and
// dependency-free. Raw FNV-1a of near-identical short keys (vnode
// names differ only in their suffix) clusters badly in the high bits
// that the ring's ordering depends on; the finalizer spreads every
// input bit across the word, bringing per-shard ownership back to the
// expected ~1/N ± 1/sqrt(replicas).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// OwnerIndex returns the index (into the constructor's name order) of
// the shard owning the video id: the first ring point at or after the
// video's hash, wrapping past the top.
func (r *Ring) OwnerIndex(video string) int {
	h := hash64(video)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Owner returns the name of the shard owning the video id.
func (r *Ring) Owner(video string) string { return r.names[r.OwnerIndex(video)] }

// Partition groups video ids by owning shard name (missing shards map
// to absent keys). Convenience for partitioned ingest and tests.
func (r *Ring) Partition(videos []string) map[string][]string {
	out := map[string][]string{}
	for _, v := range videos {
		name := r.Owner(v)
		out[name] = append(out[name], v)
	}
	return out
}
