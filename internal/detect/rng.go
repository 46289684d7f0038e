package detect

import "math"

// The simulated models must be deterministic per (seed, label, unit):
// the same frame queried twice — or queried by the online engine and the
// ingestion phase in different orders — must yield identical detections.
// A counter-free hash-based generator (splitmix64 over a key) provides
// that property; sequential PRNGs would not. The layers over a backend
// (fault draws, backoff jitter, prior samples) draw from it too.

// splitmix64 is the SplitMix64 finalizer, a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashKey mixes a seed, a label (or any salt) and an occurrence unit
// into a 64-bit stream key.
func HashKey(seed int64, label string, unit int64) uint64 {
	h := splitmix64(uint64(seed))
	for _, b := range []byte(label) {
		h = splitmix64(h ^ uint64(b))
	}
	return splitmix64(h ^ uint64(unit))
}

// UnitRand yields the n-th uniform variate in [0,1) of the stream
// identified by key.
func UnitRand(key uint64, n uint64) float64 {
	v := splitmix64(key + n*0x9e3779b97f4a7c15)
	return float64(v>>11) / float64(1<<53)
}

// gaussPair returns a pair of uniforms for sampling a triangular score;
// kept separate so callers document which draw they consume.
func gaussPair(key uint64, n uint64) (float64, float64) {
	return UnitRand(key, n), UnitRand(key, n+1)
}

// jitterAround returns a deterministic value in [center−amp, center+amp].
func jitterAround(key uint64, n uint64, center, amp float64) float64 {
	return center + (UnitRand(key, n)*2-1)*amp
}

// clamp01 clamps v into [0, 1].
func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}
