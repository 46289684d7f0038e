package rvaq

import (
	"math/rand"
	"testing"

	"vaq/internal/annot"
	"vaq/internal/ingest"
	"vaq/internal/tables"
)

// markDegraded spreads degraded units over random clips: frames and
// shots at hops 1..3 plus the occasional hop-0 "unknown" unit from a
// legacy manifest, exercising the worst-hop and sticky-unknown rules of
// DegradedClipHops.
func markDegraded(rng *rand.Rand, vd *ingest.VideoData, nclips int) {
	g := vd.Meta.Geom
	frameHops := map[int]int{}
	shotHops := map[int]int{}
	for c := 0; c < nclips; c++ {
		if rng.Float64() >= 0.25 {
			continue
		}
		hop := rng.Intn(4) // 0 = unknown, 1..3 = chain hops
		if rng.Float64() < 0.5 {
			frameHops[c*g.ClipLen()+rng.Intn(g.ClipLen())] = hop
		} else {
			shotHops[c*g.ShotsPerClip+rng.Intn(g.ShotsPerClip)] = hop
		}
		// Sometimes a second unit in the same clip at another hop, so
		// the worst-hop aggregation actually has something to aggregate.
		if rng.Float64() < 0.3 {
			frameHops[c*g.ClipLen()] = rng.Intn(4)
		}
	}
	vd.SetDegradedFrames(frameHops)
	vd.SetDegradedShots(shotHops)
}

// scaleActionTable returns a copy of vd whose action table pre-applies
// each degraded clip's per-hop factor. Because the additive scheme's
// G is linear in the action score (G = action · Σobjects) and F sums
// (or maxes) per-clip scores, discounting a clip's combined score by
// its factor is identical to scaling its action row — so a plain run
// over the scaled copy is an exact oracle for the discounted run.
func scaleActionTable(vd *ingest.VideoData, table []float64) *ingest.VideoData {
	factors := map[int32]float64{}
	for cid, hop := range vd.DegradedClipHops() {
		factors[cid] = 1 - hopDiscount(table, hop)
	}
	cp := *vd
	cp.ActTables = map[annot.Label]tables.Table{}
	for l, tab := range vd.ActTables {
		rows := tab.(*tables.MemTable).Rows()
		for i := range rows {
			if f, ok := factors[rows[i].CID]; ok {
				rows[i].Score *= f
			}
		}
		cp.ActTables[l] = tables.NewMemTable(string(l), rows)
	}
	// The copy must not look degraded itself, or the plain run would
	// be rejected... it isn't (no discount armed), but keep it clean.
	cp.DegradedFrames, cp.DegradedFrameHops = nil, nil
	cp.DegradedShots, cp.DegradedShotHops = nil, nil
	return &cp
}

// TestHopDiscountMatchesOracle is the per-hop correctness property: a
// discounted run over degraded data returns exactly the ranking of a
// plain run over a copy whose action scores pre-apply each clip's
// per-hop factor.
func TestHopDiscountMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	table := []float64{0.2, 0.6}
	for trial := 0; trial < 25; trial++ {
		vd, q := synthVideoData(rng, 150+rng.Intn(150), 2+rng.Intn(10))
		markDegraded(rng, vd, 150)
		oracle := scaleActionTable(vd, table)
		for _, k := range []int{1, 3, 8} {
			got, stats, err := TopK(vd, q, k, Options{Skip: true, ExactScores: true, HopDiscounts: table})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := TopK(oracle, q, k, Options{Skip: true, ExactScores: true})
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Fatalf("trial %d k=%d: discounted %v != pre-scaled oracle %v", trial, k, got, want)
			}
			if len(vd.DegradedClipHops()) > 0 && len(got) > 0 && stats.DegradedClips == 0 {
				// Not every trial's degraded clips intersect the
				// candidates, but the counter must move when they do.
				for cid := range vd.DegradedClipHops() {
					for _, r := range got {
						if int(cid) >= r.Seq.Lo && int(cid) <= r.Seq.Hi {
							t.Fatalf("trial %d: degraded clip %d in results but DegradedClips = 0", trial, cid)
						}
					}
				}
			}
		}
	}
}

// TestHopDiscountValidation pins the option validation: out-of-range
// entries are rejected.
func TestHopDiscountValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vd, q := synthVideoData(rng, 100, 4)
	for _, opts := range []Options{
		{HopDiscounts: []float64{0.5, 1.5}},
		{HopDiscounts: []float64{-0.2}},
	} {
		if _, _, err := TopK(vd, q, 3, opts); err == nil {
			t.Errorf("opts %+v accepted, want error", opts)
		}
	}
}

// TestHopDiscountTableLookup pins hopDiscount's clamping rules: hops
// past the table take its last entry, hop 0 the worst entry.
func TestHopDiscountTableLookup(t *testing.T) {
	table := []float64{0.1, 0.6, 0.3}
	cases := []struct {
		hop  int
		want float64
	}{
		{1, 0.1}, {2, 0.6}, {3, 0.3},
		{4, 0.3}, {9, 0.3}, // past the table: clamp to last
		{0, 0.6}, // unknown: assume the worst entry
		{-1, 0.6},
	}
	for _, tc := range cases {
		if got := hopDiscount(table, tc.hop); got != tc.want {
			t.Errorf("hopDiscount(%v, %d) = %v, want %v", table, tc.hop, got, tc.want)
		}
	}
}
