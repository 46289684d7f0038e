package rvaq

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"vaq/internal/ingest"
)

// hit is a minimal ranked item for the scatter core's tests.
type hit struct {
	video string
	lo    int
	score float64
}

func hitRank(h hit) (float64, string, int) { return h.score, h.video, h.lo }

// legOf returns a leg that answers items, or fails with err.
func legOf(err error, items ...hit) Leg[hit] {
	return func(context.Context, *GlobalBound) ([]hit, error) { return items, err }
}

// TestScatterMergeOrder: the survivors' rankings merge in the engine's
// total order (score desc, then video, then start) and cut to k, for
// every split of the same items across legs.
func TestScatterMergeOrder(t *testing.T) {
	items := []hit{
		{"v02", 10, 0.5}, {"v00", 40, 0.5}, {"v01", 7, 0.9},
		{"v00", 5, 0.5}, {"v00", 6, 0.7}, {"v02", 2, 0.9},
	}
	want := []hit{{"v01", 7, 0.9}, {"v02", 2, 0.9}, {"v00", 6, 0.7}, {"v00", 5, 0.5}}
	for split := 0; split <= len(items); split++ {
		legs := []Leg[hit]{legOf(nil, items[:split]...), legOf(nil, items[split:]...)}
		m, err := Scatter(context.Background(), NewGlobalBound(4), 4, false, hitRank, legs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Results, want) {
			t.Fatalf("split %d: merged %v, want %v", split, m.Results, want)
		}
		if m.Failed != 0 || m.Errs[0] != nil || m.Errs[1] != nil {
			t.Fatalf("split %d: healthy legs reported %+v", split, m)
		}
	}
}

// TestScatterClassifiesLegs walks each mix of leg outcomes through the
// core: which error wins, when the merge is partial, and that every
// leg's outcome is reported.
func TestScatterClassifiesLegs(t *testing.T) {
	ok := legOf(nil, hit{"a", 0, 1})
	missing := fmt.Errorf("label: %w", ingest.ErrNotIngested)
	failed := fmt.Errorf("%w: shard down", ErrLegFailed)
	late := fmt.Errorf("queued: %w", context.DeadlineExceeded)
	fatal := errors.New("bad request")
	cases := []struct {
		name    string
		legs    []Leg[hit]
		partial bool
		err     error // nil: the merge answers
		results int
		failed  int
	}{
		{"healthy", []Leg[hit]{ok, ok}, false, nil, 2, 0},
		{"one leg lacks the label", []Leg[hit]{legOf(missing), ok}, false, nil, 1, 0},
		{"every leg lacks the label", []Leg[hit]{legOf(missing), legOf(missing)}, false, missing, 0, 0},
		{"failed leg, strict", []Leg[hit]{ok, legOf(failed)}, false, failed, 0, 1},
		{"failed leg, partial", []Leg[hit]{ok, legOf(failed)}, true, nil, 1, 1},
		{"late leg, partial", []Leg[hit]{legOf(late), ok}, true, nil, 1, 1},
		{"late leg, strict", []Leg[hit]{legOf(late), ok}, false, late, 0, 1},
		{"every leg failed, partial", []Leg[hit]{legOf(failed), legOf(late)}, true, nil, 0, 2},
		{"missing and failed, partial", []Leg[hit]{legOf(missing), legOf(failed)}, true, nil, 0, 1},
		{"fatal beats failed", []Leg[hit]{legOf(failed), legOf(fatal), ok}, true, fatal, 0, 1},
		{"first fatal wins", []Leg[hit]{legOf(fatal), legOf(errors.New("other"))}, false, fatal, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Scatter(context.Background(), NewGlobalBound(5), 5, tc.partial, hitRank, tc.legs)
			if err != tc.err {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if m.Failed != tc.failed {
				t.Errorf("Failed = %d, want %d", m.Failed, tc.failed)
			}
			if len(m.Errs) != len(tc.legs) {
				t.Fatalf("%d leg outcomes for %d legs", len(m.Errs), len(tc.legs))
			}
			if err == nil && len(m.Results) != tc.results {
				t.Errorf("%d results, want %d", len(m.Results), tc.results)
			}
			if err == nil && m.Results == nil {
				t.Error("an answered scatter returned a nil ranking")
			}
		})
	}
}

// TestScatterSharesOneBound: every leg runs against the bound passed
// in, concurrently — a leg raising it is seen by the others.
func TestScatterSharesOneBound(t *testing.T) {
	gb := NewGlobalBound(1)
	raised := make(chan struct{})
	legs := []Leg[hit]{
		func(_ context.Context, g *GlobalBound) ([]hit, error) {
			g.Raise(0.75)
			close(raised)
			return nil, nil
		},
		func(ctx context.Context, g *GlobalBound) ([]hit, error) {
			select {
			case <-raised:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if g != gb || g.Bound() != 0.75 {
				return nil, fmt.Errorf("leg saw bound %v on %p, want 0.75 on %p", g.Bound(), g, gb)
			}
			return nil, nil
		},
	}
	if _, err := Scatter(context.Background(), gb, 1, false, hitRank, legs); err != nil {
		t.Fatal(err)
	}
}
