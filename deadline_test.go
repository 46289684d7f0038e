package vaq

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDeadlinePartialFacade drives the facade's deadline/partial knobs:
// an instantly-expiring deadline must yield a flagged empty answer
// under Partial and an error without it, on every offline entry point.
func TestDeadlinePartialFacade(t *testing.T) {
	repo, q := multiRepo(t, 2, 0.05)
	name := repo.Videos()[0]

	eo := ExecOptions{Deadline: time.Nanosecond}
	if _, _, err := repo.TopKOpts(name, q, 3, eo); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TopKOpts without Partial: err = %v, want DeadlineExceeded", err)
	}
	if _, _, err := repo.TopKGlobalOpts(q, 3, eo); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TopKGlobalOpts without Partial: err = %v, want DeadlineExceeded", err)
	}

	eo.Partial = true
	res, stats, err := repo.TopKOpts(name, q, 3, eo)
	if err != nil {
		t.Fatalf("TopKOpts with Partial errored: %v", err)
	}
	if !stats.Incomplete {
		t.Fatal("TopKOpts with Partial: stats not Incomplete")
	}
	if len(res) != 0 {
		t.Fatalf("instant deadline produced %d results", len(res))
	}

	for _, workers := range []int{1, 4} {
		geo := eo
		geo.Workers = workers
		gres, gstats, err := repo.TopKGlobalOpts(q, 3, geo)
		if err != nil {
			t.Fatalf("TopKGlobalOpts(workers=%d) with Partial errored: %v", workers, err)
		}
		if !gstats.Incomplete || len(gres) != 0 {
			t.Fatalf("TopKGlobalOpts(workers=%d): incomplete=%v results=%d", workers, gstats.Incomplete, len(gres))
		}
	}
}

// TestGenerousDeadlineComplete asserts the no-fault fast path: a
// generous deadline changes nothing — identical results, not marked
// Incomplete.
func TestGenerousDeadlineComplete(t *testing.T) {
	repo, q := multiRepo(t, 2, 0.05)
	base, bstats, err := repo.TopKGlobalOpts(q, 3, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bstats.Incomplete {
		t.Fatal("baseline run marked Incomplete")
	}
	got, gstats, err := repo.TopKGlobalOpts(q, 3, ExecOptions{Deadline: time.Hour, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if gstats.Incomplete {
		t.Fatal("deadline run marked Incomplete despite finishing")
	}
	if len(got) != len(base) {
		t.Fatalf("results differ: %d vs %d", len(got), len(base))
	}
	for i := range got {
		if got[i].Video != base[i].Video || got[i].Seq != base[i].Seq || got[i].Score != base[i].Score {
			t.Fatalf("result %d differs under deadline: %+v vs %+v", i, got[i], base[i])
		}
	}
}
