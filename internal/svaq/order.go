package svaq

import (
	"sort"
	"strings"
)

// Footnote 5 of the paper defers "a thorough investigation into the
// impact of the predicate order" to future work and evaluates predicates
// in user-given order. This file implements that future work: with
// Config.AdaptiveOrder, the engine reorders the short-circuit
// evaluation pipeline online by the classic pipelined-filter rule —
// ascending cost / (1 − pass-rate) — using per-clause pass rates
// estimated from the stream itself. Periodic exploration clips evaluate
// every clause so that the estimates of clauses parked late in the
// pipeline stay fresh.

// clause is one stage of the evaluation pipeline — a disjunction of
// predicates (a single predicate for conjunctive queries) — with its
// online ordering statistics.
type clause struct {
	preds []*predicate
	// passRate is an exponentially-weighted estimate of
	// P(clause positive), the clause's (non-)selectivity.
	passRate float64
	// cost is the clause's model invocations per clip, optionally
	// weighted (actions run heavier models on fewer units).
	cost float64
}

// passDecay is the EWMA factor for pass-rate updates.
const passDecay = 0.98

// newClause builds a pipeline stage over preds, costed at a clip's
// frames per object or relation predicate and its weighted shots per
// action predicate.
func (e *Engine) newClause(preds []*predicate) *clause {
	cl := &clause{preds: preds, passRate: 0.5}
	for _, p := range preds {
		if p.kind == predAction {
			cl.cost += float64(e.geom.ShotsPerClip) * e.cfg.ActionCostWeight
		} else {
			cl.cost += float64(e.geom.ClipLen())
		}
	}
	return cl
}

// reorder sorts the pipeline by ascending cost/(1−passRate): cheap,
// highly selective clauses run first so failed clips are abandoned
// early (the optimal ordering for independent pipelined filters).
func (e *Engine) reorder() {
	rank := func(cl *clause) float64 {
		// never let a non-selective clause look free
		return cl.cost / max(1-cl.passRate, 0.05)
	}
	sort.SliceStable(e.clauses, func(a, b int) bool {
		return rank(e.clauses[a]) < rank(e.clauses[b])
	})
}

// observePass feeds a clause's outcome into its ordering statistics.
func (cl *clause) observePass(positive bool) {
	v := 0.0
	if positive {
		v = 1
	}
	cl.passRate = passDecay*cl.passRate + (1-passDecay)*v
}

// Order reports the current pipeline as human-readable clause names — a
// predicate name, or several joined by " | " for a disjunction — for
// diagnostics and the ordering ablation.
func (e *Engine) Order() []string {
	out := make([]string, len(e.clauses))
	for i, cl := range e.clauses {
		names := make([]string, len(cl.preds))
		for j, p := range cl.preds {
			names[j] = p.name
		}
		out[i] = strings.Join(names, " | ")
	}
	return out
}
