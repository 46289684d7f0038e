// Package score defines the scoring-function framework of §4.1: the
// per-label clip score h, the clip combiner g, and the sequence combiner
// f with its aggregation operator ⊙ (Equation 11). RVAQ's bound
// maintenance only relies on the contract spelled out in §4.1
// (monotonicity, sub-sequence dominance, decomposability), so any
// implementation of Functions can be plugged in; Additive is the
// instance used in the paper's experiments (§5).
package score

// H combines the raw detection scores of one label inside one clip into
// the label's clip score S_l^(c) (Equation 7/8). The paper imposes no
// constraints on h.
type H interface {
	// CombineLabel folds raw per-frame (or per-shot) scores. An empty
	// input must yield the label's zero contribution.
	CombineLabel(raw []float64) float64
}

// G combines per-predicate clip scores into the clip's overall score
// S_q^(c) (Equation 9). It must be monotone in every argument.
type G interface {
	// CombineClip receives the action's clip score and the object
	// predicates' clip scores in query order.
	CombineClip(action float64, objects []float64) float64
}

// F combines clip scores into a sequence score S_q^(z) (Equation 10):
// a sequence's score is its clip scores folded with Merge from Zero.
// The §4.1 contract:
//
//   - monotone in every clip score,
//   - a sub-sequence never outscores its super-sequence,
//   - decomposable: S(z1 ∪ z2) = S(z1) ⊙ S(z2) for disjoint covers,
//     with ⊙ exposed via Merge.
type F interface {
	// Merge is the ⊙ operator of Equation 11.
	Merge(a, b float64) float64
	// MergeN merges n copies of the same clip score (used by RVAQ's
	// bound maintenance: "the score of the L remaining clips is at most
	// that of merging L copies of the bounding value", Equations 13–14).
	MergeN(s float64, n int) float64
	// Zero is the identity of Merge (score of an empty sequence).
	Zero() float64
}

// Functions bundles a full scoring scheme.
type Functions struct {
	H H
	G G
	F F
}

// Additive is the instance used in §5:
//
//	h: sum of raw scores,
//	g: S_a^(c) · Σ_i S_oi^(c)   (falling back to the sum of whatever
//	   predicates exist when the query lacks an action or objects),
//	f: sum over clips, ⊙ = +.
type Additive struct{}

// CombineLabel implements H: the sum of raw scores.
func (Additive) CombineLabel(raw []float64) float64 {
	s := 0.0
	for _, v := range raw {
		s += v
	}
	return s
}

// CombineClip implements G: action score times the sum of object
// scores. Queries with only an action (or only objects) degrade to the
// sum of present predicates so the score stays meaningful.
func (Additive) CombineClip(action float64, objects []float64) float64 {
	objSum := 0.0
	for _, v := range objects {
		objSum += v
	}
	if len(objects) == 0 {
		return action
	}
	return action * objSum
}

// Merge implements the ⊙ operator: addition.
func (Additive) Merge(a, b float64) float64 { return a + b }

// MergeN implements F: n·s.
func (Additive) MergeN(s float64, n int) float64 { return s * float64(n) }

// Zero implements F.
func (Additive) Zero() float64 { return 0 }

// Default returns the additive scheme of §5.
func Default() Functions {
	a := Additive{}
	return Functions{H: a, G: a, F: a}
}

// MaxSeq is an alternative F: the sequence score is its best clip score
// (⊙ = max). It satisfies the §4.1 contract for non-negative clip
// scores and is exercised by property tests to show RVAQ's independence
// from the specific scheme.
type MaxSeq struct{}

// Merge implements the ⊙ operator: max.
func (MaxSeq) Merge(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// MergeN implements F: s for any positive n.
func (MaxSeq) MergeN(s float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return s
}

// Zero implements F.
func (MaxSeq) Zero() float64 { return 0 }
