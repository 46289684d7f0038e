// Package interval implements sets of integer intervals used throughout
// the system: result sequences are sets of inclusive [start, end] clip-id
// ranges (the paper's P = {(c_l, c_r)}), annotations are frame or shot
// ranges, and the offline intersection operator ⊗ (§4.2) is an interval
// sweep.
//
// All operations treat a Set as a value: inputs are never mutated and
// results are always normalized (sorted, non-overlapping, non-adjacent
// intervals merged).
package interval

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is an inclusive range [Lo, Hi] of integer positions (frame,
// shot or clip identifiers, depending on context). An interval with
// Hi < Lo is empty.
type Interval struct {
	Lo, Hi int
}

// Len returns the number of positions covered by the interval.
func (iv Interval) Len() int {
	if iv.Hi < iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x int) bool { return iv.Lo <= x && x <= iv.Hi }

// Intersect returns the overlap of the two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Lo: max(iv.Lo, o.Lo), Hi: min(iv.Hi, o.Hi)}
}

// IOU returns the intersection-over-union of the two intervals, the
// matching criterion used for evaluation (§5.1, threshold η = 0.5).
func (iv Interval) IOU(o Interval) float64 {
	inter := iv.Intersect(o).Len()
	if inter == 0 {
		return 0
	}
	union := iv.Len() + o.Len() - inter
	return float64(inter) / float64(union)
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// Set is a normalized collection of disjoint, sorted, non-adjacent
// intervals. The zero value is the empty set.
type Set []Interval

// Normalize sorts ivs, drops empty intervals and merges overlapping or
// adjacent ones, returning a canonical Set.
func Normalize(ivs []Interval) Set {
	nonEmpty := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Len() > 0 {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	sort.Slice(nonEmpty, func(i, j int) bool {
		if nonEmpty[i].Lo != nonEmpty[j].Lo {
			return nonEmpty[i].Lo < nonEmpty[j].Lo
		}
		return nonEmpty[i].Hi < nonEmpty[j].Hi
	})
	out := Set{nonEmpty[0]}
	for _, iv := range nonEmpty[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1 { // overlapping or adjacent: merge
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// FromIndicators builds a Set of the maximal runs of true values,
// interpreting index i as position i.
func FromIndicators(ind []bool) Set {
	var ivs []Interval
	start := -1
	for i, v := range ind {
		switch {
		case v && start < 0:
			start = i
		case !v && start >= 0:
			ivs = append(ivs, Interval{Lo: start, Hi: i - 1})
			start = -1
		}
	}
	if start >= 0 {
		ivs = append(ivs, Interval{Lo: start, Hi: len(ind) - 1})
	}
	return Set(ivs)
}

// IsNormalized reports whether s is sorted, disjoint and non-adjacent.
func (s Set) IsNormalized() bool {
	for i, iv := range s {
		if iv.Len() <= 0 {
			return false
		}
		if i > 0 && iv.Lo <= s[i-1].Hi+1 {
			return false
		}
	}
	return true
}

// Len returns the total number of positions covered by the set.
func (s Set) Len() int {
	n := 0
	for _, iv := range s {
		n += iv.Len()
	}
	return n
}

// Contains reports whether position x is covered by the set.
func (s Set) Contains(x int) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= x })
	return i < len(s) && s[i].Contains(x)
}

// Union returns the positions covered by either set.
func (s Set) Union(o Set) Set {
	return Normalize(append(append([]Interval{}, s...), o...))
}

// Intersect returns the positions covered by both sets as maximal runs:
// the paper's ⊗ operator (§4.2), computed by a single merge sweep over
// the two sorted inputs.
func (s Set) Intersect(o Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		in := s[i].Intersect(o[j])
		if in.Len() > 0 {
			out = append(out, in)
		}
		if s[i].Hi < o[j].Hi {
			i++
		} else {
			j++
		}
	}
	return Normalize(out)
}

// IntersectAll folds Intersect over all given sets; with no arguments it
// returns nil (empty). It implements Equation 12,
// P_q = P_a ⊗ P_o1 ⊗ ... ⊗ P_oI.
func IntersectAll(sets ...Set) Set {
	if len(sets) == 0 {
		return nil
	}
	out := sets[0]
	for _, s := range sets[1:] {
		if len(out) == 0 {
			return nil
		}
		out = out.Intersect(s)
	}
	return out
}

// Subtract returns the positions covered by s but not by o.
func (s Set) Subtract(o Set) Set {
	var out []Interval
	j := 0
	for _, iv := range s {
		lo := iv.Lo
		for j < len(o) && o[j].Hi < lo {
			j++
		}
		k := j
		for k < len(o) && o[k].Lo <= iv.Hi {
			if o[k].Lo > lo {
				out = append(out, Interval{Lo: lo, Hi: o[k].Lo - 1})
			}
			if o[k].Hi+1 > lo {
				lo = o[k].Hi + 1
			}
			k++
		}
		if lo <= iv.Hi {
			out = append(out, Interval{Lo: lo, Hi: iv.Hi})
		}
	}
	return Normalize(out)
}

// Clamp restricts the set to the inclusive window [lo, hi].
func (s Set) Clamp(lo, hi int) Set {
	var out []Interval
	for _, iv := range s {
		in := iv.Intersect(Interval{Lo: lo, Hi: hi})
		if in.Len() > 0 {
			out = append(out, in)
		}
	}
	return Set(out)
}

// Scale maps a set expressed at one granularity to a coarser one by
// integer division of endpoints: e.g. frame intervals to the clips they
// touch, given factor = frames per clip.
func (s Set) Scale(factor int) Set {
	if factor <= 0 {
		return nil
	}
	ivs := make([]Interval, len(s))
	for i, iv := range s {
		ivs[i] = Interval{Lo: iv.Lo / factor, Hi: iv.Hi / factor}
	}
	return Normalize(ivs)
}

// Points enumerates every covered position in ascending order.
func (s Set) Points() []int {
	out := make([]int, 0, s.Len())
	for _, iv := range s {
		for x := iv.Lo; x <= iv.Hi; x++ {
			out = append(out, x)
		}
	}
	return out
}

// Equal reports whether the two sets cover exactly the same positions.
// Both sets must be normalized (as produced by this package).
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

func (s Set) String() string {
	parts := make([]string, len(s))
	for i, iv := range s {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Find returns the interval containing x, if any.
func (s Set) Find(x int) (Interval, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= x })
	if i < len(s) && s[i].Contains(x) {
		return s[i], true
	}
	return Interval{}, false
}
