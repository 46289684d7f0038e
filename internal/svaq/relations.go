package svaq

import (
	"fmt"
	"slices"

	"vaq/internal/detect"
	"vaq/internal/video"
)

// Footnote 2 extension: queries may additionally constrain spatial
// relationships between objects ("human left of the car"). Each relation
// yields a binary per-frame output derived from the detection outcomes
// (detect.EvalRelation) and is then treated exactly like an object
// predicate: counted per clip and compared against its own
// scan-statistics critical value.

// WithRelations augments the engine with relation predicates, one
// singleton clause each, placed after the objects of a query built by
// New (after every clause of one built by NewClauses). It must be called
// before the first clip is processed.
func (e *Engine) WithRelations(rels []detect.Relation) error {
	if e.nextClip != 0 {
		return fmt.Errorf("svaq: relations must be added before processing starts")
	}
	if len(rels) > 0 && e.det == nil {
		return fmt.Errorf("svaq: relation predicates need an object detector")
	}
	for _, r := range rels {
		rd := detect.NewRelationDetector(e.det, r, e.cfg.Thresholds.Object)
		p, err := e.addPredicate(predRelation, "", "rel:"+r.String(), func(v int) bool {
			return rd.Holds(video.FrameIdx(v))
		})
		if err != nil {
			return err
		}
		e.clauses = slices.Insert(e.clauses, e.relAt, e.newClause([]*predicate{p}))
		e.relAt++
	}
	return nil
}
