package svaq

import (
	"testing"

	"vaq/internal/detect"
	"vaq/internal/plan"
)

// TestPlanRateOneByteIdentical is the planner's metamorphic check at
// engine level: a Rate-1 planner runs the single dense rung, so the
// result sequences AND the backend invocation count must be
// byte-identical to the unplanned engine over the same scene. Run with
// -race in CI as the planner determinism smoke.
func TestPlanRateOneByteIdentical(t *testing.T) {
	scene, q := testWorld(t, 11)
	nclips := scene.Truth.Meta.Clips()

	run := func(pcfg plan.Config) (string, int64) {
		var meter detect.CostMeter
		det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, &meter)
		rec := detect.NewSimActionRecognizer(scene, detect.I3D, &meter)
		e, err := New(q, det, rec, scene.Truth.Meta.Geom, Config{
			Dynamic: true, HorizonClips: nclips, Plan: pcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		seqs, err := e.Run(nclips)
		if err != nil {
			t.Fatal(err)
		}
		return seqs.String(), meter.Calls()
	}

	denseSeqs, denseCalls := run(plan.Config{})
	planSeqs, planCalls := run(plan.Config{Rate: 1})
	if planSeqs != denseSeqs {
		t.Errorf("rate-1 sequences diverge from dense:\n dense: %s\n plan:  %s", denseSeqs, planSeqs)
	}
	if planCalls != denseCalls {
		t.Errorf("rate-1 invocations = %d, dense = %d", planCalls, denseCalls)
	}

	// And the planned path itself must be deterministic run-to-run.
	seqs8a, calls8a := run(plan.Config{Rate: 8})
	seqs8b, calls8b := run(plan.Config{Rate: 8})
	if seqs8a != seqs8b || calls8a != calls8b {
		t.Errorf("rate-8 runs diverge: %q/%d vs %q/%d", seqs8a, calls8a, seqs8b, calls8b)
	}
	if calls8a >= denseCalls {
		t.Errorf("rate-8 invocations %d not below dense %d", calls8a, denseCalls)
	}
}

func TestPlanStatsAccumulate(t *testing.T) {
	scene, q := testWorld(t, 12)
	nclips := scene.Truth.Meta.Clips()
	e := engines(t, scene, q, Config{
		Dynamic: true, HorizonClips: nclips, Plan: plan.Config{Rate: 8},
	})
	if _, err := e.Run(nclips); err != nil {
		t.Fatal(err)
	}
	st := e.PlanStats()
	if st.Clips == 0 {
		t.Fatal("planner ran but Stats.Clips == 0")
	}
	if st.Units >= st.UnitsDense {
		t.Errorf("planned units %d not below dense %d", st.Units, st.UnitsDense)
	}
}

func TestPlanConfigRejected(t *testing.T) {
	scene, q := testWorld(t, 13)
	det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	geom := scene.Truth.Meta.Geom
	if _, err := New(q, det, rec, geom, Config{Plan: plan.Config{Rate: -2}}); err == nil {
		t.Error("negative plan rate accepted")
	}
	if _, err := New(q, det, rec, geom, Config{
		RecordIndicators: true, Plan: plan.Config{Rate: 4},
	}); err == nil {
		t.Error("RecordIndicators with an enabled Plan accepted")
	}
	if _, err := New(q, det, rec, geom, Config{
		RecordIndicators: true, Plan: plan.Config{},
	}); err != nil {
		t.Errorf("RecordIndicators with a disabled Plan rejected: %v", err)
	}
}
