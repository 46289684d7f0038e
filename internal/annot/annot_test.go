package annot

import (
	"testing"

	"vaq/internal/interval"
	"vaq/internal/video"
)

func testMeta() video.Meta {
	return video.Meta{Name: "t", Frames: 1000, Geom: video.Geometry{FPS: 30, ShotLen: 10, ShotsPerClip: 5}}
}

func TestAddObjectClampsToVideo(t *testing.T) {
	a := NewVideo(testMeta())
	a.AddObject("car", interval.Set{{Lo: -5, Hi: 2000}})
	got := a.Objects["car"]
	want := interval.Set{{Lo: 0, Hi: 999}}
	if !got.Equal(want) {
		t.Fatalf("Objects[car] = %v, want %v", got, want)
	}
}

func TestAddObjectMerges(t *testing.T) {
	a := NewVideo(testMeta())
	a.AddObject("car", interval.Set{{Lo: 0, Hi: 10}})
	a.AddObject("car", interval.Set{{Lo: 5, Hi: 20}})
	if got := a.Objects["car"]; !got.Equal(interval.Set{{Lo: 0, Hi: 20}}) {
		t.Fatalf("merge failed: %v", got)
	}
}

func TestAddActionClampsToShots(t *testing.T) {
	a := NewVideo(testMeta()) // 100 shots
	a.AddAction("run", interval.Set{{Lo: 90, Hi: 500}})
	if got := a.Actions["run"]; !got.Equal(interval.Set{{Lo: 90, Hi: 99}}) {
		t.Fatalf("Actions[run] = %v", got)
	}
}

func TestPresenceQueries(t *testing.T) {
	a := NewVideo(testMeta())
	a.AddObject("car", interval.Set{{Lo: 100, Hi: 199}})
	a.AddAction("run", interval.Set{{Lo: 10, Hi: 19}})
	if !a.Objects["car"].Contains(150) || a.Objects["car"].Contains(99) {
		t.Error("object presence wrong")
	}
	if !a.Actions["run"].Contains(15) || a.Actions["run"].Contains(9) {
		t.Error("action presence wrong")
	}
	if a.Objects["bike"].Contains(150) {
		t.Error("unknown label should be absent")
	}
}

func TestLabelsSorted(t *testing.T) {
	a := NewVideo(testMeta())
	a.AddObject("zebra", nil)
	a.AddObject("apple", nil)
	a.AddAction("b", nil)
	a.AddAction("a", nil)
	obj := a.ObjectLabels()
	if len(obj) != 2 || obj[0] != "apple" || obj[1] != "zebra" {
		t.Fatalf("ObjectLabels = %v", obj)
	}
	act := a.ActionLabels()
	if len(act) != 2 || act[0] != "a" || act[1] != "b" {
		t.Fatalf("ActionLabels = %v", act)
	}
}

func TestQueryValidateAndString(t *testing.T) {
	if (Query{}).Validate() == nil {
		t.Error("empty query should be invalid")
	}
	q := Query{Action: "run", Objects: []Label{"car", "dog"}}
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if s := q.String(); s != "q:{o1=car; o2=dog; a=run}" {
		t.Errorf("String = %q", s)
	}
	if s := (Query{Action: "run"}).String(); s != "q:{a=run}" {
		t.Errorf("action-only String = %q", s)
	}
	if s := (Query{Objects: []Label{"car"}}).String(); s != "q:{o1=car}" {
		t.Errorf("object-only String = %q", s)
	}
}

func TestGroundTruthClipsIntersection(t *testing.T) {
	a := NewVideo(testMeta()) // clips of 50 frames / 5 shots; 20 clips
	// Action on shots 0..9 => frames 0..99 => clips 0,1 fully covered.
	a.AddAction("run", interval.Set{{Lo: 0, Hi: 9}})
	// Object on frames 50..149 => clips 1,2 covered.
	a.AddObject("car", interval.Set{{Lo: 50, Hi: 149}})
	got, err := a.GroundTruthClips(Query{Action: "run", Objects: []Label{"car"}})
	if err != nil {
		t.Fatal(err)
	}
	want := interval.Set{{Lo: 1, Hi: 1}}
	if !got.Equal(want) {
		t.Fatalf("GroundTruthClips = %v, want %v", got, want)
	}
}

func TestGroundTruthClipsMinCoverRule(t *testing.T) {
	a := NewVideo(testMeta())
	// MinCoverUnits frames in clip 0: counts.
	a.AddObject("car", interval.Set{{Lo: 0, Hi: MinCoverUnits - 1}})
	// A single frame in clip 1: does not count.
	a.AddObject("dog", interval.Set{{Lo: 50, Hi: 50}})
	got, err := a.GroundTruthClips(Query{Objects: []Label{"car"}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(interval.Set{{Lo: 0, Hi: 0}}) {
		t.Fatalf("minimal coverage should count: %v", got)
	}
	got, err = a.GroundTruthClips(Query{Objects: []Label{"dog"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("single-unit coverage should not count: %v", got)
	}
}

func TestGroundTruthClipsInvalidQuery(t *testing.T) {
	a := NewVideo(testMeta())
	if _, err := a.GroundTruthClips(Query{}); err == nil {
		t.Error("want error for empty query")
	}
}

func TestGroundTruthClipsUnknownLabelIsEmpty(t *testing.T) {
	a := NewVideo(testMeta())
	a.AddAction("run", interval.Set{{Lo: 0, Hi: 99}})
	got, err := a.GroundTruthClips(Query{Action: "run", Objects: []Label{"ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("query with never-present object should be empty, got %v", got)
	}
}
