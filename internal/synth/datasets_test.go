package synth

import (
	"testing"

	"vaq/internal/video"
)

func TestYouTubeIDsComplete(t *testing.T) {
	ids := YouTubeIDs()
	if len(ids) != 12 {
		t.Fatalf("expected 12 YouTube sets, got %d", len(ids))
	}
	if ids[0] != "q1" || ids[11] != "q12" {
		t.Fatalf("unexpected ids %v", ids)
	}
}

func TestYouTubeSetsGenerate(t *testing.T) {
	for _, id := range YouTubeIDs() {
		qs, err := YouTubeScaled(id, video.DefaultGeometry(), 0.25)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := qs.Query.Validate(); err != nil {
			t.Errorf("%s: invalid query: %v", id, err)
		}
		if qs.World.Truth.Actions[qs.Query.Action].Len() == 0 {
			t.Errorf("%s: no action episodes for %s", id, qs.Query.Action)
		}
		for _, o := range qs.Query.Objects {
			if qs.World.Truth.Objects[o].Len() == 0 {
				t.Errorf("%s: no presence for object %s", id, o)
			}
		}
		// Table 3 relies on the person predicate being annotated.
		if qs.World.Truth.Objects["person"].Len() == 0 {
			t.Errorf("%s: person not annotated", id)
		}
		if qs.World.LabelAccuracy["person"] <= 1 {
			t.Errorf("%s: person should be more detectable than baseline", id)
		}
	}
}

func TestYouTubeLengthMatchesTable1(t *testing.T) {
	qs, err := YouTubeScaled("q1", video.DefaultGeometry(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: q1 totals 57 minutes.
	want := 57 * 60 * 30
	if qs.World.Truth.Meta.Frames != want {
		t.Fatalf("q1 frames = %d, want %d", qs.World.Truth.Meta.Frames, want)
	}
	if qs.Minutes != 57 {
		t.Fatalf("q1 minutes = %d", qs.Minutes)
	}
}

func TestYouTubeUnknownID(t *testing.T) {
	if _, err := YouTubeScaled("q99", video.DefaultGeometry(), 1); err == nil {
		t.Fatal("unknown set accepted")
	}
}

func TestMoviesGenerate(t *testing.T) {
	names := MovieNames()
	if len(names) != 4 {
		t.Fatalf("expected 4 movies, got %d", len(names))
	}
	for _, name := range names {
		qs, err := MovieScaled(name, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		truth := qs.World.Truth
		// The ingestion phase needs a wide label universe (§4.2).
		if len(truth.ObjectLabels()) < 10 {
			t.Errorf("%s: only %d object labels", name, len(truth.ObjectLabels()))
		}
		if len(truth.ActionLabels()) < 5 {
			t.Errorf("%s: only %d action labels", name, len(truth.ActionLabels()))
		}
		if truth.Actions[qs.Query.Action].Len() == 0 {
			t.Errorf("%s: queried action absent", name)
		}
	}
}

func TestMovieUnknown(t *testing.T) {
	if _, err := MovieScaled("inexistent_movie", 1); err == nil {
		t.Fatal("unknown movie accepted")
	}
}

func TestMovieLengthMatchesTable2(t *testing.T) {
	qs, err := MovieScaled("titanic", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 194 * 60 * 30 // 3h14min at 30 fps
	if qs.World.Truth.Meta.Frames != want {
		t.Fatalf("titanic frames = %d, want %d", qs.World.Truth.Meta.Frames, want)
	}
}

func TestSceneAdapter(t *testing.T) {
	qs, err := YouTubeScaled("q2", video.DefaultGeometry(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sc := qs.World.Scene()
	if sc.Truth != qs.World.Truth || sc.Seed != qs.World.Seed {
		t.Fatal("Scene adapter lost fields")
	}
	if len(sc.ObjectDistractors) != len(qs.World.ObjectDistractors) {
		t.Fatal("Scene adapter lost distractors")
	}
}
