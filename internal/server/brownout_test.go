package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vaq/internal/brownout"
	"vaq/internal/resilience"
)

// TestBrownoutLadderEndToEnd walks a brownout-armed server up the
// ladder with a hot queue-wait signal and back down as the load
// subsides, checking every surface the level reaches: admission (503 +
// Retry-After at shed), /varz, /metricsz, /healthz, session status and
// the EXPLAIN profile.
func TestBrownoutLadderEndToEnd(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(3000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	srv, ts := startServer(t, Config{
		Repo: buildRepo(t),
		Brownout: brownout.Config{
			High:  100 * time.Millisecond,
			Dwell: time.Second,
			Now:   clock,
		},
	})
	// The shed window shares the fake clock so samples age with it.
	srv.shed.now = clock

	// A hot queue: every pool acquisition waited 1s, far past High.
	for i := 0; i < 10; i++ {
		srv.shed.observe(time.Second)
	}
	// One dwell-spaced evaluation per rung walks full -> shed.
	want := []brownout.Level{
		brownout.LevelNoHedge, brownout.LevelCheap, brownout.LevelPrior, brownout.LevelShed,
	}
	for _, wl := range want {
		advance(2 * time.Second)
		srv.evalBrownout()
		if got := srv.bo.Level(); got != wl {
			t.Fatalf("level after evaluation = %v, want %v", got, wl)
		}
	}
	if got := srv.mode.Get(); got != resilience.ModePrior {
		t.Fatalf("resilience mode at shed = %v, want ModePrior", got)
	}

	// Admission rejects both session-create and top-k with Retry-After.
	for _, path := range []string{"/v1/sessions", "/v1/topk"} {
		body := any(CreateSessionRequest{Workload: "q2"})
		if path == "/v1/topk" {
			body = TopKRequest{Action: "blowing_leaves", K: 3}
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, jsonBody(t, body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s at level shed: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s 503 carries no Retry-After", path)
		}
	}

	// The level is a gauge on /varz ...
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	varz, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(varz), "vaq_brownout_level 4") {
		t.Errorf("/varz missing the shed-level gauge:\n%s", varz)
	}

	// ... a stats block on /metricsz ...
	var mz MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil, &mz); code != http.StatusOK {
		t.Fatalf("metricsz: status %d", code)
	}
	if mz.Brownout == nil {
		t.Fatal("metricsz carries no brownout block on an armed server")
	}
	if mz.Brownout.Level != "shed" || mz.Brownout.StepUps < 4 {
		t.Errorf("metricsz brownout = %+v, want level shed with >= 4 step-ups", mz.Brownout)
	}

	// ... and an overload verdict on /healthz.
	var hz HealthzResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &hz); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if hz.BrownoutLevel != "shed" || !hz.Overloaded {
		t.Errorf("healthz = level %q overloaded %v, want shed/true", hz.BrownoutLevel, hz.Overloaded)
	}

	// Load subsides: the samples age out and calm readings walk the
	// ladder back to full.
	advance(time.Minute)
	for i := 0; i < 4; i++ {
		advance(2 * time.Second)
		srv.evalBrownout()
	}
	if got := srv.bo.Level(); got != brownout.LevelFull {
		t.Fatalf("level after recovery = %v, want full", got)
	}
	if got := srv.mode.Get(); got != resilience.ModeFull {
		t.Fatalf("resilience mode after recovery = %v, want ModeFull", got)
	}

	// Admission reopens; the session reports the active level.
	var info SessionInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateSessionRequest{Workload: "q2", Scale: 0.1}, &info); code != http.StatusCreated {
		t.Fatalf("create after recovery: status %d, want 201", code)
	}
	if info.BrownoutLevel != "full" {
		t.Errorf("session brownout_level = %q, want full", info.BrownoutLevel)
	}

	// A top-k EXPLAIN profile is stamped with the level in force.
	var tk TopKResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
		TopKRequest{Action: "blowing_leaves", K: 3, Video: "q2", Explain: true}, &tk); code != http.StatusOK {
		t.Fatalf("topk after recovery: status %d", code)
	}
	if tk.Explain == nil || tk.Explain.Brownout != "full" {
		t.Errorf("topk explain brownout = %+v, want level full stamped", tk.Explain)
	}
}

// TestTopKHopDiscountValidation pins the /v1/topk request validation
// around the per-hop discount table.
func TestTopKHopDiscountValidation(t *testing.T) {
	_, ts := startServer(t, Config{Repo: buildRepo(t)})

	cases := []struct {
		name string
		req  TopKRequest
	}{
		{"entry above one", TopKRequest{Action: "blowing_leaves", HopDiscounts: []float64{0.2, 1.5}}},
		{"negative entry", TopKRequest{Action: "blowing_leaves", HopDiscounts: []float64{-0.1}}},
	}
	for _, tc := range cases {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk", tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	// A valid table is accepted and answers normally.
	var tk TopKResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
		TopKRequest{Action: "blowing_leaves", K: 3, Video: "q2", HopDiscounts: []float64{0.2, 0.6}}, &tk); code != http.StatusOK {
		t.Errorf("valid hop_discounts rejected: status %d", code)
	}
}
