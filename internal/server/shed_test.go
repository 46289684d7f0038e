package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"vaq/internal/brownout"
	"vaq/internal/resilience"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func TestShedWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	sw := newShedWindow()
	sw.now = func() time.Time { return now }

	if _, ok := sw.waitP90(); ok {
		t.Fatal("empty window reports a p90")
	}
	// Below the sample floor: even terrible waits give no reading.
	for i := 0; i < sw.minSamp-1; i++ {
		sw.observe(time.Second)
	}
	if _, ok := sw.waitP90(); ok {
		t.Fatal("p90 reported below the sample floor")
	}
	sw.observe(time.Second)
	if p90, ok := sw.waitP90(); !ok || p90 != time.Second {
		t.Fatalf("waitP90 at the floor = %v, %v; want 1s, true", p90, ok)
	}
	// The p90 overshoots a 100ms threshold 10×: Retry-After is capped at 8×.
	if got := sw.shedRetry(100 * time.Millisecond); got != 8 {
		t.Fatalf("shedRetry at 10× overshoot = %d, want 8", got)
	}
	// Samples age out: the same window 11s later has no reading.
	now = now.Add(11 * time.Second)
	if _, ok := sw.waitP90(); ok {
		t.Fatal("stale samples still give a p90")
	}
	// Healthy waits: the p90 is the 90th-percentile fresh sample.
	for i := 0; i < 2*sw.minSamp; i++ {
		sw.observe(time.Duration(i) * time.Millisecond)
	}
	if p90, ok := sw.waitP90(); !ok || p90 != 14*time.Millisecond {
		t.Fatalf("waitP90 over 0..15ms = %v, %v; want 14ms, true", p90, ok)
	}
	// Below the threshold the hint is the threshold itself, at least 1s.
	if got := sw.shedRetry(100 * time.Millisecond); got != 1 {
		t.Fatalf("shedRetry under the threshold = %d, want 1", got)
	}
	if sw.Sheds() != 2 {
		t.Fatalf("Sheds = %d, want 2", sw.Sheds())
	}
	// Overfill the ring: the sample count saturates at the ring size,
	// the newest samples dominate, and a budget reading the window
	// sees the heat.
	for i := 0; i < shedRing+50; i++ {
		sw.observe(2 * time.Millisecond)
	}
	sw.mu.Lock()
	n := sw.count
	sw.mu.Unlock()
	if n != shedRing {
		t.Errorf("ring holds %d samples after overfill, want %d", n, shedRing)
	}
	if p90, ok := sw.waitP90(); !ok || p90 != 2*time.Millisecond {
		t.Errorf("overfilled waitP90 = %v, %v; want 2ms, true", p90, ok)
	}
	if got := resilience.NewAdaptiveBudget(time.Millisecond, sw.waitP90).Retries(5); got != 0 {
		t.Errorf("overfilled hot budget Retries(5) = %d, want 0", got)
	}

	var nilSW *shedWindow
	if _, ok := nilSW.waitP90(); ok || nilSW.Sheds() != 0 {
		t.Fatal("nil shedWindow misbehaves")
	}
}

// TestShedding503: once the brownout ladder reaches its shed rung,
// session-create and top-k admissions answer 503 with a Retry-After
// hint, the rejections are counted in /metricsz, /healthz reports
// overload, and admission reopens once the samples age out.
func TestShedding503(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	srv, ts := startServer(t, Config{
		Repo:     buildRepo(t),
		Brownout: brownout.Config{High: time.Millisecond, Dwell: time.Second, Now: clock},
	})
	srv.shed.now = clock
	for i := 0; i < 10; i++ {
		srv.shed.observe(10 * time.Millisecond)
	}
	for srv.bo.Level() != brownout.LevelShed {
		now = now.Add(2 * time.Second)
		srv.evalBrownout()
	}

	post := func(path string, body any) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, jsonBody(t, body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, path := range []string{"/v1/sessions", "/v1/topk"} {
		body := any(CreateSessionRequest{Workload: "q2"})
		if path == "/v1/topk" {
			body = TopKRequest{Action: "blowing_leaves", K: 3}
		}
		resp := post(path, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s while overloaded: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s 503 carries no Retry-After", path)
		}
	}
	var mz MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil, &mz); code != http.StatusOK {
		t.Fatalf("metricsz: status %d", code)
	}
	if mz.ShedRequests != 2 {
		t.Fatalf("shed_requests = %d, want 2", mz.ShedRequests)
	}
	var hz HealthzResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &hz); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if hz.Status != "overloaded" || !hz.Overloaded || hz.ShedRequests != 2 {
		t.Fatalf("healthz = status %q overloaded %v shed_requests %d, want overloaded/true/2",
			hz.Status, hz.Overloaded, hz.ShedRequests)
	}

	// Load subsides (samples age out): the admission check's own
	// evaluation steps the ladder off its shed rung and admits.
	now = now.Add(time.Minute)
	var info SessionInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateSessionRequest{Workload: "q2", Scale: 0.1}, &info); code != http.StatusCreated {
		t.Fatalf("create after recovery: status %d, want 201", code)
	}
}
