package server

import (
	"net/http"
	"testing"
)

const sharedInferQuery = `SELECT MERGE(clipID) AS Sequence FROM (PROCESS cam PRODUCE clipID,
	obj USING ObjectDetector, act USING ActionRecognizer)
	WHERE act = 'blowing_leaves' AND obj.include('car')`

// TestSharedInferenceAcrossSessions runs two identical sessions with
// the shared-inference layer armed and asserts they converge on one
// backend domain: the second session's invocations land as cache hits,
// and /metricsz exposes both the inference block and (with hedging
// armed) the per-backend hedge latency sketches.
func TestSharedInferenceAcrossSessions(t *testing.T) {
	srv, ts := startServer(t, Config{SharedInference: true, HedgeQuantile: 0.99})

	create := func() SessionInfo {
		t.Helper()
		var created SessionInfo
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", CreateSessionRequest{
			Workload: "q2", Scale: 0.02, Query: sharedInferQuery,
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("create status %d: %+v", code, created)
		}
		return created
	}

	first := create()
	if res := pollDone(t, ts.URL, first.ID); res.State != StateDone {
		t.Fatalf("first session ended %q, want done", res.State)
	}
	second := create()
	resSecond := pollDone(t, ts.URL, second.ID)
	if resSecond.State != StateDone {
		t.Fatalf("second session ended %q, want done", resSecond.State)
	}
	if resSecond.Sequences == nil {
		t.Fatal("second session produced no sequences field")
	}

	// Both sessions share one (workload, scale, model) domain, and one
	// generated workload.
	srv.hub.mu.Lock()
	domains := len(srv.hub.entries)
	srv.hub.mu.Unlock()
	if domains != 1 {
		t.Fatalf("inference domains = %d, want 1 (identical sessions must share)", domains)
	}
	srv.wlMu.Lock()
	workloads := len(srv.workloads)
	srv.wlMu.Unlock()
	if workloads != 1 {
		t.Fatalf("generated workloads = %d, want 1 (identical sessions must share)", workloads)
	}

	var m MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil, &m); code != http.StatusOK {
		t.Fatalf("metricsz status %d", code)
	}
	if m.Inference == nil {
		t.Fatal("metricsz has no inference block with SharedInference armed")
	}
	if m.Inference.CacheHits == 0 {
		t.Fatalf("inference cache hits = 0 after a repeated session: %+v", m.Inference)
	}
	if m.Inference.CacheMisses == 0 || m.Inference.Leaders == 0 {
		t.Fatalf("inference block missing first-session work: %+v", m.Inference)
	}
	if len(m.HedgeLatencies) == 0 {
		t.Fatal("hedge_latencies absent from /metricsz with HedgeQuantile armed")
	}
	for name, st := range m.HedgeLatencies {
		if st.Count <= 0 {
			t.Fatalf("hedge latency sketch %q has no samples: %+v", name, st)
		}
	}
}

// TestSharedInferenceOffOmitsMetrics pins the omitempty contract: with
// the layer disarmed, /metricsz must not grow an inference block.
func TestSharedInferenceOffOmitsMetrics(t *testing.T) {
	_, ts := startServer(t, Config{})
	created := SessionInfo{}
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", CreateSessionRequest{
		Workload: "q2", Scale: 0.02, Query: sharedInferQuery,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	pollDone(t, ts.URL, created.ID)
	var m MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil, &m); code != http.StatusOK {
		t.Fatalf("metricsz status %d", code)
	}
	if m.Inference != nil {
		t.Fatalf("inference block present without SharedInference: %+v", m.Inference)
	}
}
