package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vaq"
	"vaq/internal/detect"
	"vaq/internal/synth"
)

// startServer builds a Server plus an httptest front end and registers
// cleanup that shuts both down and asserts no session goroutine leaked.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		// Cancel whatever the test left running so the drain is prompt.
		for _, info := range srv.Registry().List() {
			srv.Registry().Delete(info.ID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		assertNoSessionGoroutines(t)
	})
	return srv, ts
}

// assertNoSessionGoroutines fails if any session goroutine survives
// shutdown (they all run (*Session).run).
func assertNoSessionGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*Session).run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked session goroutines after Shutdown:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// pollDone polls a session's results (long-polling on its clip count)
// until it leaves the running state.
func pollDone(t *testing.T, base, id string) ResultsResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	since := -1
	for {
		var res ResultsResponse
		url := fmt.Sprintf("%s/v1/sessions/%s/results?wait=2s", base, id)
		if since >= 0 {
			url += fmt.Sprintf("&since=%d", since)
		}
		if code := doJSON(t, http.MethodGet, url, nil, &res); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if res.State != StateRunning {
			return res
		}
		since = res.ClipsProcessed
		if time.Now().After(deadline) {
			t.Fatalf("session %s still running after 30s: %+v", id, res)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := startServer(t, Config{})
	var out HealthzResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &out); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if out.Status != "ok" {
		t.Fatalf("healthz body %+v", out)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := startServer(t, Config{})
	var created SessionInfo
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", CreateSessionRequest{
		Workload: "q2", Scale: 0.02,
		Query: `SELECT MERGE(clipID) AS Sequence FROM (PROCESS cam PRODUCE clipID,
		        obj USING ObjectDetector, act USING ActionRecognizer)
		        WHERE act = 'blowing_leaves' AND obj.include('car')`,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status %d: %+v", code, created)
	}
	if created.ID == "" || created.State != StateRunning || created.ClipsTotal <= 0 {
		t.Fatalf("create response %+v", created)
	}

	res := pollDone(t, ts.URL, created.ID)
	if res.State != StateDone {
		t.Fatalf("final state %q, want done", res.State)
	}
	if res.ClipsProcessed != created.ClipsTotal {
		t.Fatalf("clips processed %d, want %d", res.ClipsProcessed, created.ClipsTotal)
	}

	var info SessionInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if info.Invocations <= 0 {
		t.Errorf("invocations = %d, want > 0", info.Invocations)
	}
	if info.CriticalValues == nil || info.CriticalValues.Action <= 0 || len(info.CriticalValues.Objects) == 0 {
		t.Errorf("critical values missing: %+v", info.CriticalValues)
	}

	var list SessionList
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 1 || list.Sessions[0].ID != created.ID {
		t.Errorf("list = %+v", list)
	}

	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete = %d, want 404", code)
	}
}

// TestDisjunctiveSessionCriticalValues: every VQL plan runs on the one
// online engine, so a disjunctive session reports its per-object
// critical values like a conjunctive one; the action value is reported
// only when the plan has exactly one action predicate.
func TestDisjunctiveSessionCriticalValues(t *testing.T) {
	_, ts := startServer(t, Config{})
	status := func(where string) *CriticalValues {
		var created SessionInfo
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", CreateSessionRequest{
			Workload: "q2", Scale: 0.02,
			Query: `SELECT MERGE(clipID) FROM (PROCESS cam PRODUCE clipID, obj, act) WHERE ` + where,
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("%s: create status %d: %+v", where, code, created)
		}
		if res := pollDone(t, ts.URL, created.ID); res.State != StateDone {
			t.Fatalf("%s: final state %q, want done", where, res.State)
		}
		var info SessionInfo
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, &info); code != http.StatusOK {
			t.Fatalf("%s: status code %d", where, code)
		}
		if info.CriticalValues == nil {
			t.Fatalf("%s: critical values missing", where)
		}
		return info.CriticalValues
	}
	if cv := status(`act = 'blowing_leaves' OR obj.include('car')`); cv.Objects["car"] <= 0 || cv.Action <= 0 {
		t.Errorf("one-action disjunction: critical values %+v", cv)
	}
	if cv := status(`(act = 'blowing_leaves' OR act = 'drinking_beer') AND obj.include('car')`); cv.Objects["car"] <= 0 || cv.Action != 0 {
		t.Errorf("two-action disjunction: critical values %+v", cv)
	}
}

// buildRepo ingests two small synthetic videos into a repository. Both
// are ingested with the union of the q2 and q4 label sets so that
// cross-repository (merged) queries find every label in every video.
func buildRepo(t testing.TB) *vaq.Repository {
	t.Helper()
	return buildRepoIn(t, t.TempDir())
}

// buildRepoIn ingests the buildRepo videos into dir.
func buildRepoIn(t testing.TB, dir string) *vaq.Repository {
	t.Helper()
	repo, err := vaq.OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	objects := []vaq.Label{"car", "plant", "bottle", "chair"}
	actions := []vaq.Label{"blowing_leaves", "drinking_beer"}
	for _, id := range []string{"q2", "q4"} {
		qs, err := synth.YouTubeScaled(id, vaq.DefaultGeometry(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		scene := qs.World.Scene()
		det := detect.NewSimObjectDetector(scene, detect.IdealObject, nil)
		rec := detect.NewSimActionRecognizer(scene, detect.IdealAction, nil)
		vd, err := vaq.IngestVideo(det, rec, qs.World.Truth.Meta,
			objects, actions, vaq.IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Add(id, vd); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

// TestConcurrentSessionsAndTopK is the issue's acceptance scenario: at
// least 8 online sessions plus top-k traffic served concurrently, then
// /metricsz reporting non-zero tail latencies.
func TestConcurrentSessionsAndTopK(t *testing.T) {
	repo := buildRepo(t)
	_, ts := startServer(t, Config{Repo: repo, MaxSessions: 32, Workers: 4})

	workloads := []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10"}
	var wg sync.WaitGroup
	errs := make(chan error, len(workloads)+4)
	for _, wl := range workloads {
		wg.Add(1)
		go func(wl string) {
			defer wg.Done()
			var created SessionInfo
			code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
				CreateSessionRequest{Workload: wl, Scale: 0.02}, &created)
			if code != http.StatusCreated {
				errs <- fmt.Errorf("create %s: status %d", wl, code)
				return
			}
			res := pollDone(t, ts.URL, created.ID)
			if res.State != StateDone {
				errs <- fmt.Errorf("session %s (%s) ended %q", created.ID, wl, res.State)
			}
		}(wl)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := TopKRequest{Video: "q2", Action: "blowing_leaves", Objects: []string{"car"}, K: 3}
			if i%2 == 1 {
				// Alternate: global ranked VQL across the repository.
				req = TopKRequest{Query: `SELECT MERGE(clipID) AS Sequence, RANK(act, obj)
					FROM (PROCESS repo PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer)
					WHERE act = 'drinking_beer' AND obj.include('bottle')
					ORDER BY RANK(act, obj) LIMIT 2`}
			}
			var out TopKResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk", req, &out); code != http.StatusOK {
				errs <- fmt.Errorf("topk %d: status %d", i, code)
				return
			}
			if len(out.Results) == 0 {
				errs <- fmt.Errorf("topk %d: no results", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var m MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil, &m); code != http.StatusOK {
		t.Fatalf("metricsz status %d", code)
	}
	create := m.Routes["POST /v1/sessions"]
	if create.Count < int64(len(workloads)) {
		t.Errorf("create count = %d, want >= %d", create.Count, len(workloads))
	}
	if create.P50MS <= 0 || create.P99MS <= 0 {
		t.Errorf("create latency quantiles not populated: %+v", create)
	}
	results := m.Routes["GET /v1/sessions/{id}/results"]
	if results.Count == 0 || results.P50MS <= 0 || results.P99MS <= 0 {
		t.Errorf("results route metrics not populated: %+v", results)
	}
	topk := m.Routes["POST /v1/topk"]
	if topk.Count != 4 || topk.P99MS <= 0 {
		t.Errorf("topk route metrics not populated: %+v", topk)
	}
	if m.TotalSessions != len(workloads) {
		t.Errorf("total sessions = %d, want %d", m.TotalSessions, len(workloads))
	}
}

func TestLongPollReturnsPromptlyOnCancel(t *testing.T) {
	_, ts := startServer(t, Config{})
	var created SessionInfo
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", CreateSessionRequest{
		Workload: "q2", Scale: 0.02, PaceMS: 50, MaxClips: 100000,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}

	pollDoneCh := make(chan ResultsResponse, 1)
	go func() {
		var res ResultsResponse
		doJSON(t, http.MethodGet,
			fmt.Sprintf("%s/v1/sessions/%s/results?wait=30s&since=100000", ts.URL, created.ID), nil, &res)
		pollDoneCh <- res
	}()

	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	select {
	case res := <-pollDoneCh:
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("long poll took %v to notice cancellation", elapsed)
		}
		if res.State != StateCancelled {
			t.Errorf("long poll state %q, want cancelled", res.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never returned after cancellation")
	}
}

func TestCreateErrors(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []struct {
		name string
		req  any
		code int
		err  string
		pos  bool
	}{
		{"bad query syntax", CreateSessionRequest{Workload: "q2", Scale: 0.02,
			Query: `SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act = jumping`},
			http.StatusBadRequest, "invalid_query", true},
		{"ranked query online", CreateSessionRequest{Workload: "q2", Scale: 0.02,
			Query: `SELECT MERGE(clipID), RANK(act) FROM (PROCESS v PRODUCE clipID)
			        WHERE act = 'a' ORDER BY RANK(act) LIMIT 3`},
			http.StatusBadRequest, "ranked_query", false},
		{"unknown workload", CreateSessionRequest{Workload: "nope"},
			http.StatusBadRequest, "unknown_workload", false},
		{"unknown model", CreateSessionRequest{Workload: "q2", Scale: 0.02, Model: "resnet"},
			http.StatusBadRequest, "unknown_model", false},
		{"bad scale", CreateSessionRequest{Workload: "q2", Scale: -1},
			http.StatusBadRequest, "bad_scale", false},
		{"bad json", "not json at all", http.StatusBadRequest, "bad_json", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp ErrorResponse
			code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", c.req, &resp)
			if code != c.code {
				t.Fatalf("status %d, want %d (%+v)", code, c.code, resp)
			}
			if resp.Error.Code != c.err {
				t.Errorf("error code %q, want %q", resp.Error.Code, c.err)
			}
			if c.pos && resp.Error.Pos == nil {
				t.Errorf("400 for a malformed query carries no position: %+v", resp.Error)
			}
		})
	}
}

// TestUnknownJSONFieldsRejected: every request decoder rejects fields
// the wire contract does not define, so a misspelled option — or the
// removed flat degraded_discount — is a 400, not silently ignored.
func TestUnknownJSONFieldsRejected(t *testing.T) {
	_, ts := startServer(t, Config{Repo: buildRepo(t)})
	cases := []struct {
		name, path, body string
		code             int
	}{
		{"topk misspelled field", "/v1/topk", `{"action":"blowing_leaves","video":"q2","k":3,"hop_discount":[0.5]}`, http.StatusBadRequest},
		{"topk degraded_discount", "/v1/topk", `{"action":"blowing_leaves","video":"q2","k":3,"degraded_discount":0.5}`, http.StatusBadRequest},
		{"topk valid", "/v1/topk", `{"action":"blowing_leaves","video":"q2","k":3,"hop_discounts":[0.5]}`, http.StatusOK},
		{"session misspelled field", "/v1/sessions", `{"workload":"q2","scale":0.02,"max_clip":3}`, http.StatusBadRequest},
		{"session valid", "/v1/sessions", `{"workload":"q2","scale":0.02,"max_clips":3}`, http.StatusCreated},
		{"bound misspelled field", "/v1/shard/bound", `{"query":"b1","bnd":1}`, http.StatusBadRequest},
		{"bound valid", "/v1/shard/bound", `{"query":"b1","bound":1}`, http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp ErrorResponse
			code := doJSON(t, http.MethodPost, ts.URL+c.path, json.RawMessage(c.body), &resp)
			if code != c.code {
				t.Fatalf("status %d, want %d (%+v)", code, c.code, resp)
			}
			if c.code == http.StatusBadRequest && resp.Error.Code != "bad_json" {
				t.Errorf("error code %q, want bad_json", resp.Error.Code)
			}
		})
	}
}

func TestSessionLimit(t *testing.T) {
	_, ts := startServer(t, Config{MaxSessions: 2})
	ids := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		var created SessionInfo
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", CreateSessionRequest{
			Workload: "q2", Scale: 0.02, PaceMS: 50, MaxClips: 100000,
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids = append(ids, created.ID)
	}
	var resp ErrorResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateSessionRequest{Workload: "q2", Scale: 0.02}, &resp); code != http.StatusTooManyRequests {
		t.Fatalf("third create status %d, want 429", code)
	}
	// Cancelling one frees a slot.
	doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+ids[0], nil, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var created SessionInfo
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
			CreateSessionRequest{Workload: "q2", Scale: 0.02}, &created); code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after cancellation")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTopKWithoutRepository(t *testing.T) {
	_, ts := startServer(t, Config{})
	var resp ErrorResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
		TopKRequest{Action: "smoking", K: 3}, &resp)
	if code != http.StatusServiceUnavailable || resp.Error.Code != "no_repository" {
		t.Fatalf("status %d, error %+v", code, resp.Error)
	}
}

func TestTopKUnknownVideo(t *testing.T) {
	_, ts := startServer(t, Config{Repo: buildRepo(t)})
	var resp ErrorResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
		TopKRequest{Video: "nope", Action: "blowing_leaves", K: 3}, &resp)
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%+v)", code, resp.Error)
	}
}

func TestTopKUnknownLabel(t *testing.T) {
	_, ts := startServer(t, Config{Repo: buildRepo(t)})
	// "smoking" is a valid label never ingested into the test repository:
	// a client error (400), not a server failure, on both topk paths.
	for _, video := range []string{"q2", ""} {
		var resp ErrorResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
			TopKRequest{Video: video, Action: "smoking", Objects: []string{"car"}, K: 3}, &resp)
		if code != http.StatusBadRequest || resp.Error.Code != "unknown_label" {
			t.Errorf("video %q: status %d, error %+v; want 400 unknown_label", video, code, resp.Error)
		}
	}
}

// TestTopKTableReadFailure: a table file that breaks after the
// repository opened is a server fault, not a client error, so both
// routes answer 500 topk_failed — the pinned one must not call it an
// unknown video.
func TestTopKTableReadFailure(t *testing.T) {
	dir := t.TempDir()
	buildRepoIn(t, dir)
	repo, err := vaq.OpenRepository(dir) // file-backed tables
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "q2", "act_blowing_leaves.tbl"), 0); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{Repo: repo})
	for _, video := range []string{"q2", ""} {
		var resp ErrorResponse
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
			TopKRequest{Video: video, Action: "blowing_leaves", Objects: []string{"car"}, K: 3}, &resp)
		if code != http.StatusInternalServerError || resp.Error.Code != "topk_failed" {
			t.Errorf("video %q: status %d, error %+v; want 500 topk_failed", video, code, resp.Error)
		}
	}
}

func TestShutdownRejectsAndDrains(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var created SessionInfo
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", CreateSessionRequest{
		Workload: "q2", Scale: 0.02, PaceMS: 20, MaxClips: 100000,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}

	// Short deadline: the paced session cannot finish, so Shutdown must
	// cancel it and still return with every goroutine gone.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown error %v, want deadline exceeded (drain cut short)", err)
	}
	assertNoSessionGoroutines(t)

	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateSessionRequest{Workload: "q2", Scale: 0.02}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown status %d, want 503", code)
	}
}
