package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"vaq/internal/api"
	"vaq/internal/fault"
	"vaq/internal/resilience"
)

// chaosPolicy keeps the retry/breaker machinery fully armed but fast
// enough for tests: microsecond backoffs instead of milliseconds.
func chaosPolicy() *resilience.Policy {
	return &resilience.Policy{
		Deadline:        50 * time.Millisecond,
		MaxRetries:      2,
		BaseBackoff:     50 * time.Microsecond,
		MaxBackoff:      500 * time.Microsecond,
		Seed:            7,
		BreakerFailures: 4,
		BreakerCooldown: 5 * time.Millisecond,
	}
}

// TestChaosConcurrentSessionsAndTopK is the -race chaos test: N
// concurrent sessions and M top-k queries run through a stacked
// error+latency fault schedule. Every session must reach a terminal
// state (nothing wedges), results must be flagged degraded exactly when
// the fallback fired, the breaker must end closed once the fault burst
// is past, and shutdown must leave no session goroutine behind (the
// startServer cleanup asserts that).
func TestChaosConcurrentSessionsAndTopK(t *testing.T) {
	sched, err := fault.Parse(42, "error:0-60:0.9,error:0-:0.05,latency:0-200:0.3:200us")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{
		Repo:          buildRepo(t),
		Workers:       4,
		FaultSchedule: sched,
		Resilience:    chaosPolicy(),
	})

	const nSessions, nTopK = 4, 4
	ids := make([]string, nSessions)
	for i := range ids {
		var info SessionInfo
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
			CreateSessionRequest{Workload: "q2", Scale: 0.1}, &info)
		if code != http.StatusCreated {
			t.Fatalf("create session %d: status %d", i, code)
		}
		ids[i] = info.ID
	}
	var wg sync.WaitGroup
	for i := 0; i < nTopK; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp TopKResponse
			code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
				TopKRequest{Action: "blowing_leaves", Objects: []string{"car"}, K: 3}, &resp)
			if code != http.StatusOK {
				t.Errorf("topk under faults: status %d", code)
			}
		}()
	}
	results := make([]ResultsResponse, nSessions)
	for i, id := range ids {
		results[i] = pollDone(t, ts.URL, id)
		if results[i].State != StateDone {
			t.Fatalf("session %s ended %q, want %q", id, results[i].State, StateDone)
		}
	}
	wg.Wait()

	// Degraded is flagged exactly when the fallback fired, and with a
	// 90% error burst over three attempts some units must have fallen
	// back in every session (same schedule, same workload).
	for _, id := range ids {
		var info SessionInfo
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil, &info); code != http.StatusOK {
			t.Fatalf("status %s: %d", id, code)
		}
		if info.Degraded != (info.Fallbacks > 0) {
			t.Errorf("session %s: Degraded=%v but Fallbacks=%d", id, info.Degraded, info.Fallbacks)
		}
		if info.Fallbacks == 0 {
			t.Errorf("session %s saw no fallbacks under a 90%% error burst", id)
		}
		if info.DegradedUnits == 0 {
			t.Errorf("session %s flagged degraded but reports no degraded units", id)
		}
	}
	for i := 1; i < nSessions; i++ {
		if !results[i].Degraded {
			t.Errorf("session %s results not flagged degraded", ids[i])
		}
	}

	// The fault burst is confined to early units; once past it the
	// breaker must have closed again, and the aggregate counters must
	// reflect the injected faults.
	var mz MetricsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil, &mz); code != http.StatusOK {
		t.Fatalf("metricsz: status %d", code)
	}
	if mz.Resilience == nil {
		t.Fatal("metricsz has no resilience aggregate")
	}
	if mz.Resilience.Retries == 0 || mz.Resilience.Errors == 0 || mz.Resilience.Fallbacks == 0 {
		t.Errorf("resilience aggregate missing activity: %+v", *mz.Resilience)
	}
	if got := mz.Resilience.BreakerState; got != resilience.StateClosed.String() {
		t.Errorf("breaker state %q after the fault burst, want closed", got)
	}
}

// TestChaosDeterministicSessions: with a policy whose every decision is
// a pure hash of its coordinates — no per-attempt deadline that real
// time can trip, no breaker whose cooldown expiry depends on the wall
// clock — concurrent sessions over the same fault schedule, seed and
// workload must compute byte-identical degraded results regardless of
// scheduling. (The breaker/deadline variants above are deliberately
// *not* deterministic across sessions: which calls an open circuit
// sheds depends on when its cooldown elapses.)
func TestChaosDeterministicSessions(t *testing.T) {
	sched, err := fault.Parse(42, "error:0-60:0.9,error:0-:0.05")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Config{
		Workers:       4,
		FaultSchedule: sched,
		Resilience:    &resilience.Policy{MaxRetries: 2, Seed: 7},
	})

	const nSessions = 3
	ids := make([]string, nSessions)
	for i := range ids {
		var info SessionInfo
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
			CreateSessionRequest{Workload: "q2", Scale: 0.1}, &info)
		if code != http.StatusCreated {
			t.Fatalf("create session %d: status %d", i, code)
		}
		ids[i] = info.ID
	}
	results := make([]ResultsResponse, nSessions)
	for i, id := range ids {
		results[i] = pollDone(t, ts.URL, id)
		if results[i].State != StateDone {
			t.Fatalf("session %s ended %q, want %q", id, results[i].State, StateDone)
		}
	}
	for i := 1; i < nSessions; i++ {
		if !reflect.DeepEqual(results[i].Sequences, results[0].Sequences) {
			t.Errorf("session %s sequences diverge from %s under identical faults:\n%v\nvs\n%v",
				ids[i], ids[0], results[i].Sequences, results[0].Sequences)
		}
		if results[i].Degraded != results[0].Degraded ||
			results[i].DegradedUnits != results[0].DegradedUnits {
			t.Errorf("session %s degradation (%v, %d units) diverges from %s (%v, %d units)",
				ids[i], results[i].Degraded, results[i].DegradedUnits,
				ids[0], results[0].Degraded, results[0].DegradedUnits)
		}
	}
	if !results[0].Degraded || results[0].DegradedUnits == 0 {
		t.Errorf("no degradation under a 90%% error burst: %+v", results[0])
	}
}

// TestTopKDeadline504AndPartial: an expired server deadline on /v1/topk
// is a 504 with code "deadline" (not the old blanket 499), unless the
// request opted into Partial — then it is a 200 flagged Incomplete.
func TestTopKDeadline504AndPartial(t *testing.T) {
	_, ts := startServer(t, Config{Repo: buildRepo(t), RequestTimeout: time.Nanosecond})

	var errResp api.ErrorResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
		TopKRequest{Action: "blowing_leaves", K: 3}, &errResp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline topk: status %d, want 504", code)
	}
	if errResp.Error.Code != "deadline" {
		t.Fatalf("deadline topk: code %q, want \"deadline\"", errResp.Error.Code)
	}

	var resp TopKResponse
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
		TopKRequest{Action: "blowing_leaves", K: 3, Partial: true}, &resp)
	if code != http.StatusOK {
		t.Fatalf("partial topk: status %d, want 200", code)
	}
	if !resp.Incomplete {
		t.Fatal("partial topk under an expired deadline not flagged incomplete")
	}

	// The per-video path maps the deadline the same way.
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/topk",
		TopKRequest{Video: "q2", Action: "blowing_leaves", K: 3}, &errResp)
	if code != http.StatusGatewayTimeout || errResp.Error.Code != "deadline" {
		t.Fatalf("deadline per-video topk: status %d code %q, want 504/deadline", code, errResp.Error.Code)
	}
}

// slowSession creates a session that stays running without processing
// clips for a while (pacing far beyond the test's horizon).
func slowSession(t *testing.T, base string) string {
	t.Helper()
	var info SessionInfo
	code := doJSON(t, http.MethodPost, base+"/v1/sessions",
		CreateSessionRequest{Workload: "q2", Scale: 0.1, PaceMS: 60000, MaxClips: 2}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create slow session: status %d", code)
	}
	return info.ID
}

// TestResultsLongPollDeadline504: when the server's own request timeout
// cuts a long-poll short, the client gets a 504 with code "deadline" —
// the wait was truncated server-side, not satisfied.
func TestResultsLongPollDeadline504(t *testing.T) {
	_, ts := startServer(t, Config{RequestTimeout: 100 * time.Millisecond})
	id := slowSession(t, ts.URL)
	var errResp api.ErrorResponse
	code := doJSON(t, http.MethodGet,
		fmt.Sprintf("%s/v1/sessions/%s/results?wait=5s&since=0", ts.URL, id), nil, &errResp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("long-poll past the request timeout: status %d, want 504", code)
	}
	if errResp.Error.Code != "deadline" {
		t.Fatalf("long-poll 504 code %q, want \"deadline\"", errResp.Error.Code)
	}
}

// TestResultsClientCancel499: a client that disconnects mid-poll is
// recorded as a 499 on the results route, distinct from the 504 above.
func TestResultsClientCancel499(t *testing.T) {
	_, ts := startServer(t, Config{})
	id := slowSession(t, ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/sessions/%s/results?wait=5s&since=0", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("poll returned before the client context fired")
	}

	route := "GET /v1/sessions/{id}/results"
	deadline := time.Now().Add(2 * time.Second)
	for {
		var mz MetricsResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil, &mz); code != http.StatusOK {
			t.Fatalf("metricsz: status %d", code)
		}
		if mz.Routes[route].Status499 >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 499 recorded for %s: %+v", route, mz.Routes[route])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
