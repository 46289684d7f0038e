package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"vaq"
	"vaq/internal/api"
	"vaq/internal/detect"
	"vaq/internal/synth"
)

// ops counts operations attempted and failed across a run. A non-2xx,
// a transport error or an oracle mismatch is one failed operation, and
// its latency is dropped (a failure misses every latency).
type ops struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErrs []string
}

func (o *ops) ok() {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
}

func (o *ops) fail(err error) {
	o.mu.Lock()
	o.attempted++
	o.failed++
	if len(o.firstErrs) < 5 {
		o.firstErrs = append(o.firstErrs, err.Error())
	}
	o.mu.Unlock()
}

// doJSON sends one request and decodes a 2xx reply into out; the
// returned duration runs from send to last body byte.
func doJSON(method, url string, body []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return dur, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return dur, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return dur, fmt.Errorf("%s %s: bad JSON: %w", method, url, err)
		}
	}
	return dur, nil
}

// sessionSpec names one online session: a synthetic workload at a scale.
type sessionSpec struct {
	workload string
	scale    float64
}

// sessionOracle caches the reference result of each (workload, scale):
// a direct vaq.Stream.Run over the raw simulated models, configured as
// the server configures a session's stream.
type sessionOracle struct {
	mu   sync.Mutex
	want map[sessionSpec][]api.Range
}

// prepare computes the reference results of specs ahead of a measured
// phase, so no oracle run competes with the traffic it checks.
func (o *sessionOracle) prepare(specs ...sessionSpec) error {
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = o.expect(s)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (o *sessionOracle) expect(s sessionSpec) ([]api.Range, error) {
	o.mu.Lock()
	r, ok := o.want[s]
	o.mu.Unlock()
	if ok {
		return r, nil
	}
	st, clips, err := directStream(s, nil, nil, false, 0)
	if err != nil {
		return nil, err
	}
	seqs, err := st.Run(clips)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.want == nil {
		o.want = map[sessionSpec][]api.Range{}
	}
	o.want[s] = api.Ranges(seqs)
	return o.want[s], nil
}

// soloSpecs are the sessions of one online_solo round.
func soloSpecs(scale float64) []sessionSpec {
	var out []sessionSpec
	for _, id := range synth.YouTubeIDs() {
		out = append(out, sessionSpec{id, scale})
	}
	return out
}

// directStream builds the bare engine for a session spec: raw sims
// (behind the detect shims when busy counters are given), no serving
// layer, the stream configuration handleCreateSession uses — plus the
// planner at planRate when that is not 0.
func directStream(s sessionSpec, objB, actB *busy, timed bool, planRate int) (*vaq.Stream, int, error) {
	qs, err := synth.YouTubeScaled(s.workload, vaq.DefaultGeometry(), s.scale)
	if err != nil {
		return nil, 0, err
	}
	scene := qs.World.Scene()
	var det vaq.ObjectDetector = detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
	var rec vaq.ActionRecognizer = detect.NewSimActionRecognizer(scene, detect.I3D, nil)
	if objB != nil {
		det = &detShim{inner: det, b: objB, timed: timed}
		rec = &recShim{inner: rec, b: actB, timed: timed}
	}
	meta := qs.World.Truth.Meta
	st, err := vaq.NewStreamQuery(qs.Query, det, rec, meta.Geom, vaq.StreamConfig{
		Dynamic: true, HorizonClips: meta.Clips(), Plan: vaq.PlanConfig{Rate: planRate},
	})
	return st, meta.Clips(), err
}

// sessionResult is what one completed session contributes.
type sessionResult struct {
	clips       int
	invocations int
	createMS    float64
}

// runSession plays one session owner: POST the session, long-poll its
// results until it leaves the running state, verify the final
// sequences against the oracle, DELETE it. One operation.
func runSession(base string, s sessionSpec, oracle *sessionOracle, rec *recorder) (sessionResult, error) {
	var res sessionResult
	want, err := oracle.expect(s)
	if err != nil {
		return res, err
	}
	root := rec.root("request.session")
	defer root.end()

	body, _ := json.Marshal(api.CreateSessionRequest{Workload: s.workload, Scale: s.scale})
	var info api.SessionInfo
	sp := root.child("server.http_session_create")
	dur, err := doJSON(http.MethodPost, base+"/v1/sessions", body, &info)
	sp.end()
	if err != nil {
		return res, err
	}
	res.createMS = float64(dur) / float64(time.Millisecond)

	// since=<total> can only be satisfied by the session leaving the
	// running state, so one long-poll normally spans the whole session.
	var final api.ResultsResponse
	for {
		sp := root.child("server.http_results")
		_, err := doJSON(http.MethodGet, fmt.Sprintf("%s/v1/sessions/%s/results?wait=60s&since=%d", base, info.ID, info.ClipsTotal), nil, &final)
		sp.end()
		if err != nil {
			return res, err
		}
		if final.State != "running" {
			break
		}
	}
	sp = root.child("server.http_delete")
	_, err = doJSON(http.MethodDelete, base+"/v1/sessions/"+info.ID, nil, &info)
	sp.end()
	if err != nil {
		return res, err
	}
	if final.State != "done" {
		return res, fmt.Errorf("session %s (%s) ended %q: %s", info.ID, s.workload, final.State, info.Error)
	}
	if !slices.Equal(final.Sequences, want) {
		return res, fmt.Errorf("session %s (%s@%v): sequences differ from the direct run: got %d, want %d", info.ID, s.workload, s.scale, len(final.Sequences), len(want))
	}
	res.clips, res.invocations = info.ClipsProcessed, info.Invocations
	root.set("clips", int64(res.clips))
	return res, nil
}

// onlineStats is one online phase's outcome.
type onlineStats struct {
	clips       int
	invocations int // engine-side (session status) invocations
	wallS       float64
	createMS    []float64
	rounds      int
}

func (s onlineStats) clipsPerS() float64 { return float64(s.clips) / s.wallS }

// soloPhase has C users drain seed-shuffled rounds of q1..q12 (each
// once per round, whole rounds only, so the mix of queries — and with
// it invocations_per_clip — does not depend on how many rounds fit).
// A new round is appended while the budget has more than half a round
// left; clients pull sessions from the shared list without a barrier
// between rounds.
func soloPhase(base string, scale float64, budget time.Duration, clients int, seed int64, oracle *sessionOracle, o *ops, rec *recorder) onlineStats {
	specs := soloSpecs(scale)
	if err := oracle.prepare(specs...); err != nil { // before the clock starts
		o.fail(err)
		return onlineStats{}
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, "solo-order", 0)))
	runtime.GC()
	var (
		mu      sync.Mutex
		queue   []sessionSpec
		st      onlineStats
		start   = time.Now()
		lastEnd = start
	)
	next := func() (sessionSpec, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			elapsed := time.Since(start)
			if st.rounds > 0 && elapsed+elapsed/time.Duration(2*st.rounds) > budget {
				return sessionSpec{}, false
			}
			for _, i := range rng.Perm(len(specs)) {
				queue = append(queue, specs[i])
			}
			st.rounds++
		}
		s := queue[0]
		queue = queue[1:]
		return s, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, ok := next()
				if !ok {
					return
				}
				r, err := runSession(base, s, oracle, rec)
				if err != nil {
					o.fail(err)
					continue
				}
				o.ok()
				mu.Lock()
				st.clips += r.clips
				st.invocations += r.invocations
				st.createMS = append(st.createMS, r.createMS)
				if now := time.Now(); now.After(lastEnd) {
					lastEnd = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wallS = lastEnd.Sub(start).Seconds()
	return st
}

// sharedPhase runs rounds of n concurrent sessions on one video: all of
// them want the same units, so dedup, cache hits and — the video's
// units outnumbering the cache — eviction and admission carry the load.
func sharedPhase(base string, spec sessionSpec, n int, budget time.Duration, oracle *sessionOracle, o *ops, rec *recorder) onlineStats {
	var st onlineStats
	if err := oracle.prepare(spec); err != nil { // before the clock starts
		o.fail(err)
		return st
	}
	runtime.GC()
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if st.rounds > 0 && elapsed+elapsed/time.Duration(2*st.rounds) > budget {
			break
		}
		st.rounds++
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := runSession(base, spec, oracle, rec)
				if err != nil {
					o.fail(err)
					return
				}
				o.ok()
				mu.Lock()
				st.clips += r.clips
				st.invocations += r.invocations
				st.createMS = append(st.createMS, r.createMS)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	st.wallS = time.Since(start).Seconds()
	return st
}

// inferenceStats reads the shared-inference block of /metricsz.
func inferenceStats(base string) (vaq.InferenceStats, error) {
	var m struct {
		Inference *vaq.InferenceStats `json:"inference"`
	}
	if _, err := doJSON(http.MethodGet, base+"/metricsz", nil, &m); err != nil {
		return vaq.InferenceStats{}, err
	}
	if m.Inference == nil {
		return vaq.InferenceStats{}, nil
	}
	return *m.Inference, nil
}
