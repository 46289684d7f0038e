package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vaq"
	"vaq/internal/api"
	"vaq/internal/detect"
	"vaq/internal/explain"
	"vaq/internal/server"
	"vaq/internal/shard"
	"vaq/internal/synth"
	"vaq/internal/trace"
)

// ---- shared corpus ----

// The corpus is built once: n distinct synthetic videos that all carry
// the q2 labels (blowing_leaves; car, plant), so one query has
// candidates in every video and therefore on every shard.
var (
	corpusOnce sync.Once
	corpusVids map[string]*vaq.VideoData
	corpusQ    vaq.Query
	corpusErr  error
)

const corpusN = 6

func corpus(t testing.TB) (map[string]*vaq.VideoData, vaq.Query) {
	t.Helper()
	corpusOnce.Do(func() {
		spec, q, err := synth.YouTubeSpec("q2", vaq.DefaultGeometry())
		if err != nil {
			corpusErr = err
			return
		}
		spec = spec.Scaled(0.06)
		corpusQ = q
		corpusVids = map[string]*vaq.VideoData{}
		for i := 0; i < corpusN; i++ {
			s := spec
			s.Name = fmt.Sprintf("v%02d", i)
			s.Seed = spec.Seed + int64(1+97*i)
			w, err := synth.Generate(s)
			if err != nil {
				corpusErr = err
				return
			}
			scene := w.Scene()
			det := detect.NewSimObjectDetector(scene, detect.MaskRCNN, nil)
			rec := detect.NewSimActionRecognizer(scene, detect.I3D, nil)
			vd, err := vaq.IngestVideo(det, rec, w.Truth.Meta, w.Truth.ObjectLabels(), w.Truth.ActionLabels(), vaq.IngestConfig{})
			if err != nil {
				corpusErr = err
				return
			}
			corpusVids[s.Name] = vd
		}
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusVids, corpusQ
}

func repoWith(t testing.TB, vids map[string]*vaq.VideoData, names []string) *vaq.Repository {
	t.Helper()
	repo, err := vaq.OpenRepository(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := repo.Add(n, vids[n]); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

func topKReq(q vaq.Query, k int) api.TopKRequest {
	req := api.TopKRequest{Action: string(q.Action), K: k}
	for _, o := range q.Objects {
		req.Objects = append(req.Objects, string(o))
	}
	return req
}

// ---- cluster harness ----

type cluster struct {
	co     *shard.Coordinator
	coTS   *httptest.Server
	shards []*httptest.Server // index-aligned with shard names s0..s{n-1}
	union  *httptest.Server
	tracer *trace.Tracer
}

// startShardServer runs one vaqd-equivalent over repo with cleanup.
func startShardServer(t *testing.T, repo *vaq.Repository) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Repo: repo})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		for _, info := range srv.Registry().List() {
			srv.Registry().Delete(info.ID)
		}
		_ = srv.Shutdown(t.Context())
	})
	return ts
}

// startCluster partitions the corpus across nShards real server.Server
// instances by the coordinator's own ring and fronts them with a
// coordinator, plus a single-process union server over the full corpus
// as the reference.
func startCluster(t *testing.T, nShards int, mod func(*shard.Config)) *cluster {
	t.Helper()
	vids, _ := corpus(t)
	all := make([]string, 0, len(vids))
	for n := range vids {
		all = append(all, n)
	}
	sort.Strings(all)

	shardNames := make([]string, nShards)
	for i := range shardNames {
		shardNames[i] = fmt.Sprintf("s%d", i)
	}
	ring, err := shard.NewRing(shardNames, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := ring.Partition(all)

	c := &cluster{tracer: trace.New()}
	backends := make([]shard.Backend, nShards)
	for i, name := range shardNames {
		ts := startShardServer(t, repoWith(t, vids, parts[name]))
		c.shards = append(c.shards, ts)
		backends[i] = shard.Backend{Name: name, Addr: ts.URL}
	}
	c.union = startShardServer(t, repoWith(t, vids, all))

	cfg := shard.Config{Backends: backends, Tracer: c.tracer}
	if mod != nil {
		mod(&cfg)
	}
	co, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.co = co
	c.coTS = httptest.NewServer(co.Handler())
	t.Cleanup(c.coTS.Close)
	return c
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

// resultsJSON canonicalizes a ranking for byte comparison (runtimes
// vary run to run; the Results array must not).
func resultsJSON(t *testing.T, rs []api.TopKEntry) string {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// ---- scatter ----

// TestScatterMatchesUnion: the merged scatter ranking is byte-identical
// to the same query against a single process holding every video, for
// several k.
func TestScatterMatchesUnion(t *testing.T) {
	c := startCluster(t, 3, nil)
	_, q := corpus(t)
	for _, k := range []int{1, 4, 9} {
		var got, want api.TopKResponse
		if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", topKReq(q, k), &got); code != http.StatusOK {
			t.Fatalf("k=%d: coordinator status %d", k, code)
		}
		if code := doJSON(t, http.MethodPost, c.union.URL+"/v1/topk", topKReq(q, k), &want); code != http.StatusOK {
			t.Fatalf("k=%d: union status %d", k, code)
		}
		if len(want.Results) == 0 {
			t.Fatalf("k=%d: union returned no results", k)
		}
		if g, w := resultsJSON(t, got.Results), resultsJSON(t, want.Results); g != w {
			t.Fatalf("k=%d: scatter ranking diverged\n got %s\nwant %s", k, g, w)
		}
		if got.Candidates != want.Candidates {
			t.Errorf("k=%d: scatter candidates %d, union %d", k, got.Candidates, want.Candidates)
		}
		if got.Incomplete {
			t.Errorf("k=%d: scatter incomplete with all shards healthy", k)
		}
	}
	if n := c.tracer.Counter("shard.scatters").Value(); n != 3 {
		t.Errorf("shard.scatters = %d, want 3", n)
	}
}

// TestScatterBroadcastDeterminism is the metamorphic check: the bound
// broadcast is a pure work-saving channel, so aggressive broadcasting
// and no broadcasting must produce byte-identical rankings, repeatedly.
func TestScatterBroadcastDeterminism(t *testing.T) {
	quiet := startCluster(t, 3, nil)
	chatty := startCluster(t, 3, func(cfg *shard.Config) {
		cfg.BroadcastEvery = time.Millisecond
	})
	_, q := corpus(t)
	var ref string
	for i := 0; i < 3; i++ {
		for name, c := range map[string]*cluster{"no-broadcast": quiet, "broadcast-1ms": chatty} {
			var resp api.TopKResponse
			if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", topKReq(q, 5), &resp); code != http.StatusOK {
				t.Fatalf("%s run %d: status %d", name, i, code)
			}
			got := resultsJSON(t, resp.Results)
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Fatalf("%s run %d: ranking diverged\n got %s\nwant %s", name, i, got, ref)
			}
		}
	}
}

// TestSlowBoundPushDoesNotHoldScatter: a shard whose bound endpoint
// stalls must not hold a scatter whose legs have all answered. Each
// leg trades bounds on its own wire, and its exchange ends, the push in
// flight cancelled, when the leg returns.
func TestSlowBoundPushDoesNotHoldScatter(t *testing.T) {
	const stall = time.Second
	vids, q := corpus(t)
	all := make([]string, 0, len(vids))
	for n := range vids {
		all = append(all, n)
	}
	sort.Strings(all)
	names := []string{"s0", "s1"}
	ring, err := shard.NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := ring.Partition(all)
	backends := make([]shard.Backend, len(names))
	for i, name := range names {
		srv := server.New(server.Config{Repo: repoWith(t, vids, parts[name])})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/shard/bound":
				select {
				case <-time.After(stall):
				case <-r.Context().Done():
				}
				return
			case "/v1/topk":
				// Keep the legs in flight past the first bound push.
				time.Sleep(50 * time.Millisecond)
			}
			srv.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			_ = srv.Shutdown(t.Context())
		})
		backends[i] = shard.Backend{Name: name, Addr: ts.URL}
	}
	co, err := shard.New(shard.Config{Backends: backends, BroadcastEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	coTS := httptest.NewServer(co.Handler())
	defer coTS.Close()

	start := time.Now()
	var resp api.TopKResponse
	if code := doJSON(t, http.MethodPost, coTS.URL+"/v1/topk", topKReq(q, 5), &resp); code != http.StatusOK {
		t.Fatalf("scatter: status %d", code)
	}
	if took := time.Since(start); took > stall/2 {
		t.Fatalf("scatter took %v: a stalled bound push (%v) held it after its legs answered", took, stall)
	}
	if len(resp.Results) == 0 {
		t.Fatal("scatter returned no results")
	}
}

// TestScatterShardDownPartial: with a shard dead, partial=false fails
// loudly and partial=true returns the survivors' merged ranking flagged
// Incomplete — deterministically.
func TestScatterShardDownPartial(t *testing.T) {
	c := startCluster(t, 3, nil)
	_, q := corpus(t)
	c.shards[1].CloseClientConnections()
	c.shards[1].Close()

	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", topKReq(q, 5), &errResp); code != http.StatusBadGateway {
		t.Fatalf("strict scatter with dead shard: status %d, want 502", code)
	}
	if errResp.Error.Code != "shard_failed" {
		t.Fatalf("strict scatter error %+v, want shard_failed", errResp.Error)
	}

	req := topKReq(q, 5)
	req.Partial = true
	var first api.TopKResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", req, &first); code != http.StatusOK {
		t.Fatalf("partial scatter: status %d", code)
	}
	if !first.Incomplete {
		t.Fatal("partial scatter with dead shard: incomplete not set")
	}
	if len(first.Results) == 0 {
		t.Fatal("partial scatter: no survivor results")
	}
	var second api.TopKResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", req, &second); code != http.StatusOK {
		t.Fatalf("partial scatter (repeat): status %d", code)
	}
	if a, b := resultsJSON(t, first.Results), resultsJSON(t, second.Results); a != b {
		t.Fatalf("partial results not deterministic:\n%s\n%s", a, b)
	}
	if n := c.tracer.Counter("shard.partials").Value(); n < 2 {
		t.Errorf("shard.partials = %d, want >= 2", n)
	}
}

// TestScatterEmptyShard: a shard owning no videos answers unknown_label
// and merges as a no-contribution; only when every shard does is the
// query itself a 400.
func TestScatterEmptyShard(t *testing.T) {
	vids, q := corpus(t)
	all := make([]string, 0, len(vids))
	for n := range vids {
		all = append(all, n)
	}
	sort.Strings(all)

	full := startShardServer(t, repoWith(t, vids, all))
	empty := startShardServer(t, repoWith(t, vids, nil))
	union := startShardServer(t, repoWith(t, vids, all))

	co, err := shard.New(shard.Config{Backends: []shard.Backend{
		{Name: "s0", Addr: full.URL},
		{Name: "s1", Addr: empty.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	coTS := httptest.NewServer(co.Handler())
	defer coTS.Close()

	var got, want api.TopKResponse
	if code := doJSON(t, http.MethodPost, coTS.URL+"/v1/topk", topKReq(q, 5), &got); code != http.StatusOK {
		t.Fatalf("scatter with empty shard: status %d", code)
	}
	if got.Incomplete {
		t.Error("empty shard must not mark the merge incomplete")
	}
	if code := doJSON(t, http.MethodPost, union.URL+"/v1/topk", topKReq(q, 5), &want); code != http.StatusOK {
		t.Fatalf("union: status %d", code)
	}
	if g, w := resultsJSON(t, got.Results), resultsJSON(t, want.Results); g != w {
		t.Fatalf("ranking with empty shard diverged\n got %s\nwant %s", g, w)
	}

	// Both shards empty: the label genuinely is nowhere.
	co2, err := shard.New(shard.Config{Backends: []shard.Backend{
		{Name: "s0", Addr: empty.URL},
		{Name: "s1", Addr: empty.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	co2TS := httptest.NewServer(co2.Handler())
	defer co2TS.Close()
	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodPost, co2TS.URL+"/v1/topk", topKReq(q, 5), &errResp); code != http.StatusBadRequest {
		t.Fatalf("all-empty scatter: status %d, want 400", code)
	}
	if errResp.Error.Code != "unknown_label" {
		t.Fatalf("all-empty scatter error %+v, want unknown_label", errResp.Error)
	}
}

// TestScatterRejectsClientBoundQuery: the exchange id is coordinator
// minted; clients must not join someone else's exchange.
func TestScatterRejectsClientBoundQuery(t *testing.T) {
	c := startCluster(t, 2, nil)
	_, q := corpus(t)
	req := topKReq(q, 3)
	req.BoundQuery = "hijack"
	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", req, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bound_query from client: status %d, want 400", code)
	}
}

// TestScatterInvalidQuery: a malformed VQL statement dies at the
// coordinator without burning a scatter on every shard.
func TestScatterInvalidQuery(t *testing.T) {
	c := startCluster(t, 2, nil)
	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk",
		api.TopKRequest{Query: "SELECT nonsense FROM"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("invalid query: status %d, want 400", code)
	}
	if errResp.Error.Code != "invalid_query" {
		t.Fatalf("invalid query error %+v", errResp.Error)
	}
}

// TestScatterRelaysShardRejection: a request every shard rejects with
// a 4xx of its own (here an out-of-range hop discount, which only the
// shards validate) comes back with the shard's status and error body.
func TestScatterRelaysShardRejection(t *testing.T) {
	c := startCluster(t, 2, nil)
	_, q := corpus(t)
	req := topKReq(q, 3)
	req.HopDiscounts = []float64{2}
	var got, want api.ErrorResponse
	code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", req, &got)
	if wantCode := doJSON(t, http.MethodPost, c.union.URL+"/v1/topk", req, &want); code != wantCode || wantCode != http.StatusBadRequest {
		t.Fatalf("coordinator status %d, shard status %d; want both 400", code, wantCode)
	}
	if got.Error.Code != "bad_discount" || got != want {
		t.Fatalf("relayed error %+v, want the shard's %+v", got.Error, want.Error)
	}
}

// TestUnknownJSONFieldsRejected: the coordinator's request decoders
// reject fields the wire contract does not define, as a shard's do, so
// a misspelled option — or the removed flat degraded_discount — is a
// 400 before any scatter.
func TestUnknownJSONFieldsRejected(t *testing.T) {
	c := startCluster(t, 2, nil)
	_, q := corpus(t)
	topk, err := json.Marshal(topKReq(q, 3))
	if err != nil {
		t.Fatal(err)
	}
	session := []byte(`{"workload":"q2","scale":0.02,"max_clips":3}`)
	withField := func(body []byte, field string) json.RawMessage {
		return json.RawMessage(strings.TrimSuffix(string(body), "}") + "," + field + "}")
	}
	cases := []struct {
		name, path string
		body       json.RawMessage
		code       int
	}{
		{"topk misspelled field", "/v1/topk", withField(topk, `"hop_discount":[0.5]`), http.StatusBadRequest},
		{"topk degraded_discount", "/v1/topk", withField(topk, `"degraded_discount":0.5`), http.StatusBadRequest},
		{"topk valid", "/v1/topk", withField(topk, `"hop_discounts":[0.5]`), http.StatusOK},
		{"session misspelled field", "/v1/sessions", withField(session, `"max_clip":3`), http.StatusBadRequest},
		{"session valid", "/v1/sessions", session, http.StatusCreated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp api.ErrorResponse
			code := doJSON(t, http.MethodPost, c.coTS.URL+tc.path, tc.body, &resp)
			if code != tc.code {
				t.Fatalf("status %d, want %d (%+v)", code, tc.code, resp)
			}
			if tc.code == http.StatusBadRequest && resp.Error.Code != "bad_json" {
				t.Errorf("error code %q, want bad_json", resp.Error.Code)
			}
		})
	}
	if n := c.tracer.Counter("shard.scatters").Value(); n != 1 {
		t.Errorf("shard.scatters = %d, want 1 (rejected bodies must not scatter)", n)
	}
}

// TestVideoRoutedTopK: a video-pinned query proxies to the ring owner
// and matches the single-process answer for that video.
func TestVideoRoutedTopK(t *testing.T) {
	c := startCluster(t, 3, nil)
	_, q := corpus(t)
	req := topKReq(q, 3)
	req.Video = "v02"
	var got, want api.TopKResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", req, &got); code != http.StatusOK {
		t.Fatalf("routed topk: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, c.union.URL+"/v1/topk", req, &want); code != http.StatusOK {
		t.Fatalf("union topk: status %d", code)
	}
	if g, w := resultsJSON(t, got.Results), resultsJSON(t, want.Results); g != w {
		t.Fatalf("routed ranking diverged\n got %s\nwant %s", g, w)
	}
	if n := c.tracer.Counter("shard.routed").Value(); n != 1 {
		t.Errorf("shard.routed = %d, want 1", n)
	}
}

// ---- explain ----

// TestExplainReconciliation: the coordinator's merged TopK section is
// the exact field-wise sum of its per-shard attribution rows, and each
// row equals what that shard's own /explainz recorded for the leg —
// the reconciliation invariant stretched across process boundaries.
func TestExplainReconciliation(t *testing.T) {
	c := startCluster(t, 3, nil)
	_, q := corpus(t)
	req := topKReq(q, 5)
	req.Explain = true
	var resp api.TopKResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", req, &resp); code != http.StatusOK {
		t.Fatalf("scatter: status %d", code)
	}
	p := resp.Explain
	if p == nil || p.TopK == nil {
		t.Fatalf("no coordinator explain profile: %+v", p)
	}
	if p.Kind != "coordinator" {
		t.Errorf("profile kind %q", p.Kind)
	}
	if len(p.Shards) != 3 {
		t.Fatalf("%d shard rows, want 3", len(p.Shards))
	}

	var sum explain.ShardProfile
	for _, sp := range p.Shards {
		if sp.Failed {
			t.Fatalf("healthy cluster produced failed leg: %+v", sp)
		}
		sum.Candidates += sp.Candidates
		sum.Iterations += sp.Iterations
		sum.RandomAccesses += sp.RandomAccesses
		sum.SortedAccesses += sp.SortedAccesses
		sum.SeqsPruned += sp.SeqsPruned
		sum.ClipsPruned += sp.ClipsPruned
	}
	tk := p.TopK
	if tk.Candidates != sum.Candidates || tk.Iterations != sum.Iterations ||
		tk.RandomAccesses != sum.RandomAccesses || tk.SortedAccesses != sum.SortedAccesses ||
		tk.SeqsPruned != sum.SeqsPruned || tk.ClipsPruned != sum.ClipsPruned {
		t.Fatalf("merged TopK %+v != sum of shard rows %+v", tk, sum)
	}
	if tk.Candidates != resp.Candidates {
		t.Errorf("profile candidates %d != response candidates %d", tk.Candidates, resp.Candidates)
	}

	// Cross-process: each attribution row must equal the shard's own
	// engine counters, as recorded in its /explainz ring.
	for i, sp := range p.Shards {
		var ez api.ExplainzResponse
		if code := doJSON(t, http.MethodGet, c.shards[i].URL+"/explainz", nil, &ez); code != http.StatusOK {
			t.Fatalf("shard %d explainz: status %d", i, code)
		}
		if len(ez.Profiles) == 0 || ez.Profiles[0].TopK == nil {
			t.Fatalf("shard %d recorded no topk profile", i)
		}
		stk := ez.Profiles[0].TopK
		if sp.Candidates != stk.Candidates || sp.Iterations != stk.Iterations ||
			sp.RandomAccesses != stk.RandomAccesses || sp.SortedAccesses != stk.SortedAccesses ||
			sp.SeqsPruned != stk.SeqsPruned || sp.ClipsPruned != stk.ClipsPruned {
			t.Fatalf("shard %s row %+v != shard's own profile %+v", sp.Shard, sp, stk)
		}
	}

	// The profile also landed in the coordinator's own ring.
	var ez api.ExplainzResponse
	if code := doJSON(t, http.MethodGet, c.coTS.URL+"/explainz", nil, &ez); code != http.StatusOK {
		t.Fatalf("coordinator explainz: status %d", code)
	}
	if ez.Total < 1 || len(ez.Profiles) == 0 {
		t.Fatalf("coordinator ring empty: %+v", ez)
	}
}

// ---- resilience ----

// deadBackend reserves a TCP port and closes it, yielding an address
// that refuses connections.
func deadBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestBreakerSkipsDeadShard: after the breaker opens, scatters skip the
// dead shard without paying a connection attempt, and /metricsz and
// /healthz report the state.
func TestBreakerSkipsDeadShard(t *testing.T) {
	vids, q := corpus(t)
	all := make([]string, 0, len(vids))
	for n := range vids {
		all = append(all, n)
	}
	sort.Strings(all)
	live := startShardServer(t, repoWith(t, vids, all))

	tr := trace.New()
	co, err := shard.New(shard.Config{
		Backends: []shard.Backend{
			{Name: "s0", Addr: live.URL},
			{Name: "s1", Addr: deadBackend(t)},
		},
		BreakerFailures: 1,
		BreakerCooldown: time.Hour,
		Tracer:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	coTS := httptest.NewServer(co.Handler())
	defer coTS.Close()

	req := topKReq(q, 3)
	req.Partial = true
	for i := 0; i < 2; i++ {
		var resp api.TopKResponse
		if code := doJSON(t, http.MethodPost, coTS.URL+"/v1/topk", req, &resp); code != http.StatusOK {
			t.Fatalf("scatter %d: status %d", i, code)
		}
		if !resp.Incomplete {
			t.Fatalf("scatter %d: not incomplete", i)
		}
	}
	if n := tr.Counter("shard.breaker_skips").Value(); n < 1 {
		t.Errorf("shard.breaker_skips = %d, want >= 1", n)
	}

	var mz api.CoordMetricszResponse
	if code := doJSON(t, http.MethodGet, coTS.URL+"/metricsz", nil, &mz); code != http.StatusOK {
		t.Fatalf("metricsz: status %d", code)
	}
	var dead *api.CoordShardMetrics
	for i := range mz.Shards {
		if mz.Shards[i].Name == "s1" {
			dead = &mz.Shards[i]
		}
	}
	if dead == nil || dead.Breaker != "open" || dead.BreakerOpens < 1 {
		t.Fatalf("dead shard metrics %+v, want open breaker", dead)
	}

	var hz api.CoordHealthzResponse
	if code := doJSON(t, http.MethodGet, coTS.URL+"/healthz", nil, &hz); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if hz.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded (%+v)", hz.Status, hz)
	}
}

// TestHedgedScatter: a shard answering slower than the hedge delay gets
// a replica launched against it (first response wins, either way).
func TestHedgedScatter(t *testing.T) {
	vids, q := corpus(t)
	all := make([]string, 0, len(vids))
	for n := range vids {
		all = append(all, n)
	}
	sort.Strings(all)

	srv := server.New(server.Config{Repo: repoWith(t, vids, all)})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(120 * time.Millisecond)
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		slow.Close()
		_ = srv.Shutdown(t.Context())
	})

	tr := trace.New()
	co, err := shard.New(shard.Config{
		Backends:   []shard.Backend{{Name: "s0", Addr: slow.URL}},
		HedgeDelay: 20 * time.Millisecond,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	coTS := httptest.NewServer(co.Handler())
	defer coTS.Close()

	var resp api.TopKResponse
	if code := doJSON(t, http.MethodPost, coTS.URL+"/v1/topk", topKReq(q, 3), &resp); code != http.StatusOK {
		t.Fatalf("scatter: status %d", code)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results through slow shard")
	}
	if n := tr.Counter("shard.hedges").Value(); n < 1 {
		t.Errorf("shard.hedges = %d, want >= 1", n)
	}
}

// TestHealthzUnavailable: a coordinator whose every shard is dead
// reports unavailable with a 503.
func TestHealthzUnavailable(t *testing.T) {
	co, err := shard.New(shard.Config{
		Backends:     []shard.Backend{{Name: "s0", Addr: deadBackend(t)}},
		ProbeTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	coTS := httptest.NewServer(co.Handler())
	defer coTS.Close()
	var hz api.CoordHealthzResponse
	if code := doJSON(t, http.MethodGet, coTS.URL+"/healthz", nil, &hz); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503", code)
	}
	if hz.Status != "unavailable" {
		t.Fatalf("healthz %+v", hz)
	}
	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodPost, coTS.URL+"/v1/topk",
		api.TopKRequest{Action: "x"}, &errResp); code != http.StatusBadGateway {
		t.Fatalf("scatter against dead fleet: status %d, want 502", code)
	}
	if errResp.Error.Code != "shards_unavailable" {
		t.Fatalf("error %+v", errResp.Error)
	}
}

// ---- sessions ----

// TestSessionProxy: sessions route to the workload's ring owner under a
// namespaced id; create, status, results, list and delete all work
// through the coordinator.
func TestSessionProxy(t *testing.T) {
	c := startCluster(t, 3, nil)

	var created api.SessionInfo
	code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/sessions",
		api.CreateSessionRequest{Workload: "q2", Scale: 0.02}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d (%+v)", code, created)
	}
	if created.ID == "" || !bytes.ContainsRune([]byte(created.ID), '~') {
		t.Fatalf("session id %q not namespaced", created.ID)
	}

	var info api.SessionInfo
	if code := doJSON(t, http.MethodGet, c.coTS.URL+"/v1/sessions/"+created.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if info.ID != created.ID {
		t.Fatalf("status id %q, want %q", info.ID, created.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	since := -1
	var res api.ResultsResponse
	for {
		url := fmt.Sprintf("%s/v1/sessions/%s/results?wait=2s", c.coTS.URL, created.ID)
		if since >= 0 {
			url += fmt.Sprintf("&since=%d", since)
		}
		if code := doJSON(t, http.MethodGet, url, nil, &res); code != http.StatusOK {
			t.Fatalf("results: status %d", code)
		}
		if res.State != "running" {
			break
		}
		since = res.ClipsProcessed
		if time.Now().After(deadline) {
			t.Fatalf("session still running: %+v", res)
		}
	}
	if res.State != "done" {
		t.Fatalf("session ended %q, want done", res.State)
	}

	var list api.SessionList
	if code := doJSON(t, http.MethodGet, c.coTS.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	found := false
	for _, s := range list.Sessions {
		if s.ID == created.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("list %+v missing %q", list.Sessions, created.ID)
	}

	var deleted api.SessionInfo
	if code := doJSON(t, http.MethodDelete, c.coTS.URL+"/v1/sessions/"+created.ID, nil, &deleted); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodGet, c.coTS.URL+"/v1/sessions/"+created.ID, nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", code)
	}
}

func TestSessionBadIDs(t *testing.T) {
	c := startCluster(t, 2, nil)
	for _, id := range []string{"nope", "9~s1", "x~s1"} {
		var errResp api.ErrorResponse
		if code := doJSON(t, http.MethodGet, c.coTS.URL+"/v1/sessions/"+id, nil, &errResp); code != http.StatusNotFound {
			t.Fatalf("id %q: status %d, want 404", id, code)
		}
	}
	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/sessions",
		api.CreateSessionRequest{}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("create without workload: status %d, want 400", code)
	}
}

// ---- bound endpoint plumbing ----

// TestShardBoundEndpoint: broadcast rounds against an id with no
// in-flight query answer found=false (the query finished or never
// reached this shard) and never fail the round.
func TestShardBoundEndpoint(t *testing.T) {
	c := startCluster(t, 2, nil)
	b := 1.5
	var resp api.BoundExchangeResponse
	code := doJSON(t, http.MethodPost, c.shards[0].URL+"/v1/shard/bound",
		api.BoundExchangeRequest{Query: "gone", Bound: &b}, &resp)
	if code != http.StatusOK {
		t.Fatalf("bound exchange: status %d", code)
	}
	if resp.Found {
		t.Fatalf("exchange against unknown id reported found: %+v", resp)
	}
	var errResp api.ErrorResponse
	if code := doJSON(t, http.MethodPost, c.shards[0].URL+"/v1/shard/bound",
		api.BoundExchangeRequest{}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("empty id: status %d, want 400", code)
	}
}

// TestCoordMetricsz: traffic shows up in the coordinator totals.
func TestCoordMetricsz(t *testing.T) {
	c := startCluster(t, 2, nil)
	_, q := corpus(t)
	var resp api.TopKResponse
	if code := doJSON(t, http.MethodPost, c.coTS.URL+"/v1/topk", topKReq(q, 2), &resp); code != http.StatusOK {
		t.Fatalf("scatter: status %d", code)
	}
	var mz api.CoordMetricszResponse
	if code := doJSON(t, http.MethodGet, c.coTS.URL+"/metricsz", nil, &mz); code != http.StatusOK {
		t.Fatalf("metricsz: status %d", code)
	}
	if mz.Scatters != 1 {
		t.Errorf("scatters = %d, want 1", mz.Scatters)
	}
	calls := int64(0)
	for _, s := range mz.Shards {
		calls += s.Calls
	}
	if calls < 2 {
		t.Errorf("shard calls = %d, want >= 2", calls)
	}
}
