package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"vaq"
	"vaq/internal/api"
	"vaq/internal/rvaq"
)

// topkKs are the result sizes the request streams ask for.
var topkKs = []int{1, 5, 20}

// topkCase is one distinct top-k request: a label set and K, pinned to
// a video or (video empty) global. Every case carries its pre-encoded
// HTTP body and its oracle answer.
type topkCase struct {
	video string
	query vaq.Query
	k     int
	body  []byte
	want  []api.TopKEntry
}

// rankedVQL renders the ranked VQL statement for a conjunctive query.
func rankedVQL(q vaq.Query, k int) string {
	objs := make([]string, len(q.Objects))
	for i, o := range q.Objects {
		objs[i] = "'" + string(o) + "'"
	}
	return fmt.Sprintf("SELECT MERGE(clipID) AS Sequence, RANK(act, obj) "+
		"FROM (PROCESS repo PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer) "+
		"WHERE act = '%s' AND obj.include(%s) ORDER BY RANK(act, obj) LIMIT %d",
		q.Action, strings.Join(objs, ", "), k)
}

// topkCases builds the fixed request multiset — every video × label set
// × K once for the pinned stream, every label set × K for the global
// one — with oracle answers from rvaq.Naive over the in-memory
// VideoData the repositories were written from.
func topkCases(c *corpus) (pinned, global []topkCase, err error) {
	for _, q := range labelSets(c.query) {
		for _, k := range topkKs {
			var all []api.TopKEntry
			for i := range c.videos {
				v := &c.videos[i]
				res, err := rvaq.Naive(v.vd, q, k, rvaq.DefaultOptions())
				if err != nil {
					return nil, nil, fmt.Errorf("oracle %s %v k=%d: %w", v.name, q, k, err)
				}
				tc := topkCase{video: v.name, query: q, k: k, want: []api.TopKEntry{}}
				for _, r := range res {
					e := api.TopKEntry{Seq: api.Range{Lo: r.Seq.Lo, Hi: r.Seq.Hi}, Score: r.Score}
					tc.want = append(tc.want, e)
					e.Video = v.name
					all = append(all, e)
				}
				tc.body, _ = json.Marshal(api.TopKRequest{Video: v.name, Query: rankedVQL(q, k)})
				pinned = append(pinned, tc)
			}
			// The engine's own total order: score desc, video, start clip.
			sort.Slice(all, func(a, b int) bool {
				if all[a].Score != all[b].Score {
					return all[a].Score > all[b].Score
				}
				if all[a].Video != all[b].Video {
					return all[a].Video < all[b].Video
				}
				return all[a].Seq.Lo < all[b].Seq.Lo
			})
			if len(all) > k {
				all = all[:k]
			}
			g := topkCase{query: q, k: k, want: append([]api.TopKEntry{}, all...)}
			g.body, _ = json.Marshal(api.TopKRequest{Query: rankedVQL(q, k)})
			global = append(global, g)
		}
	}
	return pinned, global, nil
}

// topkStats is one top-k phase's outcome: retained latency samples of
// the successful requests and the modeled cost they reported.
type topkStats struct {
	latUS    []float64 // sorted
	byEnd    []float64 // the same samples in completion order
	wallS    float64
	accesses int64 // Σ random_accesses
	rounds   int
}

// merge pools another phase's samples of the same request type into s.
func (s *topkStats) merge(o topkStats) {
	s.byEnd = append(s.byEnd, o.byEnd...)
	s.latUS = sortedCopy(s.byEnd)
	s.wallS += o.wallS
	s.accesses += o.accesses
	s.rounds += o.rounds
}

func (s topkStats) qps() float64 { return float64(len(s.latUS)) / s.wallS }

// p99Chunk is how many consecutive requests one p99 reading covers: the
// fewest that leave ten samples beyond the nearest-rank p99.
const p99Chunk = 1000

// p99 is the median, over consecutive chunks of p99Chunk requests in
// completion order, of each chunk's nearest-rank p99. Over eight runs
// it spread half as wide as the pooled p99 (0.08 against 0.19 of the
// median on pinned requests), because one burst of slow requests — a
// GC cycle, a descheduled vCPU — lands in one chunk instead of moving
// the pooled tail. With less than one full chunk it is the pooled p99.
func (s topkStats) p99() float64 {
	var perChunk []float64
	for lo := 0; lo+p99Chunk <= len(s.byEnd); lo += p99Chunk {
		perChunk = append(perChunk, percentile(sortedCopy(s.byEnd[lo:lo+p99Chunk]), 99))
	}
	if len(perChunk) == 0 {
		return percentile(s.latUS, 99)
	}
	return median(perChunk)
}

func (s topkStats) accessesPerQuery() float64 {
	return float64(s.accesses) / float64(len(s.latUS))
}

// issuer sends one case and returns its latency and reported accesses.
type issuer func(tc *topkCase, rec *recorder) (time.Duration, int64, error)

// httpIssuer posts the case to base's /v1/topk and checks the reply
// against the oracle.
func httpIssuer(base string) issuer {
	return func(tc *topkCase, rec *recorder) (time.Duration, int64, error) {
		root := rec.root("request.topk")
		defer root.end()
		sp := root.child("server.http_topk")
		var resp api.TopKResponse
		dur, err := doJSON(http.MethodPost, base+"/v1/topk", tc.body, &resp)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		if resp.Incomplete || !slices.Equal(resp.Results, tc.want) {
			return 0, 0, fmt.Errorf("topk %q %v k=%d: result differs from rvaq.Naive (incomplete=%v, got %d entries, want %d)",
				tc.video, tc.query, tc.k, resp.Incomplete, len(resp.Results), len(tc.want))
		}
		return dur, resp.RandomAccesses, nil
	}
}

// facadeIssuer runs the case in-process on the re-opened repository —
// the path below the server: facade, rvaq and the file-backed tables.
func facadeIssuer(repo *vaq.Repository, eo vaq.ExecOptions) issuer {
	return func(tc *topkCase, rec *recorder) (time.Duration, int64, error) {
		name := "vaq.topk_video"
		if tc.video == "" {
			name = "vaq.topk_global"
		}
		sp := rec.root(name)
		defer sp.end()
		var got []api.TopKEntry
		var stats vaq.TopKStats
		start := time.Now()
		if tc.video != "" {
			res, st, err := repo.TopKOpts(tc.video, tc.query, tc.k, eo)
			if err != nil {
				return 0, 0, err
			}
			stats = st
			for _, r := range res {
				got = append(got, api.TopKEntry{Seq: api.Range{Lo: r.Seq.Lo, Hi: r.Seq.Hi}, Score: r.Score})
			}
		} else {
			res, st, err := repo.TopKGlobalOpts(tc.query, tc.k, eo)
			if err != nil {
				return 0, 0, err
			}
			stats = st
			for _, r := range res {
				got = append(got, api.TopKEntry{Video: r.Video, Seq: api.Range{Lo: r.Seq.Lo, Hi: r.Seq.Hi}, Score: r.Score})
			}
		}
		dur := time.Since(start)
		if stats.Incomplete || !slices.Equal(got, tc.want) {
			return 0, 0, fmt.Errorf("facade topk %q %v k=%d: result differs from rvaq.Naive", tc.video, tc.query, tc.k)
		}
		return dur, stats.Accesses.Random, nil
	}
}

// topkPhase drives clients closed-loop over the case multiset: each
// client walks its own seed-shuffled permutation of all cases per
// round, whole rounds only (so the request mix, and with it
// accesses_per_query, is the same however many rounds fit), until the
// budget is spent. One untimed warm-up round per client comes first.
func topkPhase(cases []topkCase, issue issuer, budget time.Duration, clients int, seed int64, purpose string, o *ops, rec *recorder) topkStats {
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(deriveSeed(seed, purpose, c)))
	}
	each := func(fn func(c int)) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fn(c)
			}(c)
		}
		wg.Wait()
	}
	each(func(c int) { // warm-up, unrecorded
		for _, i := range rngs[c].Perm(len(cases)) {
			if _, _, err := issue(&cases[i], nil); err != nil {
				o.fail(err)
			}
		}
	})
	type sample struct {
		end time.Duration // since the phase started
		us  float64
	}
	var (
		mu      sync.Mutex
		st      topkStats
		samples []sample
		end     time.Time
	)
	runtime.GC()
	start := time.Now()
	each(func(c int) {
		var mine []sample
		var acc int64
		rounds := 0
		for time.Since(start) < budget {
			for _, i := range rngs[c].Perm(len(cases)) {
				d, a, err := issue(&cases[i], rec)
				if err != nil {
					o.fail(err)
					continue
				}
				o.ok()
				mine = append(mine, sample{time.Since(start), float64(d) / float64(time.Microsecond)})
				acc += a
			}
			rounds++
		}
		done := time.Now()
		mu.Lock()
		samples = append(samples, mine...)
		st.accesses += acc
		st.rounds += rounds
		if done.After(end) {
			end = done
		}
		mu.Unlock()
	})
	sort.Slice(samples, func(a, b int) bool { return samples[a].end < samples[b].end })
	for _, s := range samples {
		st.byEnd = append(st.byEnd, s.us)
	}
	st.latUS = sortedCopy(st.byEnd)
	st.wallS = end.Sub(start).Seconds()
	return st
}
