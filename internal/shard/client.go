package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"vaq/internal/resilience"
	"vaq/internal/trace"
)

// Backend is one shard process: the stable consistent-hash identity
// plus the address currently serving it. Decoupling the two means a
// shard can restart on a new port (or move hosts) without remapping a
// single video.
type Backend struct {
	Name string
	Addr string
}

// ParseBackends parses a -shards flag value: comma-separated entries,
// each "name=host:port" or a bare "host:port" (the address then doubles
// as the consistent-hash name — fine for fixed addresses, wrong for
// ephemeral ports).
func ParseBackends(spec string) ([]Backend, error) {
	var out []Backend
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		b := Backend{Name: part, Addr: part}
		if name, addr, ok := strings.Cut(part, "="); ok {
			b.Name, b.Addr = strings.TrimSpace(name), strings.TrimSpace(addr)
		}
		if b.Name == "" || b.Addr == "" {
			return nil, fmt.Errorf("shard: bad backend %q (want name=host:port or host:port)", part)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shard: no backends in %q", spec)
	}
	return out, nil
}

// maxResponseBytes caps how much of a shard response the coordinator
// will buffer (a top-k body is tiny; explain profiles can be larger).
const maxResponseBytes = 64 << 20

// errBreakerOpen marks a call the circuit breaker rejected without
// touching the network.
var errBreakerOpen = errors.New("shard: circuit breaker open")

// client is the coordinator's view of one shard process: an HTTP
// client plus the resilience state guarding it — a circuit breaker (a
// dead shard costs one cooldown, not a deadline per query) and a
// fixed-delay hedge for idempotent reads (tail latency of the slowest
// shard caps the whole scatter, so hedging the stragglers is where the
// coordinator buys its p99).
type client struct {
	backend Backend
	base    string // http://host:port
	hc      *http.Client
	breaker *resilience.Breaker
	hedge   time.Duration

	// Per-shard totals for /metricsz; the tracer counters aggregate the
	// same events fleet-wide.
	calls    atomic.Int64
	failures atomic.Int64
	hedges   atomic.Int64

	tcHedges *trace.Counter // shard.hedges (nil-safe)
}

func newClient(b Backend, hc *http.Client, breaker *resilience.Breaker, hedge time.Duration, tcHedges *trace.Counter) *client {
	base := b.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &client{backend: b, base: strings.TrimRight(base, "/"), hc: hc, breaker: breaker, hedge: hedge, tcHedges: tcHedges}
}

// callResult is one HTTP exchange: status and raw body on any
// response (2xx or not), err on transport failure.
type callResult struct {
	status int
	body   []byte
	hedged bool          // the winning response came from a hedge replica
	dur    time.Duration // the logical call's wall time (set by call)
	err    error
}

// attempt runs a single HTTP exchange against the shard.
func (c *client) attempt(ctx context.Context, method, path string, body []byte) callResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return callResult{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return callResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return callResult{err: err}
	}
	return callResult{status: resp.StatusCode, body: b}
}

// doHedged runs the exchange with tail-latency hedging: if the primary
// has not answered within c.hedge, one replica is launched and the
// first completed response wins (the loser's context is cancelled). A
// primary that fails fast promotes the hedge to an immediate retry.
// Only for idempotent calls — a top-k query is a pure read, so replicas
// compute identical answers.
func (c *client) doHedged(ctx context.Context, method, path string, body []byte) callResult {
	if c.hedge <= 0 {
		return c.attempt(ctx, method, path, body)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan callResult, 2)
	run := func(hedged bool) {
		go func() {
			r := c.attempt(hctx, method, path, body)
			r.hedged = hedged
			ch <- r
		}()
	}
	run(false)
	timer := time.NewTimer(c.hedge)
	defer timer.Stop()
	outstanding, launchedHedge := 1, false
	var firstErr *callResult
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				return r
			}
			if firstErr == nil {
				firstErr = &r
			}
			if launchedHedge && outstanding == 0 {
				return *firstErr
			}
		case <-timer.C:
		}
		if !launchedHedge { // the delay passed, or the primary failed fast
			timer.Stop()
			c.hedges.Add(1)
			c.tcHedges.Add(1)
			run(true)
			launchedHedge = true
			outstanding++
		}
	}
}

// call runs one breaker-guarded logical call. hedged permits a
// tail-latency replica (idempotent reads only). For breaker purposes a
// 4xx is a success — the shard is healthy and rejected the request —
// while transport errors and 5xx (including shed 503s) are failures.
func (c *client) call(ctx context.Context, method, path string, body []byte, hedged bool) (callResult, error) {
	if !c.breaker.Allow() {
		return callResult{}, errBreakerOpen
	}
	c.calls.Add(1)
	start := time.Now()
	var r callResult
	if hedged {
		r = c.doHedged(ctx, method, path, body)
	} else {
		r = c.attempt(ctx, method, path, body)
	}
	r.dur = time.Since(start)
	if r.err != nil || r.status >= 500 {
		c.failures.Add(1)
		c.breaker.Failure()
	} else {
		c.breaker.Success()
	}
	return r, r.err
}
