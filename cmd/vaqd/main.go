// Command vaqd is the query-serving daemon: a resident HTTP server
// hosting concurrent online VQL sessions over synthetic streams and
// offline top-k queries against a repository built by vaqingest.
//
//	vaqd -addr :8080 -repo vaq-repo -max-sessions 128 -workers 8
//
// Create a session and poll it:
//
//	curl -s localhost:8080/v1/sessions -d '{"workload": "q2"}'
//	curl -s 'localhost:8080/v1/sessions/s1/results?wait=5s'
//
// vaqd drains gracefully on SIGINT/SIGTERM: new sessions are rejected,
// in-flight sessions run to completion until -drain-timeout, then are
// cancelled. See docs/SERVER.md for the full API.
//
// With -coordinator, vaqd instead fronts a fleet of vaqd shard
// processes (scatter-gather top-k with cross-shard bound broadcast,
// consistent-hash routing for sessions — see docs/SHARDING.md):
//
//	vaqd -coordinator -addr :8080 -shards s0=localhost:8081,s1=localhost:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vaq"
	"vaq/internal/brownout"
	"vaq/internal/fault"
	"vaq/internal/resilience"
	"vaq/internal/server"
	"vaq/internal/shard"
	"vaq/internal/trace"
)

func main() {
	var (
		addrFlag     = flag.String("addr", ":8080", "listen address")
		repoFlag     = flag.String("repo", "", "repository directory for /v1/topk (optional)")
		sessionsFlag = flag.Int("max-sessions", 64, "maximum concurrently running sessions")
		workersFlag  = flag.Int("workers", 0, "worker pool shared by all sessions and offline top-k queries (0 = GOMAXPROCS)")
		timeoutFlag  = flag.Duration("request-timeout", 30*time.Second, "per-request timeout for create/top-k")
		waitFlag     = flag.Duration("max-wait", time.Minute, "cap on ?wait= long-poll duration")
		drainFlag    = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown lets sessions finish before cancelling")
		spansFlag    = flag.Int("trace-spans", trace.DefaultCapacity, "span retention of the /tracez ring buffer")
		slowFlag     = flag.Duration("slow-query", 0, "log root spans slower than this to stderr as one-line JSON (0 = off)")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		brownFlag    = flag.Duration("brownout", 0, "arm the brownout ladder: step the degradation level up when the p90 worker-queue wait reaches this (0 = off)")
		brownLoFlag  = flag.Duration("brownout-low", 0, "step the brownout level back down when the p90 wait falls to this (0 = half of -brownout)")
		brownDwFlag  = flag.Duration("brownout-dwell", 0, "minimum time between brownout level changes (0 = default 2s)")
		retriesFlag  = flag.Int("retries", resilience.DefaultPolicy().MaxRetries, "detector retry budget per invocation")
		brkFailFlag  = flag.Int("breaker-failures", resilience.DefaultPolicy().BreakerFailures, "consecutive detector failures that open the circuit breaker (0 = off)")
		brkCoolFlag  = flag.Duration("breaker-cooldown", resilience.DefaultPolicy().BreakerCooldown, "how long an open breaker rejects before a half-open probe")
		faultFlag    = flag.String("fault", "", "deterministic fault schedule for session detectors, e.g. 'error:0-999:0.1,latency:500-:0.2:20ms' (chaos testing)")
		seedFlag     = flag.Int64("fault-seed", 1, "seed for the fault schedule and resilience jitter")
		hedgeFlag    = flag.Float64("hedge-quantile", 0, "hedge detector calls outliving this observed latency quantile, e.g. 0.95 (0 = off)")
		lblBrkFlag   = flag.Bool("label-breaker", false, "add per-(backend, label) circuit breakers inside the per-backend one")
		adaptFlag    = flag.Duration("adaptive-retries", 0, "shrink retry budgets to zero as the p90 worker-queue wait warms toward this (0 = off)")
		chainFlag    = flag.String("fallback-chain", "", "comma-separated cheaper detector profiles tried in order before the prior, e.g. 'yolov3,ideal'")
		sharedFlag   = flag.Bool("shared-inference", true, "share one detection stack (singleflight dedup + score cache) across sessions of the same workload/scale/model")
		cacheFlag    = flag.Int("infer-cache", 0, "shared score cache capacity in entries (0 = default 65536, negative = dedup only)")
		batchWFlag   = flag.Duration("batch-window", 0, "hold shared-inference invocations this long to micro-batch same-profile units (0 = off)")
		batchNFlag   = flag.Int("batch-max", 16, "max units per micro-batched detector call")
		planRFlag    = flag.Int("plan-rate", 0, "adaptive sampling base rate: evaluate predicates on 1 unit in N, densifying only undecided clips (0 = dense, 1 = planner with the dense rung)")
		planLFlag    = flag.Int("plan-levels", 0, "cap on the densification ladder length (0 = full ladder down to stride 1)")
		explainFlag  = flag.Int("explain-ring", 0, "EXPLAIN profiles retained by /explainz (0 = default 64, negative = disable collection)")
		coordFlag    = flag.Bool("coordinator", false, "run as a scatter-gather coordinator over -shards instead of serving queries locally")
		shardsFlag   = flag.String("shards", "", "comma-separated shard backends for -coordinator, each name=host:port (or bare host:port)")
		sHedgeFlag   = flag.Duration("shard-hedge", 0, "coordinator: hedge idempotent shard reads that have not answered within this delay (0 = off)")
		bcastFlag    = flag.Duration("bound-broadcast", 0, "coordinator: period of the cross-shard B_lo^K bound broadcast during top-k scatters (0 = off)")
	)
	flag.Parse()

	if *coordFlag {
		runCoordinator(coordinatorFlags{
			addr:            *addrFlag,
			shards:          *shardsFlag,
			requestTimeout:  *timeoutFlag,
			hedge:           *sHedgeFlag,
			broadcast:       *bcastFlag,
			breakerFailures: *brkFailFlag,
			breakerCooldown: *brkCoolFlag,
			explainRing:     *explainFlag,
			traceSpans:      *spansFlag,
			slowQuery:       *slowFlag,
			drain:           *drainFlag,
		})
		return
	}
	if *shardsFlag != "" || *sHedgeFlag != 0 || *bcastFlag != 0 {
		fatal(fmt.Errorf("-shards, -shard-hedge and -bound-broadcast require -coordinator"))
	}

	topts := []trace.Option{trace.WithCapacity(*spansFlag)}
	if *slowFlag > 0 {
		topts = append(topts, trace.WithSlowLog(*slowFlag, os.Stderr))
	}
	pol := resilience.DefaultPolicy()
	pol.MaxRetries = *retriesFlag
	pol.BreakerFailures = *brkFailFlag
	pol.BreakerCooldown = *brkCoolFlag
	pol.Seed = *seedFlag
	cfg := server.Config{
		MaxSessions:     *sessionsFlag,
		Workers:         *workersFlag,
		RequestTimeout:  *timeoutFlag,
		MaxWait:         *waitFlag,
		Tracer:          trace.New(topts...),
		Resilience:      &pol,
		HedgeQuantile:   *hedgeFlag,
		LabelBreaker:    *lblBrkFlag,
		AdaptiveRetries: *adaptFlag,
		SharedInference: *sharedFlag,
		InferCache:      *cacheFlag,
		BatchWindow:     *batchWFlag,
		BatchMax:        *batchNFlag,
		ExplainRing:     *explainFlag,
	}
	if *hedgeFlag != 0 && (*hedgeFlag <= 0 || *hedgeFlag >= 1) {
		fatal(fmt.Errorf("-hedge-quantile must be in (0, 1), got %v", *hedgeFlag))
	}
	if *brownLoFlag < 0 || *brownDwFlag < 0 || *brownFlag < 0 {
		fatal(fmt.Errorf("-brownout flags must be non-negative"))
	}
	if *brownFlag == 0 && (*brownLoFlag > 0 || *brownDwFlag > 0) {
		fatal(fmt.Errorf("-brownout-low and -brownout-dwell require -brownout"))
	}
	if *brownFlag > 0 {
		if *brownLoFlag >= *brownFlag {
			fatal(fmt.Errorf("-brownout-low (%v) must be below -brownout (%v)", *brownLoFlag, *brownFlag))
		}
		cfg.Brownout = brownout.Config{High: *brownFlag, Low: *brownLoFlag, Dwell: *brownDwFlag}
		lo, dw := *brownLoFlag, *brownDwFlag
		if lo <= 0 {
			lo = *brownFlag / 2
		}
		if dw <= 0 {
			dw = brownout.DefaultDwell
		}
		fmt.Printf("vaqd: brownout ladder armed: high %v, low %v, dwell %v\n", *brownFlag, lo, dw)
	}
	// Sizing bugs are fatal at startup, not deferred to the first session
	// that exercises them.
	if *batchNFlag <= 0 {
		fatal(fmt.Errorf("-batch-max must be positive, got %d", *batchNFlag))
	}
	if *batchWFlag < 0 {
		fatal(fmt.Errorf("-batch-window must be non-negative, got %v", *batchWFlag))
	}
	if err := (vaq.PlanConfig{Rate: *planRFlag, Levels: *planLFlag}).Validate(); err != nil {
		fatal(err)
	}
	cfg.PlanRate, cfg.PlanLevels = *planRFlag, *planLFlag
	if *planRFlag > 0 {
		fmt.Printf("vaqd: adaptive sampling planner armed: rate %d, levels %d\n", *planRFlag, *planLFlag)
	}
	if *chainFlag != "" {
		for _, m := range strings.Split(*chainFlag, ",") {
			if m = strings.TrimSpace(m); m != "" {
				cfg.FallbackChain = append(cfg.FallbackChain, m)
			}
		}
		if err := server.ValidateFallbackChain(cfg.FallbackChain); err != nil {
			fatal(err)
		}
		fmt.Printf("vaqd: fallback chain armed: %s -> prior\n", strings.Join(cfg.FallbackChain, " -> "))
	}
	if *faultFlag != "" {
		sched, err := fault.Parse(*seedFlag, *faultFlag)
		if err != nil {
			fatal(err)
		}
		cfg.FaultSchedule = sched
		fmt.Printf("vaqd: fault injection armed: %s\n", sched)
	}
	if *repoFlag != "" {
		repo, err := vaq.OpenRepository(*repoFlag)
		if err != nil {
			fatal(err)
		}
		cfg.Repo = repo
		fmt.Printf("vaqd: repository %s: videos %v\n", *repoFlag, repo.Videos())
	}
	srv := server.New(cfg)
	handler := srv.Handler()
	if *pprofFlag {
		// Profiling rides on the API listener behind an explicit opt-in;
		// the API mux keeps its routes and pprof takes /debug/pprof/.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Println("vaqd: pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Listen before Serve so -addr :0 can report the kernel-assigned
	// port (the sharding acceptance tests parse this line).
	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("vaqd: listening on %s (max-sessions %d)\n", ln.Addr(), *sessionsFlag)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Println("vaqd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	// Stop accepting requests first, then drain sessions.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "vaqd: http shutdown:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "vaqd: cancelled in-flight sessions:", err)
	}
	fmt.Println("vaqd: bye")
}

// coordinatorFlags carries the subset of flags the coordinator mode
// consumes.
type coordinatorFlags struct {
	addr            string
	shards          string
	requestTimeout  time.Duration
	hedge           time.Duration
	broadcast       time.Duration
	breakerFailures int
	breakerCooldown time.Duration
	explainRing     int
	traceSpans      int
	slowQuery       time.Duration
	drain           time.Duration
}

// runCoordinator serves the scatter-gather tier over a fleet of vaqd
// shard processes.
func runCoordinator(f coordinatorFlags) {
	if f.shards == "" {
		fatal(fmt.Errorf("-coordinator requires -shards"))
	}
	backends, err := shard.ParseBackends(f.shards)
	if err != nil {
		fatal(err)
	}
	topts := []trace.Option{trace.WithCapacity(f.traceSpans)}
	if f.slowQuery > 0 {
		topts = append(topts, trace.WithSlowLog(f.slowQuery, os.Stderr))
	}
	co, err := shard.New(shard.Config{
		Backends:        backends,
		RequestTimeout:  f.requestTimeout,
		HedgeDelay:      f.hedge,
		BreakerFailures: f.breakerFailures,
		BreakerCooldown: f.breakerCooldown,
		BroadcastEvery:  f.broadcast,
		Tracer:          trace.New(topts...),
		ExplainRing:     f.explainRing,
	})
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           co.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name
	}
	fmt.Printf("vaqd: listening on %s (coordinator over %s)\n", ln.Addr(), strings.Join(names, ", "))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("vaqd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "vaqd: http shutdown:", err)
	}
	fmt.Println("vaqd: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vaqd:", err)
	os.Exit(1)
}
