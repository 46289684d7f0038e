package server

import (
	"context"
	"sync"
	"time"

	"vaq"
	"vaq/internal/explain"
	"vaq/internal/infer"
	"vaq/internal/pool"
	"vaq/internal/resilience"
	"vaq/internal/trace"
)

// Session states.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateFailed    = "failed"
)

// Session is one standing online query: a stream engine driven clip by
// clip by its own goroutine, throttled by the registry's shared worker
// pool. All mutable state lives behind mu; the changed channel is
// closed and replaced on every update so any number of long-pollers can
// wait without polling loops.
type Session struct {
	id     string
	req    CreateSessionRequest
	stream *vaq.Stream
	total  int // clips to process
	pace   time.Duration
	cancel context.CancelFunc
	// span is the session's root trace span (nil when the registry has
	// no tracer); every clip evaluation parents under it and run ends it.
	span *trace.Span
	// models is the session's resilient detection layer (nil when the
	// stream was built outside the server path); its counters feed the
	// degraded-result reporting. All reads are internally synchronized.
	models *resilience.Models
	// EXPLAIN collection (nil when the registry has no ring). The
	// collector accumulates clip/predicate attribution as the engine
	// runs; finish computes the infer/resilience deltas against the
	// start snapshots and publishes the profile to exRing. Set before
	// the session goroutine starts, read-only afterwards.
	// level reads the server's active brownout ladder level (nil when
	// the controller is unarmed); stamped on session status and the
	// finished EXPLAIN profile. Set before the goroutine starts.
	level      func() string
	ex         *explain.Collector
	exRing     *explain.Ring
	started    time.Time
	resStart   resilience.Stats
	inferStats func() infer.Stats // nil without shared inference
	inferStart infer.Stats

	mu          sync.Mutex
	changed     chan struct{}
	state       string
	clips       int
	invocations int
	seqs        vaq.Sequences
	critObj     map[string]int
	critAct     int
	failure     error

	// done closes when the session goroutine has fully exited — the
	// registry's drain and the leak tests key off it.
	done chan struct{}
}

func newSession(id string, req CreateSessionRequest, stream *vaq.Stream, total int, cancel context.CancelFunc) *Session {
	return &Session{
		id:      id,
		req:     req,
		stream:  stream,
		total:   total,
		pace:    time.Duration(req.PaceMS) * time.Millisecond,
		cancel:  cancel,
		changed: make(chan struct{}),
		state:   StateRunning,
		done:    make(chan struct{}),
	}
}

// stepHook, when non-nil, runs after every completed step. It is a test
// seam: the cancellation-race regression test uses it to cancel the
// session deterministically right after the final clip. Set it before
// any session starts and clear it after they drain.
var stepHook func(s *Session, c int)

// run drives the engine to completion or cancellation. workers is the
// registry's shared semaphore: a session holds a slot only while
// evaluating one clip, so -workers bounds engine concurrency across all
// sessions while every session still makes progress.
func (s *Session) run(ctx context.Context, workers *pool.Pool) {
	defer close(s.done)
	defer func() {
		s.mu.Lock()
		clips, state := s.clips, s.state
		s.mu.Unlock()
		s.span.SetInt("clips", int64(clips))
		s.span.SetAttr("state", state)
		s.span.End()
	}()
	var ticker *time.Ticker
	if s.pace > 0 {
		ticker = time.NewTicker(s.pace)
		defer ticker.Stop()
	}
	for c := 0; c < s.total; c++ {
		if ticker != nil {
			select {
			case <-ticker.C:
			case <-ctx.Done():
				s.finish(StateCancelled, nil)
				return
			}
		}
		if workers.Acquire(ctx) != nil {
			s.finish(StateCancelled, nil)
			return
		}
		err := s.step(c)
		workers.Release()
		if stepHook != nil {
			stepHook(s, c)
		}
		if err != nil {
			s.finish(StateFailed, err)
			return
		}
		// Consult ctx only if there is more work to do: a cancellation
		// that races the final clip must not demote a fully processed
		// session to "cancelled".
		if c+1 < s.total && ctx.Err() != nil {
			s.finish(StateCancelled, nil)
			return
		}
	}
	s.finish(StateDone, nil)
}

// step evaluates one clip and publishes the new snapshot. It is the
// session hot path the serving-overhead benchmark measures against raw
// engine calls.
func (s *Session) step(c int) error {
	if _, err := s.stream.ProcessClip(c); err != nil {
		return err
	}
	// The stream is touched only by the session goroutine; the snapshot
	// below is the sole bridge to concurrent readers.
	obj, act := s.stream.CriticalValues()
	s.mu.Lock()
	s.clips = s.stream.ClipsProcessed()
	s.invocations = s.stream.Invocations()
	s.seqs = s.stream.Results()
	if s.critObj == nil {
		s.critObj = make(map[string]int, len(obj))
	}
	for l, k := range obj {
		s.critObj[string(l)] = k
	}
	s.critAct = act
	s.broadcastLocked()
	s.mu.Unlock()
	return nil
}

func (s *Session) finish(state string, err error) {
	s.finalizeExplain()
	s.mu.Lock()
	s.state = state
	s.failure = err
	s.broadcastLocked()
	s.mu.Unlock()
}

// finalizeExplain closes out the session's EXPLAIN profile: duration,
// the infer/resilience deltas since session start, and publication to
// the /explainz ring. Runs once, on the session goroutine, as part of
// reaching a terminal state.
func (s *Session) finalizeExplain() {
	if s.ex == nil {
		return
	}
	s.ex.SetDurUS(time.Since(s.started).Microseconds())
	if s.models != nil {
		s.ex.SetResilience(resilienceDelta(s.models.Stats(), s.resStart))
	}
	if s.inferStats != nil {
		s.ex.SetInfer(inferDelta(s.inferStats(), s.inferStart))
	}
	if s.level != nil {
		s.ex.SetBrownout(s.level())
	}
	s.exRing.Add(s.ex.Profile())
}

// ExplainProfile snapshots the session's EXPLAIN profile so far (the
// infer/resilience deltas appear once the session reaches a terminal
// state); nil when collection is off.
func (s *Session) ExplainProfile() *explain.Profile {
	if s.ex == nil {
		return nil
	}
	p := s.ex.Profile()
	return &p
}

// broadcastLocked wakes every waiter; callers hold mu.
func (s *Session) broadcastLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// degradedCounts reads the resilience layer's degraded totals (0, 0
// without models).
func (s *Session) degradedCounts() (fallbacks int64, units int) {
	if s.models == nil {
		return 0, 0
	}
	st := s.models.Stats()
	return st.Fallbacks, st.DegradedUnits
}

// snapshot returns the current results plus the channel that will close
// on the next change.
func (s *Session) snapshot() (ResultsResponse, <-chan struct{}) {
	fallbacks, units := s.degradedCounts()
	s.mu.Lock()
	defer s.mu.Unlock()
	return ResultsResponse{
		ID:             s.id,
		State:          s.state,
		ClipsProcessed: s.clips,
		Sequences:      Ranges(s.seqs),
		Degraded:       fallbacks > 0,
		DegradedUnits:  units,
	}, s.changed
}

// WaitResults long-polls: it returns as soon as more than since clips
// are processed, the session leaves the running state, the wait elapses,
// or ctx is done — whichever comes first — and always returns the
// freshest snapshot. When ctx cut the wait short, it also returns ctx's
// error so the handler can tell a server-side deadline (504) from a
// client that went away (499); the snapshot is still valid.
func (s *Session) WaitResults(ctx context.Context, since int, wait time.Duration) (ResultsResponse, error) {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		snap, changed := s.snapshot()
		if snap.ClipsProcessed > since || snap.State != StateRunning || wait <= 0 {
			return snap, nil
		}
		select {
		case <-changed:
		case <-deadline.C:
			snap, _ = s.snapshot()
			return snap, nil
		case <-ctx.Done():
			snap, _ = s.snapshot()
			return snap, ctx.Err()
		}
	}
}

// Info reports session status, including the engine's current critical
// values (the live view of §3.2's thresholds).
func (s *Session) Info() SessionInfo {
	var rst resilience.Stats
	if s.models != nil {
		rst = s.models.Stats()
	}
	s.mu.Lock()
	info := SessionInfo{
		ID:             s.id,
		Query:          s.req.Query,
		Workload:       s.req.Workload,
		State:          s.state,
		ClipsTotal:     s.total,
		ClipsProcessed: s.clips,
		Invocations:    s.invocations,
		Sequences:      len(s.seqs),
	}
	if s.models != nil {
		info.Degraded = rst.Fallbacks > 0
		info.DegradedUnits = rst.DegradedUnits
		info.Retries = rst.Retries
		info.Fallbacks = rst.Fallbacks
		info.Hedges = rst.Hedges
		info.FallbackHops = rst.FallbackHops
		if rst.BreakerState != resilience.StateClosed.String() {
			info.BreakerState = rst.BreakerState
		}
	}
	if s.level != nil {
		info.BrownoutLevel = s.level()
	}
	if s.failure != nil {
		info.Error = s.failure.Error()
	}
	if s.critObj != nil || s.critAct != 0 {
		cv := &CriticalValues{Objects: make(map[string]int, len(s.critObj)), Action: s.critAct}
		for l, k := range s.critObj {
			cv.Objects[l] = k
		}
		info.CriticalValues = cv
	}
	s.mu.Unlock()
	return info
}

// Cancel requests cooperative termination; the session reaches a
// terminal state promptly (it never blocks on the worker pool once
// cancelled) and Done closes when the goroutine exits.
func (s *Session) Cancel() { s.cancel() }

// Done closes when the session goroutine has exited.
func (s *Session) Done() <-chan struct{} { return s.done }
