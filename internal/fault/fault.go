// Package fault is a deterministic, seed-driven fault injector for the
// detection backends: it wraps the fallible detector/recognizer
// interfaces of package detect with configurable error rates, latency
// spikes, transient stalls and score-corruption episodes, schedulable
// per unit range (frame index for detectors, shot index for
// recognizers) so chaos runs are exactly reproducible.
//
// Every injection decision is a pure function of (schedule seed,
// episode index, unit, attempt number): the same seed and schedule
// produce the same faults in the same places regardless of wall clock
// or goroutine interleaving, which is what makes the resilience layer's
// degraded outputs byte-for-byte reproducible (the determinism tests in
// package resilience rely on this). The attempt number — how many times
// the unit has been queried so far — is what makes injected errors
// *transient*: a retry is a fresh draw, so a retry policy genuinely
// recovers a fraction of faults instead of replaying them.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/annot"
	"vaq/internal/detect"
	"vaq/internal/video"
)

// ErrInjected is the error every Error-kind episode returns, wrapped
// with the backend name and unit. The resilience layer treats it (like
// any backend error) as transient and retriable.
var ErrInjected = errors.New("fault: injected backend error")

// Kind enumerates the fault families an Episode injects.
type Kind int

const (
	// Error fails the call outright with ErrInjected.
	Error Kind = iota
	// Latency delays the call by Delay before it proceeds (a slow
	// backend that still answers). The sleep honours ctx.
	Latency
	// Stall blocks the call for Delay — typically far beyond any
	// sensible deadline — returning ctx's error if it fires first (a
	// wedged backend the caller must time out of).
	Stall
	// Corrupt lets the call succeed but replaces every returned score
	// with deterministic garbage (a model returning confident nonsense).
	Corrupt
)

var kindNames = map[Kind]string{Error: "error", Latency: "latency", Stall: "stall", Corrupt: "corrupt"}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Episode is one scheduled fault regime over a unit range.
type Episode struct {
	Kind Kind
	// Lo and Hi bound the covered unit range, inclusive; Hi < 0 means
	// open-ended (every unit from Lo on).
	Lo, Hi int
	// Rate is the per-invocation probability the fault fires on a
	// covered unit (0 never, 1 always).
	Rate float64
	// Delay is the injected latency for Latency and Stall episodes.
	Delay time.Duration
}

func (e Episode) covers(unit int) bool {
	return unit >= e.Lo && (e.Hi < 0 || unit <= e.Hi)
}

func (e Episode) String() string {
	hi := strconv.Itoa(e.Hi)
	if e.Hi < 0 {
		hi = ""
	}
	s := fmt.Sprintf("%v:%d-%s:%g", e.Kind, e.Lo, hi, e.Rate)
	if e.Delay > 0 {
		s += ":" + e.Delay.String()
	}
	return s
}

// Schedule is a reproducible fault plan: a seed plus the episode list.
// The zero value injects nothing.
type Schedule struct {
	Seed     int64
	Episodes []Episode
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Episodes) == 0 }

func (s Schedule) String() string {
	parts := make([]string, len(s.Episodes))
	for i, e := range s.Episodes {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Parse builds a schedule from a comma-separated episode spec, each
// episode written kind:lo-hi:rate[:delay] — e.g.
//
//	error:0-999:0.1,latency:500-:0.2:20ms,stall:100-120:1:5s
//
// An empty hi ("500-") means open-ended. The CLIs (vaqd -fault,
// vaqingest -fault) accept this syntax.
func Parse(seed int64, spec string) (Schedule, error) {
	sched := Schedule{Seed: seed}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return sched, nil
	}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 || len(fields) > 4 {
			return Schedule{}, fmt.Errorf("fault: episode %q: want kind:lo-hi:rate[:delay]", part)
		}
		var ep Episode
		switch strings.ToLower(fields[0]) {
		case "error":
			ep.Kind = Error
		case "latency":
			ep.Kind = Latency
		case "stall":
			ep.Kind = Stall
		case "corrupt":
			ep.Kind = Corrupt
		default:
			return Schedule{}, fmt.Errorf("fault: episode %q: unknown kind %q", part, fields[0])
		}
		lo, hi, ok := strings.Cut(fields[1], "-")
		if !ok {
			return Schedule{}, fmt.Errorf("fault: episode %q: range %q wants lo-hi", part, fields[1])
		}
		var err error
		if ep.Lo, err = strconv.Atoi(lo); err != nil || ep.Lo < 0 {
			return Schedule{}, fmt.Errorf("fault: episode %q: bad range start %q", part, lo)
		}
		if hi == "" {
			ep.Hi = -1
		} else if ep.Hi, err = strconv.Atoi(hi); err != nil || ep.Hi < ep.Lo {
			return Schedule{}, fmt.Errorf("fault: episode %q: bad range end %q", part, hi)
		}
		if ep.Rate, err = strconv.ParseFloat(fields[2], 64); err != nil || math.IsNaN(ep.Rate) || ep.Rate < 0 || ep.Rate > 1 {
			return Schedule{}, fmt.Errorf("fault: episode %q: rate %q outside [0,1]", part, fields[2])
		}
		if len(fields) == 4 {
			if ep.Delay, err = time.ParseDuration(fields[3]); err != nil || ep.Delay < 0 {
				return Schedule{}, fmt.Errorf("fault: episode %q: bad delay %q", part, fields[3])
			}
		}
		if (ep.Kind == Latency || ep.Kind == Stall) && ep.Delay == 0 {
			return Schedule{}, fmt.Errorf("fault: episode %q: %v episodes need a delay", part, ep.Kind)
		}
		sched.Episodes = append(sched.Episodes, ep)
	}
	return sched, nil
}

// Counts is a snapshot of the faults an injector has fired, by kind.
type Counts struct {
	Errors    int64 `json:"errors"`
	Latencies int64 `json:"latencies"`
	Stalls    int64 `json:"stalls"`
	Corrupted int64 `json:"corrupted"`
}

// Total sums all fired faults.
func (c Counts) Total() int64 { return c.Errors + c.Latencies + c.Stalls + c.Corrupted }

// Call pins one invocation's injection coordinates, overriding the
// injector's internal per-unit attempt counter.
type Call struct {
	// Attempt is the retry round, 0 for the first try. Decisive draws —
	// Error, Corrupt, Stall — key on it alone, so every replica of one
	// round sees the same outcome.
	Attempt int
	// Replica distinguishes hedged racers within one round (0 =
	// primary). Only Latency draws mix it in: a hedged replica can dodge
	// a latency spike, which moves wall-clock time but never result
	// bytes (provided the delay fits the caller's per-attempt deadline —
	// delays meant to outlive the deadline belong in Stall episodes,
	// whose draws replicas share).
	Replica int
}

type callKeyType struct{}

// WithCall returns a context carrying explicit injection coordinates.
// The resilience layer sets them on every policied call: hedged
// replicas of one retry round must share that round's decisive draws,
// which the internal counter — one bump per call — cannot express, and
// concurrent racers must not skew the counts of later rounds.
func WithCall(ctx context.Context, attempt, replica int) context.Context {
	return context.WithValue(ctx, callKeyType{}, Call{Attempt: attempt, Replica: replica})
}

// CallFrom reports the injection coordinates carried by ctx, if any.
func CallFrom(ctx context.Context) (Call, bool) {
	c, ok := ctx.Value(callKeyType{}).(Call)
	return c, ok
}

// replicaStride offsets a replica's Latency draws into a disjoint part
// of the per-unit hash stream (attempt numbers stay tiny next to it).
const replicaStride = 1 << 20

// draw picks the hash-draw index of one episode decision for the call;
// see Call for which kinds mix the replica in.
func (e Episode) draw(c Call) int {
	if e.Kind == Latency && c.Replica > 0 {
		return c.Attempt + replicaStride*c.Replica
	}
	return c.Attempt
}

// injector holds the state shared by the object and action wrappers.
type injector struct {
	sched Schedule
	salt  string

	errors, latencies, stalls, corrupted atomic.Int64

	mu       sync.Mutex
	attempts map[int]int // per-unit invocation count
}

func newInjector(sched Schedule, salt string) injector {
	return injector{sched: sched, salt: salt, attempts: map[int]int{}}
}

// nextAttempt returns how many times the unit has been queried before
// this call. Per-unit counting keeps decisions deterministic under
// parallel execution: units are independent, and within one unit the
// call sequence (first try, retry, ...) is serial in every caller.
func (in *injector) nextAttempt(unit int) int {
	in.mu.Lock()
	n := in.attempts[unit]
	in.attempts[unit] = n + 1
	in.mu.Unlock()
	return n
}

// counts snapshots the fired-fault counters.
func (in *injector) counts() Counts {
	return Counts{
		Errors:    in.errors.Load(),
		Latencies: in.latencies.Load(),
		Stalls:    in.stalls.Load(),
		Corrupted: in.corrupted.Load(),
	}
}

// inject runs the schedule against one invocation. It returns a non-nil
// error when an Error episode fires (or a sleep is cut short by ctx)
// and reports whether a Corrupt episode fired.
func (in *injector) inject(ctx context.Context, backend string, unit int) (corrupt bool, err error) {
	call, explicit := CallFrom(ctx)
	if !explicit {
		call.Attempt = in.nextAttempt(unit)
	}
	for i, ep := range in.sched.Episodes {
		if !ep.covers(unit) {
			continue
		}
		if !fires(in.sched.Seed, in.salt, i, unit, ep.draw(call), ep.Rate) {
			continue
		}
		switch ep.Kind {
		case Latency, Stall:
			if ep.Kind == Latency {
				in.latencies.Add(1)
			} else {
				in.stalls.Add(1)
			}
			if err := sleep(ctx, ep.Delay); err != nil {
				return false, err
			}
		case Error:
			in.errors.Add(1)
			return false, fmt.Errorf("%w: %s unit %d attempt %d", ErrInjected, backend, unit, call.Attempt)
		case Corrupt:
			in.corrupted.Add(1)
			corrupt = true
		}
	}
	return corrupt, nil
}

// corruptKey seeds the deterministic garbage scores of one invocation.
func (in *injector) corruptKey(unit, i int) float64 {
	return unitRand(hashKey(in.sched.Seed, in.salt+"/corrupt", int64(unit)), uint64(i))
}

// fires decides one (episode, unit, attempt) injection: a pure hash of
// the schedule seed and the coordinates, so runs are reproducible.
func fires(seed int64, salt string, episode, unit, attempt int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	key := hashKey(seed, salt+"/"+strconv.Itoa(episode), int64(unit))
	return unitRand(key, uint64(attempt)) < rate
}

// sleep waits for d, returning ctx's error if it fires first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ObjectInjector wraps a fallible object detector with a fault
// schedule; it implements detect.FallibleObjectDetector.
type ObjectInjector struct {
	backend detect.FallibleObjectDetector
	in      injector
}

// NewObject wraps backend with the schedule. Frame indices are the
// schedule's units.
func NewObject(backend detect.FallibleObjectDetector, sched Schedule) *ObjectInjector {
	return &ObjectInjector{backend: backend, in: newInjector(sched, "obj")}
}

// Name implements detect.FallibleObjectDetector.
func (o *ObjectInjector) Name() string { return o.backend.Name() }

// Counts snapshots the faults fired so far.
func (o *ObjectInjector) Counts() Counts { return o.in.counts() }

// DetectCtx implements detect.FallibleObjectDetector, applying the
// schedule before (errors, delays) and after (score corruption) the
// wrapped backend's call.
func (o *ObjectInjector) DetectCtx(ctx context.Context, v video.FrameIdx, labels []annot.Label) ([]detect.Detection, error) {
	corrupt, err := o.in.inject(ctx, o.backend.Name(), int(v))
	if err != nil {
		return nil, err
	}
	dets, err := o.backend.DetectCtx(ctx, v, labels)
	if err != nil || !corrupt {
		return dets, err
	}
	out := make([]detect.Detection, len(dets))
	for i, d := range dets {
		d.Score = o.in.corruptKey(int(v), i)
		out[i] = d
	}
	return out, nil
}

// ActionInjector wraps a fallible action recognizer with a fault
// schedule; it implements detect.FallibleActionRecognizer. Shot indices
// are the schedule's units.
type ActionInjector struct {
	backend detect.FallibleActionRecognizer
	in      injector
}

// NewAction wraps backend with the schedule.
func NewAction(backend detect.FallibleActionRecognizer, sched Schedule) *ActionInjector {
	return &ActionInjector{backend: backend, in: newInjector(sched, "act")}
}

// Name implements detect.FallibleActionRecognizer.
func (a *ActionInjector) Name() string { return a.backend.Name() }

// Counts snapshots the faults fired so far.
func (a *ActionInjector) Counts() Counts { return a.in.counts() }

// RecognizeCtx implements detect.FallibleActionRecognizer.
func (a *ActionInjector) RecognizeCtx(ctx context.Context, s video.ShotIdx, labels []annot.Label) ([]detect.ActionScore, error) {
	corrupt, err := a.in.inject(ctx, a.backend.Name(), int(s))
	if err != nil {
		return nil, err
	}
	scores, err := a.backend.RecognizeCtx(ctx, s, labels)
	if err != nil || !corrupt {
		return scores, err
	}
	out := make([]detect.ActionScore, len(scores))
	for i, sc := range scores {
		sc.Score = a.in.corruptKey(int(s), i)
		out[i] = sc
	}
	return out, nil
}

// splitmix64 / hashKey / unitRand mirror the deterministic hash-based
// generator of package detect (unexported there): decisions must be
// reproducible per coordinate regardless of invocation order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashKey(seed int64, salt string, unit int64) uint64 {
	h := splitmix64(uint64(seed))
	for _, b := range []byte(salt) {
		h = splitmix64(h ^ uint64(b))
	}
	return splitmix64(h ^ uint64(unit))
}

func unitRand(key uint64, n uint64) float64 {
	v := splitmix64(key + n*0x9e3779b97f4a7c15)
	return float64(v>>11) / float64(1<<53)
}
