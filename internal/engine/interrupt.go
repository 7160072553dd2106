package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the engine's failure story: cooperative interruption
// (Execution.Stop and Options.Deadline), panic containment with poison-task
// quarantine, and the blocked-retry cap. The stall watchdog lives in
// watchdog.go; the deterministic chaos injector that exercises all of it is
// internal/fault, wired in through the Injector seam below.

// FailureKind classifies why a task was quarantined.
type FailureKind int8

const (
	// Panicked: TryExecute panicked on the task. The recovered value is
	// wrapped in Failure.Err.
	Panicked FailureKind = iota
	// RetriesExhausted: the task came back Blocked more than
	// Options.MaxBlockedRetries times and was quarantined instead of being
	// re-inserted again (the bounded-livelock guarantee).
	RetriesExhausted
)

// String names the failure kind for reports and logs.
func (k FailureKind) String() string {
	switch k {
	case Panicked:
		return "panicked"
	case RetriesExhausted:
		return "retries-exhausted"
	default:
		return fmt.Sprintf("FailureKind(%d)", int8(k))
	}
}

// ErrRetriesExhausted is the error recorded on a RetriesExhausted failure.
var ErrRetriesExhausted = errors.New("engine: task exceeded MaxBlockedRetries")

// Failure is one quarantined task: the exact (value, priority) pair the
// worker popped, which worker it died on and why. Quarantined tasks are
// counted as completed for the termination protocol (so the run still
// proves quiescence) and are never silently re-inserted; callers decide
// whether a failure is retryable at their own layer.
type Failure struct {
	// Worker is the index of the worker that popped the task.
	Worker int
	// Value and Priority identify the quarantined pair.
	Value, Priority int64
	// Kind classifies the failure.
	Kind FailureKind
	// Err is the recovered panic (wrapped, with the pair identity) for
	// Panicked, or ErrRetriesExhausted for RetriesExhausted.
	Err error
}

// Result is the full outcome of an execution: the work accounting plus the
// failure story — whether the run was interrupted before quiescence, which
// tasks were quarantined, and the stall report if the watchdog tripped.
type Result struct {
	Stats
	// Interrupted reports that Stop (or the Deadline, or a watchdog abort)
	// ended the run before quiescence: the Stats are a valid partial
	// account of everything executed so far, but tasks may remain
	// unexecuted in the queue.
	Interrupted bool
	// Failures lists every quarantined task, in no particular order.
	// len(Failures) == Stats.Failed.
	Failures []Failure
	// Stall is the diagnostic snapshot captured by the stall watchdog, or
	// nil if it never fired. With Options.OnStall unset a non-nil Stall
	// means the watchdog aborted the run (Interrupted is also true).
	Stall *StallReport
}

// Injection is one fault-injection directive, returned by an Injector for a
// popped task just before it would execute. The zero value injects nothing.
type Injection struct {
	// Stall delays the worker by this much before anything else — the
	// practically-wait-free adversary's stalled-thread schedule.
	Stall time.Duration
	// Panic makes the attempt panic instead of executing, exercising the
	// containment path: the task must end up quarantined, never lost.
	Panic bool
	// ForceBlocked makes the attempt report Blocked without calling the
	// workload, exercising re-insertion and the retry cap.
	ForceBlocked bool
}

// Injector is the engine's fault-injection seam. When Options.Injector is
// non-nil, every popped task is shown to the injector before execution and
// the returned directives are applied (stall, then panic, then forced
// block). Inspect must be safe for concurrent calls; calls for one worker
// index are always from that worker's goroutine. Production runs leave the
// seam nil and pay only a per-pop nil check; internal/fault provides the
// deterministic seeded implementation the chaos suites use.
type Injector interface {
	Inspect(worker int, value, priority int64) Injection
}

// Stop requests a graceful drain: workers stop popping, flush their
// buffers and exit; producers' late pushes are absorbed instead of
// panicking; Wait then returns a partial Result marked Interrupted with
// everything executed so far. Stop is safe to call from any goroutine,
// idempotent, and a no-op after the run has already terminated (the Result
// is then not marked Interrupted). The drain is bounded: each worker
// finishes at most its already-popped batch before exiting. Parked workers
// are woken so the drain never waits on a sleeping worker: the broadcast
// follows the stopped store, so a woken (or about-to-park) worker is
// guaranteed to observe the flag and exit through stopDrain.
func (e *Execution) Stop() {
	e.stopped.Store(true)
	e.lot.WakeAll()
}

// Stopped reports whether Stop (or the deadline, or a watchdog abort) has
// been requested.
func (e *Execution) Stopped() bool { return e.stopped.Load() }

// quarantine records one failed task. Failures are rare (panics and
// exhausted retries), so a plain mutex-guarded slice is fine.
func (e *Execution) quarantine(f Failure) {
	e.failMu.Lock()
	e.failures = append(e.failures, f)
	e.failMu.Unlock()
}

// pairKey identifies a (value, priority) pair in the retry tracker.
type pairKey struct{ value, priority int64 }

// retryTracker counts how many times each live pair has been re-inserted
// as Blocked. It is only touched on the Blocked path (and, when enabled,
// once per completed task to forget the pair), so a single mutex-guarded
// map is off the hot path by construction. Two concurrently live pairs
// with identical (value, priority) share a budget — acceptable for a
// livelock bound, which only needs "more than N" to be meaningful.
type retryTracker struct {
	mu     sync.Mutex
	counts map[pairKey]int
}

// bump increments and returns the pair's blocked-re-insert count.
func (rt *retryTracker) bump(value, priority int64) int {
	k := pairKey{value, priority}
	rt.mu.Lock()
	if rt.counts == nil {
		rt.counts = make(map[pairKey]int)
	}
	rt.counts[k]++
	n := rt.counts[k]
	rt.mu.Unlock()
	return n
}

// forget clears the pair's count once a copy of it completed, so a later
// same-keyed task starts from a fresh budget.
func (rt *retryTracker) forget(value, priority int64) {
	rt.mu.Lock()
	delete(rt.counts, pairKey{value, priority})
	rt.mu.Unlock()
}

// protectedExecute runs one attempt with panic containment: the injector
// seam is consulted first (stall, injected panic, forced block), then the
// workload's TryExecute runs inside a recover scope. A panic — injected or
// real — comes back as a non-nil error instead of unwinding the worker, so
// one poison task can never kill the process or wedge the termination
// protocol. Tasks the attempt had already spawned before panicking are
// recorded and live on; only the failing task itself is quarantined.
func (e *Execution) protectedExecute(wl Workload, ctx *Ctx, value, priority int64) (st Status, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: TryExecute(value=%d, priority=%d) panicked: %v", value, priority, r)
		}
	}()
	if e.injector != nil {
		inj := e.injector.Inspect(ctx.Worker, value, priority)
		if inj.Stall > 0 {
			time.Sleep(inj.Stall)
		}
		if inj.Panic {
			panic("fault injected")
		}
		if inj.ForceBlocked {
			return Blocked, nil
		}
	}
	return wl.TryExecute(ctx, value, priority), nil
}

// attempt pops one pair through the protected path and settles its
// accounting: Executed/Discarded complete the task, a panic or exhausted
// retry budget quarantines it (also completing it, so quiescence still
// holds), and only a within-budget Blocked returns true for the caller to
// re-insert. Every outcome increments exactly one of the worker's tally
// counters, preserving the Popped = Executed + Discarded + Reinserted +
// Failed identity; completions wait in the tally for the worker's next
// publish.
func (e *Execution) attempt(wl Workload, ctx *Ctx, value, priority int64) (blocked bool) {
	st, err := e.protectedExecute(wl, ctx, value, priority)
	if err != nil {
		ctx.failed++
		e.quarantine(Failure{Worker: ctx.Worker, Value: value, Priority: priority, Kind: Panicked, Err: err})
		ctx.completions++
		return false
	}
	switch st {
	case Executed:
		ctx.executed++
	case Discarded:
		ctx.discarded++
	default: // Blocked
		if e.maxRetries > 0 {
			if n := e.retries.bump(value, priority); n > e.maxRetries {
				ctx.failed++
				e.quarantine(Failure{Worker: ctx.Worker, Value: value, Priority: priority, Kind: RetriesExhausted, Err: ErrRetriesExhausted})
				ctx.completions++
				return false
			}
		}
		ctx.reinserted++
		return true
	}
	if e.maxRetries > 0 {
		e.retries.forget(value, priority)
	}
	ctx.completions++
	return false
}
