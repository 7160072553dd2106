// Package cq defines the contract for concurrent relaxed priority queues —
// the structures that drive the paper's concurrent regime (Section 7) — and
// provides the backends behind it. The sequential scheduler model
// (internal/sched) abstracts *what* relaxation costs; this package abstracts
// *which concrete concurrent design* pays it, so the runtime (core.ParallelRun),
// the algorithms (sssp.Parallel) and the experiment harness can compare
// backends head-to-head instead of hard-wiring one.
//
// Four backends ship today:
//
//   - MultiQueueBackend: the lock-per-queue MultiQueue — threads x multiplier
//     queues, each a 4-ary heap beside a sorted run that takes the pairs
//     arriving in priority order (an append and an index bump instead of two
//     sifts), uniform 2-choice pops over cached atomic tops, TryLock with
//     bounded rerandomization on contention. Per-worker handles are sticky:
//     a handle sends a run of stickiness (16) consecutive single-element
//     operations to the queue its last two-choice Pop or random Push locked,
//     giving it up the moment that queue looks empty or is held.
//   - SprayListBackend: a lazy lock-based skip list (Herlihy-Shavit style
//     fine-grained locking, logical deletion marks) whose Pop performs a
//     SprayList-style randomized spray walk instead of removing the head.
//   - LockFreeBackend: a lock-free MultiQueue — each queue is a mutable
//     pairing heap behind one atomic root pointer, taken whole by Swap and
//     republished by CAS (ownership transfer), with epoch-based node
//     reclamation and per-worker shard-affine handles; no operation ever
//     blocks another.
//   - ExactBackend: the strict-order control — one binary heap behind one
//     mutex, relaxation factor exactly 1. Not relaxed; it exists so every
//     experiment can price relaxation against strict ordering on the same
//     harness.
//
// All but the exact baseline are relaxed: Pop returns a small-rank
// element, not necessarily the minimum. New backends must pass the shared conformance and race-stress
// suite in cqtest.
//
// On top of the singleton contract sits the batch layer (BatchQueue):
// PushBatch/PopBatch move whole batches per coordination round. MultiQueue
// and LockFreeMQ amortize natively; New wraps the rest in a generic
// fallback so every queue it builds supports the batch API.
//
// Beside it sits the handle layer (Handle, HandleQueue, HandleFor): one
// session per worker, for backends that keep per-worker state. A lock-free
// handle is an epoch slot and a home shard. A MultiQueue handle is a queue
// index and a countdown, nothing else: it holds no elements, its Close is a
// no-op, and like every handle it belongs to one goroutine.
//
// A run's frontier enters through Seed, in one call before any worker
// starts. A MultiQueue deals it round-robin — pair i to queue i mod q, so
// adjacent labels sit in different queues — and sizes each queue's run
// once, at its final length; every other backend takes one handle Push per
// pair.
package cq

import (
	"fmt"
	"math"

	"relaxsched/internal/rng"
)

// ReservedPriority is the one priority value backends may reserve for
// internal sentinels (empty markers, tail nodes). Push panics on it.
const ReservedPriority = math.MaxInt64

// Queue is a concurrent relaxed priority queue over (value, priority)
// pairs. Lower priorities are better. Duplicate values are permitted:
// algorithms without DecreaseKey (e.g. parallel SSSP) insert a fresh pair
// per update and filter stale ones on pop.
//
// All methods except Len are safe for concurrent use. The *rng.Xoshiro
// passed to Push and Pop must be goroutine-local (use rng.Split per
// worker); backends draw their randomized choices from it so runs stay
// deterministic per worker stream.
//
// Pop's ok=false means the structure *appeared* empty. With concurrent
// pushers this is inherently racy — an element mid-push is invisible — so
// callers must layer their own termination protocol (typically an in-flight
// counter: see core.ParallelRun and sssp.Parallel) rather than trusting a
// single !ok.
//
// Conformance contract (enforced by cqtest, which every backend must pass):
//
//   - no element is lost or duplicated under concurrent push/pop;
//   - Push of ReservedPriority panics;
//   - a backend built with threads = 1, queueMultiplier = 1 degenerates to
//     an exact queue under sequential use (pops in priority order);
//   - under the in-flight-counter termination protocol, racing pushers and
//     poppers drain every element.
type Queue interface {
	// Push inserts a (value, priority) pair.
	Push(r *rng.Xoshiro, value, priority int64)
	// Pop removes and returns a small-rank pair; ok=false if the queue
	// appeared empty.
	Pop(r *rng.Xoshiro) (value, priority int64, ok bool)
	// NumQueues reports the number of independent internal structures
	// (shards/queues); 1 for single-structure backends. Diagnostics only.
	NumQueues() int
	// Len reports the number of stored pairs. It may lock internal state
	// and is only meaningful at quiescence; tests and diagnostics only.
	Len() int
}

// Backend names a concurrent queue implementation.
type Backend string

const (
	// MultiQueueBackend is the lock-per-queue MultiQueue with 2-choice pops
	// (the paper's Section 7 structure). This is the default.
	MultiQueueBackend Backend = "multiqueue"
	// SprayListBackend is the lazy lock-based skip list with spray-height
	// pops (Alistarh, Kopinsky, Li & Shavit, PPoPP 2015).
	SprayListBackend Backend = "spraylist"
	// LockFreeBackend is the lock-free MultiQueue: mutable pairing heaps
	// taken and republished through one atomic root per queue, epoch-based
	// node reclamation (internal/epoch) and shard-affine worker handles.
	LockFreeBackend Backend = "lockfree"
	// ExactBackend is the strict-order baseline: one binary heap behind one
	// mutex, relaxation factor exactly 1. It exists as the control arm of
	// every relaxed-vs-strict comparison — under contention its single lock
	// is the bottleneck the relaxed backends dissipate.
	ExactBackend Backend = "exact"
)

// DefaultBackend is used when a Backend field is left at its zero value.
const DefaultBackend = MultiQueueBackend

// registry is the single source of truth for available backends, default
// first; Backends, Valid and New all derive from it. Adding a backend means
// adding one entry here (and making it pass cqtest).
var registry = []struct {
	name  Backend
	build func(threads, queueMultiplier int) Queue
}{
	{MultiQueueBackend, func(t, m int) Queue { return NewMultiQueue(t * m) }},
	{SprayListBackend, func(t, m int) Queue { return NewSprayList(t * m) }},
	{LockFreeBackend, func(t, m int) Queue { return NewLockFreeMQ(t * m) }},
	{ExactBackend, func(t, m int) Queue { return NewExact() }},
}

// Backends returns every registered backend, default first.
func Backends() []Backend {
	out := make([]Backend, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Valid reports whether b names a registered backend ("" counts as the
// default).
func (b Backend) Valid() bool {
	if b == "" {
		return true
	}
	for _, e := range registry {
		if e.name == b {
			return true
		}
	}
	return false
}

// New builds a queue of the given backend sized for a run with the given
// worker count and relaxation multiplier (>= 1 each). For the MultiQueues
// the product threads*queueMultiplier is the number of internal queues (the
// classic configuration uses multiplier 2); for the SprayList it is the
// simulated contention width p that tunes the spray walk. An empty backend
// selects DefaultBackend; an unknown one is an error.
//
// The returned queue always supports the batch API — the return type says
// so: backends without native batch operations are wrapped in the generic
// singleton-looping fallback.
func New(b Backend, threads, queueMultiplier int) (BatchQueue, error) {
	if threads < 1 {
		return nil, fmt.Errorf("cq: need threads >= 1, got %d", threads)
	}
	if queueMultiplier < 1 {
		return nil, fmt.Errorf("cq: need queueMultiplier >= 1, got %d", queueMultiplier)
	}
	if b == "" {
		b = DefaultBackend
	}
	for _, e := range registry {
		if e.name == b {
			return AsBatch(e.build(threads, queueMultiplier)), nil
		}
	}
	return nil, fmt.Errorf("cq: unknown backend %q (have %v)", b, Backends())
}
