package cq

import "relaxsched/internal/rng"

// Handle is a per-worker session on a queue. Backends that keep state per
// worker — an epoch-reclamation slot to pin and a home shard (LockFreeMQ),
// the queue a run of operations is sticking to (MultiQueue: an index and a
// countdown, no buffered elements, Close a no-op) — implement HandleQueue
// and hand out one Handle per worker; everything a worker pushes or pops
// then flows through its handle.
//
// A Handle is single-goroutine: unlike the Queue methods it must not be
// shared. Handing a handle from the creating goroutine to its user is fine;
// concurrent use from two goroutines is not. Close releases the worker's
// backend resources (epoch slot, shard affinity) and must be called when
// the worker is done — a handle abandoned without Close degrades
// reclamation until the garbage collector picks up the pieces, but never
// blocks other workers. A closed handle must not be used again.
//
// The operations follow the Queue/BatchQueue contract exactly: Push panics
// on ReservedPriority, Pop's ok=false means the structure appeared empty,
// and handle operations interleave safely with the queue-level methods and
// with other workers' handles.
type Handle interface {
	// Push inserts a (value, priority) pair.
	Push(r *rng.Xoshiro, value, priority int64)
	// Pop removes and returns a small-rank pair; ok=false if the queue
	// appeared empty.
	Pop(r *rng.Xoshiro) (value, priority int64, ok bool)
	// PushBatch inserts every pair in one coordination round where the
	// backend supports it.
	PushBatch(r *rng.Xoshiro, pairs []Pair)
	// PopBatch removes up to len(dst) small-rank pairs into dst and returns
	// how many were written; 0 means the queue appeared empty.
	PopBatch(r *rng.Xoshiro, dst []Pair) int
	// Close releases the handle's backend resources. The handle must not be
	// used afterwards.
	Close()
}

// HandleQueue is a queue that benefits from per-worker handles. The
// engine's workers and producers detect it and route their traffic through
// pinned handles; the plain Queue/BatchQueue methods keep working for
// callers without a worker identity (each such operation runs on an
// anonymous handle: a pooled one for LockFreeMQ, a throw-away with no
// sticky run for MultiQueue).
type HandleQueue interface {
	BatchQueue
	// NewHandle returns a fresh worker session. Handles are cheap; create
	// one per worker goroutine and Close it when the worker exits.
	NewHandle() Handle
}

// HandleFor returns a worker session on q: q.NewHandle() when the backend
// supports handles, and otherwise a pass-through wrapper whose Close is a
// no-op — so callers can uniformly acquire one handle per worker without
// caring which backend is underneath.
func HandleFor(q BatchQueue) Handle {
	if hq, ok := q.(HandleQueue); ok {
		return hq.NewHandle()
	}
	return queueHandle{q}
}

// queueHandle adapts a handle-less backend to the Handle interface: every
// operation forwards to the shared queue, and Close does nothing.
type queueHandle struct {
	BatchQueue
}

func (queueHandle) Close() {}
