package cq

import (
	"sync"
	"sync/atomic"

	"relaxsched/internal/rng"
)

// MultiQueue is a lock-per-queue concurrent MultiQueue storing (value,
// priority) pairs. Unlike the sequential-model MultiQueue it permits
// duplicate values (parallel SSSP inserts a fresh pair per relaxation and
// filters stale ones on pop, exactly as the check in Algorithm 3 line 8),
// and Pop removes the element it returns.
//
// Each queue caches its top priority in an atomic so that the two-choice
// comparison does not need to take locks; locks are only taken to mutate
// the chosen queue, using TryLock with rerandomization on contention, the
// standard MultiQueue protocol.
// MultiQueue deliberately keeps no global element counter: a shared
// atomic incremented on every push/pop becomes the dominant cache-line
// hot-spot at scale. Len locks queues and is for tests/diagnostics only;
// concurrent algorithms must track their own in-flight counts.
//
// Single-element operations are sticky per worker: a handle (NewHandle)
// that has just locked a queue — by a two-choice Pop or a random Push —
// sends its next stickiness-1 Pushes and Pops to that same queue, so a
// worker's sift-downs walk heap lines its own core wrote last instead of
// lines the other core did. See mqHandle for the rules that keep this
// from ever blocking or hiding an element.
type MultiQueue struct {
	queues []cqueue
	sticky int // operations per sticky run; 1 = a fresh draw every time
}

// stickiness is how many consecutive single-element operations a handle
// sends to one queue (the s of Williams, Sanders & Dementiev, "Engineering
// MultiQueues", ESA 2021). It is relaxation: a run of s pops takes one
// queue's s best pairs, so the effective k of the paper's poly(k) bounds
// grows by a constant factor. Picked from the measured frontier in README
// "Measuring" as the largest s whose overhead_ratio stays <= 1.0025 on
// sssp-road and <= 1.002 on delaunay-uniform.
const stickiness = 16

// emptyTop is the cached top priority of an empty queue.
const emptyTop = ReservedPriority

type cqueue struct {
	_  [64]byte // guard line: keeps the previous element's tail off mu
	mu sync.Mutex
	h  pairHeap // with mu, fills the line: the heap, the run and its head
	// top is read lock-free by every 2-choice probe; its own line keeps
	// probe traffic from bouncing the lock holder's mu/heap line.
	top atomic.Int64
	_   [56]byte
}

// NewMultiQueue returns a concurrent MultiQueue with q internal queues.
func NewMultiQueue(q int) *MultiQueue { return newMultiQueue(q, stickiness) }

// newMultiQueue is NewMultiQueue with the stickiness chosen by the caller,
// so tests can pin the run length (and stickiness 1, no runs at all).
func newMultiQueue(q, sticky int) *MultiQueue {
	if q < 1 {
		panic("cq: need at least one queue")
	}
	c := &MultiQueue{queues: make([]cqueue, q), sticky: sticky}
	for i := range c.queues {
		c.queues[i].top.Store(emptyTop)
	}
	return c
}

// NumQueues returns the number of internal queues.
func (c *MultiQueue) NumQueues() int { return len(c.queues) }

// Len reports the number of stored pairs by locking each queue in turn.
// It is intended for tests and quiescent diagnostics, not hot paths.
func (c *MultiQueue) Len() int {
	total := 0
	for qi := range c.queues {
		q := &c.queues[qi]
		q.mu.Lock()
		total += q.h.len()
		q.mu.Unlock()
	}
	return total
}

// contentionAttempts bounds rerandomized optimistic attempts (TryLock for
// the locked MultiQueue, CAS for the lock-free one) before an operation
// stops spinning and commits to one queue. Unbounded rerandomization can
// livelock a heavily contended structure: with every queue transiently
// locked, a pusher could spin forever without ever parking.
const contentionAttempts = 8

// lockSomeQueue acquires a random queue and returns its index, using
// TryLock with rerandomization for a bounded number of attempts and then
// falling back to a blocking Lock on the last choice, so a push under heavy
// contention parks instead of spinning.
//
//relax:hotpath
func (c *MultiQueue) lockSomeQueue(r *rng.Xoshiro) int {
	var qi int
	for try := 0; try < contentionAttempts; try++ {
		qi = r.Intn(len(c.queues))
		if c.queues[qi].mu.TryLock() {
			return qi
		}
	}
	c.queues[qi].mu.Lock() //relax:allow pinregion: bounded-contention fallback — after contentionAttempts TryLock misses, parking on one queue beats unbounded spinning
	return qi
}

// Push inserts a (value, priority) pair into a random queue. r must be a
// goroutine-local generator. It is the handle's Push on a throw-away
// handle with no sticky run, so it always takes the random-queue path.
//
//relax:hotpath
func (c *MultiQueue) Push(r *rng.Xoshiro, value int64, priority int64) {
	h := mqHandle{c: c}
	h.Push(r, value, priority)
}

// PushBatch inserts every pair into one random queue under a single lock
// acquisition: the TryLock round-trip and the cached-top store are paid
// once per batch instead of once per pair.
//
//relax:hotpath
func (c *MultiQueue) PushBatch(r *rng.Xoshiro, pairs []Pair) {
	if len(pairs) == 0 {
		return
	}
	for _, p := range pairs {
		if p.Priority == ReservedPriority {
			panic("cq: priority MaxInt64 is reserved")
		}
	}
	q := &c.queues[c.lockSomeQueue(r)]
	for _, p := range pairs {
		q.h.push(pair{prio: p.Priority, val: p.Value})
	}
	q.top.Store(q.h.min().prio)
	q.mu.Unlock()
}

// PopBatch removes up to len(dst) pairs from the better of two random
// queues under one lock acquisition. The batch comes from a single queue,
// so its relaxation is that of the two-choice process at batch granularity:
// coordination cost drops by the batch size, rank quality degrades
// gracefully with it.
//
//relax:hotpath
func (c *MultiQueue) PopBatch(r *rng.Xoshiro, dst []Pair) int {
	_, n := c.popBatch(r, dst)
	return n
}

// popBatch is PopBatch that also reports which queue the pairs came from,
// so a handle can stay on it. The probe policy, lock discipline and scan
// fallback of every pop, batched or single, sticky or not, live only here.
//
//relax:hotpath
func (c *MultiQueue) popBatch(r *rng.Xoshiro, dst []Pair) (qi, n int) {
	if len(dst) == 0 {
		return 0, 0
	}
	nq := len(c.queues)
	for try := 0; try < contentionAttempts; try++ {
		i := r.Intn(nq)
		j := r.Intn(nq)
		ti := c.queues[i].top.Load()
		tj := c.queues[j].top.Load()
		best := i
		if tj < ti {
			best = j
			ti = tj
		}
		if ti == emptyTop {
			continue // probed two empty queues; rerandomize
		}
		q := &c.queues[best]
		if !q.mu.TryLock() {
			continue
		}
		n := q.popBatchLocked(dst)
		q.mu.Unlock()
		if n > 0 {
			return best, n
		}
	}
	// Probes kept missing: scan all queues, still batching from the first
	// non-empty one.
	for qi := range c.queues {
		q := &c.queues[qi]
		if q.top.Load() == emptyTop {
			continue
		}
		q.mu.Lock() //relax:allow pinregion: authoritative-scan fallback — a blocking take here is what bounds the probe loop above
		n := q.popBatchLocked(dst)
		q.mu.Unlock()
		if n > 0 {
			return qi, n
		}
	}
	return 0, 0
}

// popBatchLocked pops up to len(dst) pairs from q, which must be locked,
// and refreshes the cached top once.
func (q *cqueue) popBatchLocked(dst []Pair) int {
	n := 0
	for n < len(dst) && q.h.len() > 0 {
		it := q.h.pop()
		dst[n] = Pair{Value: it.val, Priority: it.prio}
		n++
	}
	if q.h.len() > 0 {
		q.top.Store(q.h.min().prio)
	} else {
		q.top.Store(emptyTop)
	}
	return n
}

// Pop removes and returns the better of the tops of two random queues.
// ok is false if the structure appeared empty; with concurrent pushers,
// callers must use their own termination protocol (e.g. an in-flight
// counter) rather than trusting a single !ok. It is the handle's Pop on a
// throw-away handle with no sticky run, so it always takes the two-choice
// path.
//
//relax:hotpath
func (c *MultiQueue) Pop(r *rng.Xoshiro) (value int64, priority int64, ok bool) {
	h := mqHandle{c: c}
	return h.Pop(r)
}

// mqHandle is one worker's session on a MultiQueue: the index of the queue
// it last locked and a countdown of the single-element operations it may
// still send there. That is all of it — a handle buffers no elements, so
// Len, the engine's pre-park re-check and in-flight termination see every
// pair, and Close has nothing to release.
//
// A sticky attempt only ever reads the cached top and TryLocks: a queue
// that looks empty, is held by someone else, or whose countdown is spent
// ends the run, and the operation falls through to the path every
// handle-less caller takes (lockSomeQueue for a Push; popBatch's two-choice
// probes, bounded rerandomisation and authoritative scan for a Pop), whose
// queue starts the next run. So a preempted lock holder never makes a
// sticky worker wait, and Pop's !ok still means every queue looked empty.
// With one queue both paths are the same queue: threads = 1, multiplier =
// 1 stays exact.
//
// PushBatch and PopBatch go straight to the queue: a batch already is a
// sticky run, and it neither uses nor moves the handle's queue.
type mqHandle struct {
	c    *MultiQueue
	q    int // queue of the current sticky run
	left int // operations the run has left; 0 = no run
	// Handles are allocated back to back by workers starting together;
	// the pad keeps two workers' countdowns off one cache line.
	_ [40]byte
}

// NewHandle returns a worker session carrying the sticky-queue state.
func (c *MultiQueue) NewHandle() Handle { return &mqHandle{c: c} }

// Close is a no-op: the handle owns nothing.
func (h *mqHandle) Close() {}

// Push inserts a pair into the handle's sticky queue if it can be locked
// without waiting, and otherwise into a random queue.
//
//relax:hotpath
func (h *mqHandle) Push(r *rng.Xoshiro, value, priority int64) {
	if priority == ReservedPriority {
		panic("cq: priority MaxInt64 is reserved")
	}
	c := h.c
	if h.left > 0 && c.queues[h.q].mu.TryLock() {
		h.left--
	} else {
		h.q, h.left = c.lockSomeQueue(r), c.sticky-1
	}
	q := &c.queues[h.q]
	// q.h.push, spelled out so that both halves inline: through push's
	// call, sssp-road (whose pairs go to the heap) ran 9.5% slower.
	if p := (pair{prio: priority, val: value}); !q.h.pushRun(p) {
		q.h.pushHeap(p)
	}
	q.top.Store(q.h.min().prio)
	q.mu.Unlock()
}

// Pop removes the top of the handle's sticky queue if it is non-empty and
// can be locked without waiting, and otherwise the better of the tops of
// two random queues.
//
//relax:hotpath
func (h *mqHandle) Pop(r *rng.Xoshiro) (value, priority int64, ok bool) {
	c := h.c
	var one [1]Pair
	if h.left > 0 {
		h.left--
		if q := &c.queues[h.q]; q.top.Load() != emptyTop && q.mu.TryLock() {
			n := q.popBatchLocked(one[:])
			q.mu.Unlock()
			if n > 0 {
				return one[0].Value, one[0].Priority, true
			}
		}
	}
	qi, n := c.popBatch(r, one[:])
	if n == 0 {
		h.left = 0
		return 0, 0, false
	}
	h.q, h.left = qi, c.sticky-1
	return one[0].Value, one[0].Priority, true
}

func (h *mqHandle) PushBatch(r *rng.Xoshiro, pairs []Pair) { h.c.PushBatch(r, pairs) }

func (h *mqHandle) PopBatch(r *rng.Xoshiro, dst []Pair) int { return h.c.PopBatch(r, dst) }

// pair is a (priority, value) element of a concurrent queue.
type pair struct {
	prio int64
	val  int64
}

// pairHeap holds one queue's pairs in two places: a sorted run and a 4-ary
// min-heap. Its minimum is the smaller of their two fronts, so it pops in
// exact priority order.
//
// The run is a FIFO of pairs in nondecreasing priority: run[head:] is live.
// A pair no smaller than the run's last pair is appended to it, and a new run
// starts only when the run and the heap are both empty; every other pair goes
// to the heap. Pairs that arrive in priority order — a frontier laid out in
// label order, a stream in job order — cost an append and an index bump
// instead of a sift-up and a sift-down through a heap tens of thousands
// deep. A seeded frontier arrives dealt round-robin by Seed, which counts
// each queue's share first, so its run (and its heap, for the pairs that
// break the order) is allocated once at its final length rather than grown
// by append. Pairs pushed in no order (SSSP's tentative distances: 0.5% of
// sssp-road's pushes reach a run) find the run empty and the heap not, so
// they pay one predictable branch and take the heap as before.
//
// In the heap, the branching factor of 4 halves a binary heap's depth, so
// a sift visits half as many levels. A level's four children (64 bytes) start
// 16 bytes into a cache line with 0-based indexing and so span two lines;
// a layout that aligned them read no faster on sssp-road.
type pairHeap struct {
	a    []pair // the 4-ary heap
	run  []pair // the sorted run; empty means len 0 and head 0
	head int    // index of the run's first live pair
}

const heapArity = 4

func (h *pairHeap) len() int { return len(h.a) + len(h.run) - h.head }

// fromRun reports whether the minimum is the run's front; h must not be
// empty.
func (h *pairHeap) fromRun() bool {
	return len(h.run) != 0 && (len(h.a) == 0 || h.run[h.head].prio <= h.a[0].prio)
}

// min returns the smallest pair; h must not be empty.
func (h *pairHeap) min() *pair {
	if h.fromRun() {
		return &h.run[h.head]
	}
	return &h.a[0]
}

// push adds p to the run if the run takes it and to the heap otherwise.
func (h *pairHeap) push(p pair) {
	if !h.pushRun(p) {
		h.pushHeap(p)
	}
}

// pushRun appends p to the run and reports true if p is no smaller than the
// run's last pair or h is empty; otherwise it leaves h alone.
func (h *pairHeap) pushRun(p pair) bool {
	n := len(h.run)
	if n == 0 && len(h.a) != 0 || n != 0 && p.prio < h.run[n-1].prio {
		return false
	}
	// A full run whose head is past half slides its live pairs to the front
	// instead of growing: each pair copied is paid for by a pop since the
	// last slide, and a run grows only when at least half of it is live.
	if n == cap(h.run) && h.head >= n/2 {
		h.run = h.run[:copy(h.run, h.run[h.head:])]
		h.head = 0
	}
	h.run = append(h.run, p)
	return true
}

func (h *pairHeap) pushHeap(p pair) {
	h.a = append(h.a, p)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if h.a[parent].prio <= h.a[i].prio {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

// pop removes and returns the smallest pair; h must not be empty.
func (h *pairHeap) pop() pair {
	if h.fromRun() {
		p := h.run[h.head]
		if h.head++; h.head == len(h.run) {
			h.run, h.head = h.run[:0], 0
		}
		return p
	}
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= last {
			break
		}
		child := first
		end := first + heapArity
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if h.a[c].prio < h.a[child].prio {
				child = c
			}
		}
		if h.a[i].prio <= h.a[child].prio {
			break
		}
		h.a[i], h.a[child] = h.a[child], h.a[i]
		i = child
	}
	return top
}

var (
	_ Queue       = (*MultiQueue)(nil)
	_ BatchQueue  = (*MultiQueue)(nil)
	_ HandleQueue = (*MultiQueue)(nil)
	_ Handle      = (*mqHandle)(nil)
)
