package cq

import (
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/rng"
)

// With every internal queue held by someone else, Push must exhaust its
// bounded TryLock attempts and park on a blocking Lock — not spin — and
// complete as soon as a queue frees up. This is the bounded-livelock
// guarantee lockSomeQueue documents: under total contention a pusher costs
// a lock wait, never an unbounded rerandomization loop.
func TestPushFallsBackToBlockingLock(t *testing.T) {
	c := NewMultiQueue(4)
	for i := range c.queues {
		c.queues[i].mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Push(rng.New(7), 1, 1)
	}()
	select {
	case <-done:
		t.Fatal("Push completed with every queue locked")
	case <-time.After(20 * time.Millisecond):
		// Parked in the blocking fallback, as intended.
	}
	// Release every queue: whichever one the fallback committed to, the
	// parked Push acquires it and finishes.
	for i := range c.queues {
		c.queues[i].mu.Unlock()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Push did not complete after the queues were released")
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d after the fallback push, want 1", got)
	}
}

// PushBatch shares lockSomeQueue, so the same fallback must hold for the
// batched path.
func TestPushBatchFallsBackToBlockingLock(t *testing.T) {
	c := NewMultiQueue(2)
	for i := range c.queues {
		c.queues[i].mu.Lock()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.PushBatch(rng.New(9), []Pair{{Value: 1, Priority: 1}, {Value: 2, Priority: 2}})
	}()
	select {
	case <-done:
		t.Fatal("PushBatch completed with every queue locked")
	case <-time.After(20 * time.Millisecond):
	}
	for i := range c.queues {
		c.queues[i].mu.Unlock()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("PushBatch did not complete after the queues were released")
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after the fallback batch push, want 2", got)
	}
}

// stickyHandle returns a handle on a fresh MultiQueue of nq queues and
// stickiness s holding n pairs (value = priority = 0..n-1), mid-run: its
// first Pop has just chosen a queue.
func stickyHandle(t *testing.T, nq, s, n int) (*MultiQueue, *mqHandle, *rng.Xoshiro) {
	t.Helper()
	c := newMultiQueue(nq, s)
	r := rng.New(11)
	for i := 0; i < n; i++ {
		c.Push(r, int64(i), int64(i))
	}
	h := c.NewHandle().(*mqHandle)
	if _, _, ok := h.Pop(r); !ok {
		t.Fatal("Pop on a full queue returned !ok")
	}
	if h.left != s-1 {
		t.Fatalf("after the first Pop the run has %d operations left, want s-1 = %d", h.left, s-1)
	}
	return c, h, r
}

// A sticky run is one countdown shared by pops and pushes: the s-1
// operations after a two-choice Pop all land on the queue it chose, and
// the one after that draws afresh.
func TestStickyRunSharedByPopAndPush(t *testing.T) {
	const s = 4
	c, h, r := stickyHandle(t, 4, s, 400)
	q := &c.queues[h.q]
	before := q.h.len()
	h.Push(r, 1000, 1000)
	h.Pop(r)
	h.Push(r, 1001, 1001)
	if h.left != 0 {
		t.Fatalf("%d operations left after s-1 sticky ones, want 0", h.left)
	}
	if got := q.h.len(); got != before+1 {
		t.Fatalf("sticky queue holds %d pairs after push, pop, push; want %d", got, before+1)
	}
	if got := c.Len(); got != 400 {
		t.Fatalf("Len = %d, want 400", got)
	}
	// Spent: the next operation takes the handle-less path and starts over.
	h.Push(r, 1002, 1002)
	if h.left != s-1 {
		t.Fatalf("a Push after a spent run left %d operations, want s-1 = %d", h.left, s-1)
	}
}

// With stickiness 1 a handle is the queue: every operation draws afresh.
func TestStickinessOneNeverSticks(t *testing.T) {
	c, h, r := stickyHandle(t, 4, 1, 64)
	for i := 0; i < 32; i++ {
		h.Push(r, int64(100+i), int64(i))
		h.Pop(r)
		if h.left != 0 {
			t.Fatalf("stickiness 1 left a run of %d", h.left)
		}
	}
	if got := c.Len(); got != 63 {
		t.Fatalf("Len = %d, want 63", got)
	}
}

// A handle whose sticky queue was emptied behind its back falls through to
// the two-choice path and still returns every remaining pair; it reports
// empty only when the structure is.
func TestStickyQueueEmptiedByAnother(t *testing.T) {
	const n = 200
	c, h, r := stickyHandle(t, 4, 8, n)
	q := &c.queues[h.q]
	q.mu.Lock()
	gone := q.popBatchLocked(make([]Pair, n))
	q.mu.Unlock()
	for got := 0; ; got++ {
		if _, _, ok := h.Pop(r); !ok {
			if want := n - 1 - gone; got != want || c.Len() != 0 {
				t.Fatalf("handle reported empty after %d of %d pops, Len = %d", got, want, c.Len())
			}
			break
		}
	}
}

// A sticky attempt never waits for a lock. With the sticky queue held (a
// preempted peer), Pop and Push through the handle finish on other queues
// and leave the held one alone. The test itself holds the lock, so a call
// that waited for it would never return.
func TestStickyHandleNeverWaitsForItsQueue(t *testing.T) {
	c, h, r := stickyHandle(t, 4, 8, 400)
	held := h.q
	q := &c.queues[held]
	q.mu.Lock()
	before := q.h.len()
	if _, _, ok := h.Pop(r); !ok {
		t.Fatal("Pop reported empty with three unlocked queues full")
	}
	if h.q == held {
		t.Fatal("Pop claims to have taken the held queue")
	}
	h.q, h.left = held, 5 // back onto the held queue, mid-run
	h.Push(r, 1000, 1000)
	if h.q == held {
		t.Fatal("Push claims to have taken the held queue")
	}
	if got := q.h.len(); got != before {
		t.Fatalf("held queue went from %d to %d pairs", before, got)
	}
	q.mu.Unlock()
	if got := c.Len(); got != 400-2+1 {
		t.Fatalf("Len = %d, want %d", got, 400-2+1)
	}
}

// BenchmarkPushSingleQueueContended drives every worker at a one-queue
// MultiQueue: nearly all TryLock attempts fail, so the per-push cost is
// dominated by rerandomized retries and the blocking fallback — the path
// TestPushFallsBackToBlockingLock proves correct, priced here. Compare
// with BenchmarkPushSpreadUncontended to see what the fallback costs
// relative to the optimistic hit path.
func BenchmarkPushSingleQueueContended(b *testing.B) {
	c := NewMultiQueue(1)
	var seed atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(seed.Add(1))
		i := int64(0)
		for pb.Next() {
			c.Push(r, i, i)
			i++
		}
	})
}

// BenchmarkPushSpreadUncontended is the optimistic baseline: far more
// queues than pushers, so the first TryLock almost always lands.
func BenchmarkPushSpreadUncontended(b *testing.B) {
	c := NewMultiQueue(64)
	var seed atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(seed.Add(1))
		i := int64(0)
		for pb.Next() {
			c.Push(r, i, i)
			i++
		}
	})
}
