package cq

import (
	"slices"
	"sort"
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

// pairHeapPaths counts which way pairHeapOrder's pushes went, so a test can
// show that its inputs reach every path.
type pairHeapPaths struct {
	restarts     int // a push into an empty pairHeap: a new run
	runAppends   int // a push that extended a live run
	slides       int // ... into a full run whose head was past half
	heapWhileRun int // an out-of-order push while a run was live
}

// pairHeapOrder applies one operation per byte of ops to a pairHeap and to
// a sorted reference. Every pop must return the reference's minimum
// priority (the exact minimum: the run must never hide a smaller heap pair,
// nor the heap a smaller run pair) and a pair the reference holds; every
// push must go where the run's rule sends it; after every operation both
// hold the same number of pairs and the pairHeap's invariants hold.
//
// Byte b: b>>6 picks the operation, b&63 its argument.
//
//	0: push last + b&3 (in order; 0 is a tie)
//	1: push last − 1 − b&15 (out of order)
//	2: pop 1 + b&15 pairs, or as many as are held
//	3: push a burst of 1 + b&31 in-order pairs with ties, or drain to
//	   empty when b&32 is set
func pairHeapOrder(t *testing.T, ops []byte) pairHeapPaths {
	t.Helper()
	var (
		h     pairHeap
		ref   []pair // ascending by priority
		paths pairHeapPaths
		last  int64 // priority of the latest push
		next  int64 // value of the latest push
	)
	push := func(prio int64) {
		next++
		p := pair{prio: prio, val: next}
		heapBefore, headBefore, empty := len(h.a), h.head, h.len() == 0
		inOrder := len(h.run) != 0 && h.run[len(h.run)-1].prio <= prio
		h.push(p)
		toHeap := len(h.a) > heapBefore
		switch {
		case empty:
			if toHeap {
				t.Fatalf("push of %d into an empty pairHeap went to the heap", prio)
			}
			paths.restarts++
		case inOrder:
			if toHeap {
				t.Fatalf("in-order push of %d went to the heap", prio)
			}
			paths.runAppends++
			if headBefore > 0 && h.head == 0 {
				paths.slides++
			}
		case !toHeap:
			t.Fatalf("push of %d extended a run it does not fit", prio)
		case len(h.run) != 0:
			paths.heapWhileRun++
		}
		i := sort.Search(len(ref), func(i int) bool { return ref[i].prio > prio })
		ref = slices.Insert(ref, i, p)
		last = prio
	}
	pop := func() {
		got := h.pop()
		end := sort.Search(len(ref), func(i int) bool { return ref[i].prio > ref[0].prio })
		i := slices.Index(ref[:end], got)
		if i < 0 {
			t.Fatalf("pop returned %+v; the minimum priority held is %d", got, ref[0].prio)
		}
		ref = slices.Delete(ref, i, i+1)
	}
	for k, b := range ops {
		arg := int(b & 63)
		switch b >> 6 {
		case 0:
			push(last + int64(arg&3))
		case 1:
			push(last - 1 - int64(arg&15))
		case 2:
			for n := 1 + arg&15; n > 0 && len(ref) > 0; n-- {
				pop()
			}
		case 3:
			if arg&32 != 0 {
				for len(ref) > 0 {
					pop()
				}
				break
			}
			for n := 0; n <= arg&31; n++ {
				push(last + int64(n&1))
			}
		}
		if h.len() != len(ref) {
			t.Fatalf("op %d (%#02x): len = %d, reference holds %d", k, b, h.len(), len(ref))
		}
		if len(ref) > 0 && h.min().prio != ref[0].prio {
			t.Fatalf("op %d (%#02x): min = %d, reference minimum %d", k, b, h.min().prio, ref[0].prio)
		}
		checkPairHeap(t, &h)
	}
	return paths
}

// checkPairHeap fails unless h's run is sorted, its head is in range (and
// 0 when the run is empty), and its heap is a heap.
func checkPairHeap(t *testing.T, h *pairHeap) {
	t.Helper()
	if len(h.run) == 0 && h.head != 0 || len(h.run) != 0 && h.head >= len(h.run) {
		t.Fatalf("run head %d with %d pairs in the run", h.head, len(h.run))
	}
	for i := h.head + 1; i < len(h.run); i++ {
		if h.run[i].prio < h.run[i-1].prio {
			t.Fatalf("run out of order at %d: %d after %d", i, h.run[i].prio, h.run[i-1].prio)
		}
	}
	for i := 1; i < len(h.a); i++ {
		if parent := (i - 1) / heapArity; h.a[parent].prio > h.a[i].prio {
			t.Fatalf("heap out of order at %d: %d below %d", i, h.a[i].prio, h.a[parent].prio)
		}
	}
}

// The pairHeap pops its exact minimum whatever mix of ordered and unordered
// pushes it takes. The generated strings reach every path of push: a run
// restarting in an empty pairHeap, runs extended (with ties) and slid to the
// front when full, and out-of-order pairs landing in the heap beside a live
// run.
func TestPairHeapOrder(t *testing.T) {
	r := rng.New(2015)
	var total pairHeapPaths
	for _, length := range []int{0, 1, 16, 256, 4096} {
		for rep := 0; rep < 16; rep++ {
			ops := make([]byte, length)
			for i := range ops {
				ops[i] = byte(r.Intn(256))
			}
			p := pairHeapOrder(t, ops)
			total.restarts += p.restarts
			total.runAppends += p.runAppends
			total.slides += p.slides
			total.heapWhileRun += p.heapWhileRun
		}
	}
	if total.restarts == 0 || total.runAppends == 0 || total.slides == 0 || total.heapWhileRun == 0 {
		t.Fatalf("generated strings missed a path of push: %+v", total)
	}
	t.Logf("push paths: %+v", total)
}

// A full run whose head is past half slides its live pairs to the front
// instead of growing; one whose head is not grows.
func TestPairHeapRunSlides(t *testing.T) {
	var h pairHeap
	for i := int64(0); len(h.run) < 8 || len(h.run) < cap(h.run); i++ {
		h.push(pair{prio: i, val: i})
	}
	n, c := len(h.run), cap(h.run)
	for h.head < n/2 {
		h.pop()
	}
	h.push(pair{prio: int64(n), val: int64(n)})
	if cap(h.run) != c || h.head != 0 || len(h.run) != n-n/2+1 {
		t.Fatalf("after a slide: cap %d (was %d), head %d, len %d; want cap %d, head 0, len %d",
			cap(h.run), c, h.head, len(h.run), c, n-n/2+1)
	}
	for len(h.run) < cap(h.run) {
		h.push(pair{prio: int64(n), val: int64(n)})
	}
	h.pop() // head 1: less than half
	h.push(pair{prio: int64(n), val: int64(n)})
	if cap(h.run) == c || h.head != 1 {
		t.Fatalf("a full run with head 1 did not grow: cap %d, head %d", cap(h.run), h.head)
	}
	for want := int64(n/2 + 1); h.len() > 0; {
		if p := h.pop(); p.prio != min(want, int64(n)) {
			t.Fatalf("popped %d, want %d", p.prio, min(want, int64(n)))
		}
		want++
	}
	if len(h.run) != 0 || h.head != 0 {
		t.Fatalf("a drained run kept len %d, head %d", len(h.run), h.head)
	}
}

// FuzzPairHeapOrder searches for an operation string on which the pairHeap
// pops something other than its exact minimum, or breaks the run's rule.
// The seed corpus runs under plain go test; CI fuzzes for a few seconds.
func FuzzPairHeapOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x00, 0x80, 0x02}) // in order with a tie, pop, extend
	f.Add([]byte{0xdf, 0x03, 0x4f, 0x45, 0x8f}) // a burst, two out of order, pops
	f.Add([]byte{0xdf, 0xe0, 0x02, 0x41, 0x80}) // a burst, drain, restart, out of order, pop
	f.Add([]byte{0xdf, 0x8f, 0x00})             // fill a run, pop half of it, slide
	f.Fuzz(func(t *testing.T, ops []byte) { pairHeapOrder(t, ops) })
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
