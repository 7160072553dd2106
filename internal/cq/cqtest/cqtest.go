// Package cqtest is the shared conformance and race-stress suite for cq
// backends. Every backend must pass it (run the suite with -race in CI):
// future backends are drop-in exactly when cqtest.Run accepts them.
//
// The suite checks the contract documented on cq.Queue: no element lost or
// duplicated under concurrent push/pop, exactness in the unrelaxed
// configuration, approximate-minimum quality of relaxed pops, panics on the
// reserved priority, and — the subtlest clause — termination under the
// in-flight-counter protocol when poppers race pushers, i.e. when Pop
// transiently reports empty while an element is mid-push (the
// Pop/scanPop empty-vs-racing-pusher edge that core.ParallelRun and
// sssp.Parallel rely on).
//
// It also checks the batch layer (cq.BatchQueue) through every backend:
// PushBatch/PopBatch lose no elements, cross safely with singleton ops
// under concurrency, degenerate to exact priority order when unrelaxed,
// and reject the reserved priority — whether the backend implements
// batching natively or through the generic fallback.
//
// And it pins the per-worker handle contract (cq.Handle) for every
// backend, by counting, never by timing: a handle keeps no element to
// itself (whatever another handle leaves behind it still returns, and it
// reports empty only when the queue is), one handle's pops stay within a
// stated rank of the minimum, and any string of handle and queue
// operations moves the same multiset as the exact backend does
// (HandleVsExact, which cq's FuzzHandleVsExact drives).
package cqtest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/rng"
)

// Factory builds a fresh queue for a simulated run shape, mirroring
// cq.New's sizing parameters. The passed t is the invoking subtest's, so
// construction failures are reported on the right test.
type Factory func(t *testing.T, threads, queueMultiplier int) cq.Queue

// ForBackend adapts cq.New for a named backend into a Factory, failing the
// invoking subtest on construction errors.
func ForBackend(b cq.Backend) Factory {
	return func(t *testing.T, threads, queueMultiplier int) cq.Queue {
		t.Helper()
		q, err := cq.New(b, threads, queueMultiplier)
		if err != nil {
			t.Fatalf("cq.New(%q, %d, %d): %v", b, threads, queueMultiplier, err)
		}
		return q
	}
}

// Run executes the full conformance and stress suite against the backend.
func Run(t *testing.T, newQueue Factory) {
	t.Run("EmptyPop", func(t *testing.T) { testEmptyPop(t, newQueue) })
	t.Run("ExactWhenUnrelaxed", func(t *testing.T) { testExactWhenUnrelaxed(t, newQueue) })
	t.Run("ValuesPreservedSequential", func(t *testing.T) { testValuesPreservedSequential(t, newQueue) })
	t.Run("ApproxMin", func(t *testing.T) { testApproxMin(t, newQueue) })
	t.Run("ReservedPriorityPanics", func(t *testing.T) { testReservedPriorityPanics(t, newQueue) })
	t.Run("ConcurrentValuesPreserved", func(t *testing.T) { testConcurrentValuesPreserved(t, newQueue) })
	t.Run("RacingPushersTermination", func(t *testing.T) { testRacingPushersTermination(t, newQueue) })
	t.Run("OrderedStreams", func(t *testing.T) { testOrderedStreams(t, newQueue) })
	t.Run("BatchSequentialDrain", func(t *testing.T) { testBatchSequentialDrain(t, newQueue) })
	t.Run("BatchExactWhenUnrelaxed", func(t *testing.T) { testBatchExactWhenUnrelaxed(t, newQueue) })
	t.Run("BatchReservedPriorityPanics", func(t *testing.T) { testBatchReservedPriorityPanics(t, newQueue) })
	t.Run("BatchConcurrentValuesPreserved", func(t *testing.T) { testBatchConcurrentValuesPreserved(t, newQueue) })
	t.Run("ScalingSmoke", func(t *testing.T) { testScalingSmoke(t, newQueue) })
	t.Run("HandleConformance", func(t *testing.T) { testHandleConformance(t, newQueue) })
	t.Run("HandleInjectedDeath", func(t *testing.T) { testHandleInjectedDeath(t, newQueue) })
	t.Run("HandleFallThrough", func(t *testing.T) { testHandleFallThrough(t, newQueue) })
	t.Run("HandleRankBound", func(t *testing.T) { testHandleRankBound(t, newQueue) })
	t.Run("HandleVsExact", func(t *testing.T) { testHandleVsExact(t, newQueue) })
	t.Run("AllocSteadyState", func(t *testing.T) { testAllocSteadyState(t, newQueue) })
}

// stressTimeout bounds every concurrent subtest so a termination bug shows
// up as a failure, not a hung test binary.
const stressTimeout = 60 * time.Second

// waitOrFatal waits for wg or fails the test after stressTimeout.
func waitOrFatal(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(stressTimeout):
		t.Fatalf("%s did not finish within %v (termination bug?)", what, stressTimeout)
	}
}

func testEmptyPop(t *testing.T, newQueue Factory) {
	q := newQueue(t, 2, 2)
	r := rng.New(1)
	if _, _, ok := q.Pop(r); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d on empty queue", n)
	}
	if nq := q.NumQueues(); nq < 1 {
		t.Fatalf("NumQueues = %d, want >= 1", nq)
	}
}

func testExactWhenUnrelaxed(t *testing.T, newQueue Factory) {
	// threads = 1, multiplier = 1 must degenerate to an exact queue under
	// sequential use: this anchors every backend's relaxation knob to the
	// same origin, so backend comparisons sweep from a common baseline.
	q := newQueue(t, 1, 1)
	r := rng.New(7)
	const n = 512
	for _, p := range r.Perm(n) {
		q.Push(r, int64(p), int64(p))
	}
	for want := 0; want < n; want++ {
		v, p, ok := q.Pop(r)
		if !ok {
			t.Fatalf("queue empty after %d of %d pops", want, n)
		}
		if p != int64(want) || v != int64(want) {
			t.Fatalf("pop %d returned (v=%d, p=%d), want (%d, %d)", want, v, p, want, want)
		}
	}
	if _, _, ok := q.Pop(r); ok {
		t.Fatal("pop after drain returned ok")
	}
}

func testValuesPreservedSequential(t *testing.T, newQueue Factory) {
	q := newQueue(t, 2, 2)
	r := rng.New(3)
	const n = 2000
	for i := 0; i < n; i++ {
		q.Push(r, int64(i), int64(i%7)) // duplicate priorities allowed
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	seen := make([]bool, n)
	for {
		v, _, ok := q.Pop(r)
		if !ok {
			break
		}
		if v < 0 || v >= n {
			t.Fatalf("popped alien value %d", v)
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("value %d lost", i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func testApproxMin(t *testing.T, newQueue Factory) {
	// A relaxed pop need not return the minimum, but it must return a
	// small-rank element. N/4 is an extremely generous bound: the
	// MultiQueue's 2-choice pop and the SprayList's spray both land within
	// O(poly(p) polylog(N)) of the front with overwhelming probability.
	const (
		n      = 4096
		trials = 3
	)
	for trial := 0; trial < trials; trial++ {
		q := newQueue(t, 4, 2)
		r := rng.New(100 + uint64(trial))
		for _, p := range r.Perm(n) {
			q.Push(r, int64(p), int64(p))
		}
		_, p, ok := q.Pop(r)
		if !ok {
			t.Fatal("pop of full queue returned !ok")
		}
		if p >= n/4 {
			t.Fatalf("trial %d: first pop rank %d of %d — not an approximate min", trial, p, n)
		}
	}
}

func testReservedPriorityPanics(t *testing.T, newQueue Factory) {
	q := newQueue(t, 1, 1)
	r := rng.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Push(ReservedPriority) did not panic")
		}
	}()
	q.Push(r, 0, cq.ReservedPriority)
}

func testConcurrentValuesPreserved(t *testing.T, newQueue Factory) {
	// Mixed concurrent push/pop; afterwards every value must have been
	// popped exactly once. Run with -race for the full effect.
	const (
		goroutines = 8
		perG       = 4000
	)
	q := newQueue(t, goroutines, 2)
	seen := make([]atomic.Bool, goroutines*perG)
	var popped atomic.Int64
	record := func(v int64) {
		if seen[v].Swap(true) {
			t.Errorf("value %d popped twice", v)
		}
		popped.Add(1)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for i := 0; i < perG; i++ {
				q.Push(r, int64(g*perG+i), int64(r.Intn(1<<20)))
				if i%2 == 1 {
					if v, _, ok := q.Pop(r); ok {
						record(v)
					}
				}
			}
		}(g)
	}
	waitOrFatal(t, &wg, "concurrent push/pop stress")
	r := rng.New(99)
	for {
		v, _, ok := q.Pop(r)
		if !ok {
			break
		}
		record(v)
	}
	if got := popped.Load(); got != goroutines*perG {
		t.Fatalf("popped %d values total, want %d", got, goroutines*perG)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// testBatchSequentialDrain crosses the batch and singleton paths in both
// directions: values pushed in batches must come back out through singleton
// pops and vice versa, with nothing lost or duplicated. Queues built by
// cq.New always support the batch API (natively or via the generic
// fallback); AsBatch covers factories that hand back bare queues.
func testBatchSequentialDrain(t *testing.T, newQueue Factory) {
	q := cq.AsBatch(newQueue(t, 2, 2))
	r := rng.New(17)
	const n = 2048
	const batch = 64
	// Half the values go in through PushBatch, half through Push.
	buf := make([]cq.Pair, 0, batch)
	for v := 0; v < n/2; v++ {
		buf = append(buf, cq.Pair{Value: int64(v), Priority: int64(v % 97)})
		if len(buf) == batch {
			q.PushBatch(r, buf)
			buf = buf[:0]
		}
	}
	q.PushBatch(r, buf)
	for v := n / 2; v < n; v++ {
		q.Push(r, int64(v), int64(v%97))
	}
	if q.Len() != n {
		t.Fatalf("Len = %d after pushes, want %d", q.Len(), n)
	}
	// Half come out through PopBatch, the rest through singleton pops.
	seen := make([]bool, n)
	record := func(v int64) {
		if v < 0 || v >= n {
			t.Fatalf("popped alien value %d", v)
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	got := 0
	dst := make([]cq.Pair, batch)
	for got < n/2 {
		k := q.PopBatch(r, dst)
		if k == 0 {
			t.Fatalf("PopBatch empty after %d of %d", got, n)
		}
		for _, p := range dst[:k] {
			record(p.Value)
		}
		got += k
	}
	for {
		v, _, ok := q.Pop(r)
		if !ok {
			break
		}
		record(v)
		got++
	}
	if got != n {
		t.Fatalf("drained %d of %d values", got, n)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
	if k := q.PopBatch(r, dst); k != 0 {
		t.Fatalf("PopBatch on empty queue returned %d", k)
	}
	q.PushBatch(r, nil) // empty batch is a no-op, not a panic
	if k := q.PopBatch(r, nil); k != 0 {
		t.Fatalf("PopBatch with empty dst returned %d", k)
	}
}

// testBatchExactWhenUnrelaxed anchors the batch path to the same origin as
// the singleton path: with one internal structure under sequential use,
// PopBatch must return elements in priority order within and across
// batches.
func testBatchExactWhenUnrelaxed(t *testing.T, newQueue Factory) {
	q := cq.AsBatch(newQueue(t, 1, 1))
	r := rng.New(23)
	const n = 512
	perm := r.Perm(n)
	pairs := make([]cq.Pair, 0, n)
	for _, p := range perm {
		pairs = append(pairs, cq.Pair{Value: int64(p), Priority: int64(p)})
	}
	q.PushBatch(r, pairs)
	dst := make([]cq.Pair, 30) // deliberately not a divisor of n
	want := int64(0)
	for want < n {
		k := q.PopBatch(r, dst)
		if k == 0 {
			t.Fatalf("queue empty after %d of %d batch pops", want, n)
		}
		for _, p := range dst[:k] {
			if p.Priority != want || p.Value != want {
				t.Fatalf("batch pop returned (v=%d, p=%d), want (%d, %d)", p.Value, p.Priority, want, want)
			}
			want++
		}
	}
}

func testBatchReservedPriorityPanics(t *testing.T, newQueue Factory) {
	q := cq.AsBatch(newQueue(t, 1, 1))
	r := rng.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("PushBatch containing ReservedPriority did not panic")
		}
	}()
	q.PushBatch(r, []cq.Pair{{Value: 1, Priority: 3}, {Value: 0, Priority: cq.ReservedPriority}})
}

// testBatchConcurrentValuesPreserved interleaves batch and singleton
// operations across racing goroutines; afterwards every value must have
// been popped exactly once. Run with -race for the full effect.
func testBatchConcurrentValuesPreserved(t *testing.T, newQueue Factory) {
	const (
		goroutines = 8
		perG       = 3000
		batch      = 16
	)
	q := cq.AsBatch(newQueue(t, goroutines, 2))
	seen := make([]atomic.Bool, goroutines*perG)
	var popped atomic.Int64
	record := func(v int64) {
		if seen[v].Swap(true) {
			t.Errorf("value %d popped twice", v)
		}
		popped.Add(1)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			out := make([]cq.Pair, 0, batch)
			dst := make([]cq.Pair, batch)
			for i := 0; i < perG; i++ {
				v := int64(g*perG + i)
				if g%2 == 0 { // even goroutines push batches, odd singletons
					out = append(out, cq.Pair{Value: v, Priority: int64(r.Intn(1 << 20))})
					if len(out) == batch {
						q.PushBatch(r, out)
						out = out[:0]
					}
				} else {
					q.Push(r, v, int64(r.Intn(1<<20)))
				}
				if i%3 == 2 {
					if g%2 == 1 { // odd goroutines pop batches, even singletons
						for _, p := range dst[:q.PopBatch(r, dst[:1+r.Intn(batch)])] {
							record(p.Value)
						}
					} else if v, _, ok := q.Pop(r); ok {
						record(v)
					}
				}
			}
			q.PushBatch(r, out)
		}(g)
	}
	waitOrFatal(t, &wg, "concurrent batch/singleton stress")
	r := rng.New(99)
	dst := make([]cq.Pair, batch)
	for {
		k := q.PopBatch(r, dst)
		if k == 0 {
			break
		}
		for _, p := range dst[:k] {
			record(p.Value)
		}
	}
	// A final singleton sweep catches anything PopBatch's probes missed.
	for {
		v, _, ok := q.Pop(r)
		if !ok {
			break
		}
		record(v)
	}
	if got := popped.Load(); got != goroutines*perG {
		t.Fatalf("popped %d values total, want %d", got, goroutines*perG)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// testScalingSmoke guards against the failure mode whose fix this suite
// postdates: per-pop cost growing with the simulated contention width
// until adding threads *lowers* pop throughput (the SprayList's negative
// thread-scaling — every pop paid a full-height search to unlink its
// victim, and failed claims rescanned from the head). It prefills a threads-wide queue and times a full drain
// by one popper vs threads poppers; the concurrent drain must retain a
// quarter of the single-popper rate. The tolerance is deliberately
// generous — this runs under -race, on shared CI machines, and on 1-core
// containers where extra poppers are pure oversubscription — so it trips
// on collapses, not on regressions of degree.
func testScalingSmoke(t *testing.T, newQueue Factory) {
	const (
		threads   = 4
		n         = 24000
		tolerance = 0.25
	)
	measure := func(poppers int) float64 {
		// Same queue shape in both runs — only the popper count varies, so
		// the comparison isolates concurrent-drain behaviour from the
		// structure's p parameter.
		q := newQueue(t, threads, 2)
		r := rng.New(9)
		for i := 0; i < n; i++ {
			q.Push(r, int64(i), int64(r.Intn(1<<20)))
		}
		var popped atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < poppers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rr := rng.New(uint64(100 + g))
				for popped.Load() < n {
					if _, _, ok := q.Pop(rr); ok {
						popped.Add(1)
					}
				}
			}(g)
		}
		waitOrFatal(t, &wg, "scaling-smoke drain")
		elapsed := time.Since(start)
		if got := popped.Load(); got != n {
			t.Fatalf("%d poppers drained %d of %d", poppers, got, n)
		}
		return float64(n) / elapsed.Seconds()
	}
	// Best-of-two per configuration: a single sample is at the mercy of a
	// GC cycle or a noisy CI neighbour.
	best := func(poppers int) float64 {
		a, b := measure(poppers), measure(poppers)
		if a > b {
			return a
		}
		return b
	}
	single := best(1)
	multi := best(threads)
	if multi < single*tolerance {
		t.Fatalf("pop throughput collapsed with poppers: %d poppers %.2g pops/s vs 1 popper %.2g pops/s (tolerance %.2gx)",
			threads, multi, single, tolerance)
	}
	t.Logf("drain throughput: 1 popper %.3g pops/s, %d poppers %.3g pops/s (%.2fx)",
		single, threads, multi, multi/single)
}

// testHandleConformance runs the per-worker session path (cq.HandleFor)
// through every backend: handle-less backends get the pass-through wrapper,
// handle backends (cq.HandleQueue) get real sessions with epoch slots and
// home shards. Each worker routes all its traffic through one pinned handle
// — exactly the engine's usage — racing queue-level operations from a
// coordinator; every value must come back exactly once, and Close must
// leave the remaining workers fully operational (the worker-death case).
func testHandleConformance(t *testing.T, newQueue Factory) {
	const (
		workers = 8
		perW    = 3000
	)
	q := cq.AsBatch(newQueue(t, workers, 2))
	// Value space: workers*perW from the main loops, 64 per surviving
	// worker, perW from the coordinator.
	seen := make([]atomic.Bool, workers*perW+workers*64+perW)
	var popped atomic.Int64
	record := func(v int64) {
		if seen[v].Swap(true) {
			t.Errorf("value %d popped twice", v)
		}
		popped.Add(1)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := cq.HandleFor(q)
			r := rng.New(uint64(g) + 1)
			dst := make([]cq.Pair, 8)
			for i := 0; i < perW; i++ {
				v := int64(g*perW + i)
				if i%4 == 3 {
					h.PushBatch(r, []cq.Pair{{Value: v, Priority: int64(r.Intn(1 << 20))}})
				} else {
					h.Push(r, v, int64(r.Intn(1<<20)))
				}
				switch i % 3 {
				case 1:
					if v, _, ok := h.Pop(r); ok {
						record(v)
					}
				case 2:
					for _, p := range dst[:h.PopBatch(r, dst)] {
						record(p.Value)
					}
				}
			}
			if g%2 == 0 {
				h.Close() // half the workers die early with live elements around
			} else {
				defer h.Close()
				// Survivors keep operating after the early closers are gone.
				for i := 0; i < 64; i++ {
					h.Push(r, int64(workers*perW+g*64+i), int64(r.Intn(1<<20)))
					if v, _, ok := h.Pop(r); ok {
						record(v)
					}
				}
			}
		}(g)
	}
	// Queue-level traffic interleaves with the handles throughout.
	wg.Add(1)
	var coordPushed atomic.Int64
	go func() {
		defer wg.Done()
		r := rng.New(777)
		for i := 0; i < perW; i++ {
			q.Push(r, int64(workers*perW+workers*64+i), int64(r.Intn(1<<20)))
			coordPushed.Add(1)
			if i%2 == 1 {
				if v, _, ok := q.Pop(r); ok {
					record(v)
				}
			}
		}
	}()
	waitOrFatal(t, &wg, "handle conformance stress")
	// Drain through a fresh handle — it must see everything, including
	// elements pushed by since-closed handles.
	h := cq.HandleFor(q)
	defer h.Close()
	r := rng.New(99)
	dst := make([]cq.Pair, 32)
	for {
		k := h.PopBatch(r, dst)
		if k == 0 {
			break
		}
		for _, p := range dst[:k] {
			record(p.Value)
		}
	}
	total := int64(workers*perW) + int64(workers/2)*64 + coordPushed.Load()
	if got := popped.Load(); got != total {
		t.Fatalf("recovered %d of %d values through handles", got, total)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// testHandleInjectedDeath drives seeded chaos through pinned handles and
// kills half of them abruptly mid-run: a doomed worker stalls (a scheduler
// hiccup at the worst moment) at a seeded point and then Closes its handle
// with its own live elements still in the queue and the rest of its
// workload never pushed. The contract under test is the worker-death
// clause of cq.HandleQueue: a closed handle must hand its session state
// (epoch slot, accumulated free list) back to the queue, so survivors and
// a post-mortem fresh handle recover every pushed value exactly once —
// and, for recycling backends, node reuse must keep working after the
// deaths: a leaked epoch pin would dam reclamation and drive steady-state
// allocations back up to one per push.
func testHandleInjectedDeath(t *testing.T, newQueue Factory) {
	const (
		workers = 8
		perW    = 2000
	)
	raw := newQueue(t, workers, 2)
	q := cq.AsBatch(raw)
	seen := make([]atomic.Bool, workers*perW)
	var popped atomic.Int64
	record := func(v int64) {
		if seen[v].Swap(true) {
			t.Errorf("value %d popped twice", v)
		}
		popped.Add(1)
	}
	// Written by each worker before wg.Done, read after the Wait — the
	// WaitGroup provides the happens-before edge.
	pushed := make([]int64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := cq.HandleFor(q)
			r := rng.New(uint64(g)*0x9e3779b97f4a7c15 + 555)
			deathAt := perW/4 + r.Intn(perW/2)
			count := int64(0)
			dst := make([]cq.Pair, 8)
			for i := 0; i < perW; i++ {
				if g%2 == 0 && i == deathAt {
					// Injected death: stall, then die without draining.
					time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond)
					h.Close()
					pushed[g] = count
					return
				}
				v := int64(g*perW + i)
				if i%4 == 3 {
					h.PushBatch(r, []cq.Pair{{Value: v, Priority: int64(r.Intn(1 << 20))}})
				} else {
					h.Push(r, v, int64(r.Intn(1<<20)))
				}
				count++
				switch i % 3 {
				case 1:
					if v, _, ok := h.Pop(r); ok {
						record(v)
					}
				case 2:
					for _, p := range dst[:h.PopBatch(r, dst)] {
						record(p.Value)
					}
				}
			}
			h.Close()
			pushed[g] = count
		}(g)
	}
	waitOrFatal(t, &wg, "injected-death stress")
	// Post-mortem: a fresh handle must see every surviving element,
	// including those pushed by the since-dead handles.
	h := cq.HandleFor(q)
	defer h.Close()
	r := rng.New(4242)
	dst := make([]cq.Pair, 32)
	for {
		k := h.PopBatch(r, dst)
		if k == 0 {
			break
		}
		for _, p := range dst[:k] {
			record(p.Value)
		}
	}
	var total int64
	for _, c := range pushed {
		total += c
	}
	if got := popped.Load(); got != total {
		t.Fatalf("recovered %d of %d values pushed before the deaths", got, total)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after post-mortem drain", q.Len())
	}
	// Reclamation liveness after the deaths: with every doomed handle
	// closed, retired nodes must still mature into free lists. A dead
	// handle that kept an epoch pinned would block reuse forever.
	if rec, ok := raw.(cq.Recycler); ok && rec.RecyclesNodes() {
		for i := 0; i < 8192; i++ {
			h.Push(r, int64(i%perW), int64(r.Intn(1<<16)))
			h.Pop(r)
		}
		perOp := testing.AllocsPerRun(2000, func() {
			h.Push(r, 1, int64(r.Intn(1<<16)))
			h.Pop(r)
		}) / 2
		if perOp > 0.25 {
			t.Fatalf("post-death steady state allocated %.3f allocs/op; the dead handles blocked reclamation", perOp)
		}
		t.Logf("post-death steady-state allocations: %.3f allocs/op (gated <= 0.25)", perOp)
	}
}

// testHandleFallThrough pins that a handle holds no element and no claim on
// a queue: whatever state its earlier operations left it in (a sticky
// queue, a home shard), once another handle has taken elements away it
// must still return every pair that remains, and report empty only when
// the structure is empty. Sequential, so Len is exact at every step.
func testHandleFallThrough(t *testing.T, newQueue Factory) {
	q := cq.AsBatch(newQueue(t, 2, 2))
	a, b := cq.HandleFor(q), cq.HandleFor(q)
	defer a.Close()
	defer b.Close()
	r := rng.New(61)
	next := int64(0)
	for round := 0; round < 300; round++ {
		n := 1 + r.Intn(48)
		live := make(map[int64]bool, n)
		for i := 0; i < n; i++ {
			a.Push(r, next, int64(r.Intn(1<<10)))
			live[next] = true
			next++
		}
		take := func(h cq.Handle, who string) bool {
			v, _, ok := h.Pop(r)
			if !ok {
				if left := q.Len(); left != 0 {
					t.Fatalf("round %d: handle %s reported empty with %d pairs queued", round, who, left)
				}
				return false
			}
			if !live[v] {
				t.Fatalf("round %d: handle %s popped %d, which is not queued", round, who, v)
			}
			delete(live, v)
			return true
		}
		// a pops once, so its next pops have somewhere to stick to; b then
		// takes a random share — often all of a's queue, sometimes all of
		// every queue — and a must find whatever is left.
		take(a, "a")
		for k := r.Intn(n + 1); k > 0 && take(b, "b"); k-- {
		}
		for take(a, "a") {
		}
		if len(live) != 0 {
			t.Fatalf("round %d: %d pairs never came back", round, len(live))
		}
	}
}

// rankBoundPerQueue states the rank contract of a handle: one handle
// draining a queue built from q internal structures pops, on average, a
// pair of rank at most rankBoundPerQueue*q among those still queued. It is
// c*s for the MultiQueue's stickiness s = 16 (a run of s pops takes one
// queue's s best, which are spread over about s*q global ranks) with
// c = 1; every other backend sits far below it. Raising the stickiness
// past what this bound allows must be a decision, not a side effect.
const rankBoundPerQueue = 16

// testHandleRankBound drains a known permutation through one handle and
// counts how far each pop strays from the minimum. Single goroutine, fixed
// seeds: the ranks repeat exactly.
func testHandleRankBound(t *testing.T, newQueue Factory) {
	const n = 1 << 13
	for _, shape := range []struct{ threads, mult int }{{1, 1}, {2, 2}, {4, 2}} {
		nq := shape.threads * shape.mult
		q := cq.AsBatch(newQueue(t, shape.threads, shape.mult))
		h := cq.HandleFor(q)
		r := rng.New(uint64(700 + nq))
		for _, p := range r.Perm(n) {
			h.Push(r, int64(p), int64(p))
		}
		// queued[i] counts the queued priorities in Fenwick node i, so a
		// pop's rank is a prefix sum.
		queued := make([]int, n+1)
		for i := 1; i <= n; i++ {
			queued[i] += 1
			if up := i + i&-i; up <= n {
				queued[up] += queued[i]
			}
		}
		var sum, worst int
		for i := 0; i < n; i++ {
			_, p, ok := h.Pop(r)
			if !ok {
				t.Fatalf("%d queues: empty after %d of %d pops", nq, i, n)
			}
			rank := 0
			for j := int(p); j > 0; j -= j & -j {
				rank += queued[j]
			}
			for j := int(p) + 1; j <= n; j += j & -j {
				queued[j]--
			}
			sum += rank
			worst = max(worst, rank)
		}
		h.Close()
		mean := float64(sum) / n
		if nq == 1 && worst != 0 {
			t.Fatalf("1 queue: a pop was %d ranks from the minimum, want exact order", worst)
		}
		if bound := float64(rankBoundPerQueue * nq); mean > bound {
			t.Fatalf("%d queues: mean popped rank %.1f exceeds the stated bound %.0f", nq, mean, bound)
		}
		t.Logf("%d queues: mean popped rank %.2f, worst %d (bound %d)", nq, mean, worst, rankBoundPerQueue*nq)
	}
}

// HandleVsExact applies one operation per byte of ops to a queue from
// newQueue — through two handles and the queue-level methods, single and
// batched — and the same operations to the exact backend. A relaxed pop
// may pick a different pair than the exact one, so pairs are not compared
// one by one; what must agree is everything a termination protocol leans
// on: after every operation both hold the same number of pairs, a pop
// succeeds on one exactly when it does on the other (so a handle reports
// empty only when the queue is), and once both are drained the same
// multiset of (value, priority) pairs has come out. It is the body of cq's
// FuzzHandleVsExact.
func HandleVsExact(t *testing.T, newQueue Factory, ops []byte) {
	t.Helper()
	q := cq.AsBatch(newQueue(t, 2, 2))
	ref, err := cq.New(cq.ExactBackend, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	handles := [2]cq.Handle{cq.HandleFor(q), cq.HandleFor(q)}
	defer handles[0].Close()
	defer handles[1].Close()
	r, rr := rng.New(5), rng.New(5)
	got, want := map[cq.Pair]int{}, map[cq.Pair]int{}
	tally := func(m map[cq.Pair]int, v, p int64) { m[cq.Pair{Value: v, Priority: p}]++ }
	next := int64(0)
	fresh := func(b byte) cq.Pair {
		next++
		return cq.Pair{Value: next, Priority: int64(b >> 4)} // 16 priorities: plenty of ties
	}
	var buf [4]cq.Pair
	for i, b := range ops {
		h := handles[b>>3&1]
		switch b & 7 {
		case 0, 1:
			p := fresh(b)
			h.Push(r, p.Value, p.Priority)
			ref.Push(rr, p.Value, p.Priority)
		case 2:
			p := fresh(b)
			q.Push(r, p.Value, p.Priority)
			ref.Push(rr, p.Value, p.Priority)
		case 3:
			k := 1 + int(b>>4)%len(buf)
			for j := range buf[:k] {
				buf[j] = fresh(b + byte(j)<<4)
			}
			h.PushBatch(r, buf[:k])
			ref.PushBatch(rr, buf[:k])
		case 4, 5, 6:
			var v, p int64
			var ok bool
			if b&7 == 6 {
				v, p, ok = q.Pop(r)
			} else {
				v, p, ok = h.Pop(r)
			}
			rv, rp, rok := ref.Pop(rr)
			if ok != rok {
				t.Fatalf("op %d (%#02x): pop ok = %v with %d pairs queued, exact says %v", i, b, ok, q.Len(), rok)
			}
			if ok {
				tally(got, v, p)
				tally(want, rv, rp)
			}
		case 7:
			k := 1 + int(b>>4)%len(buf)
			n := h.PopBatch(r, buf[:k])
			for _, p := range buf[:n] {
				got[p]++
			}
			m := ref.PopBatch(rr, buf[:k])
			for _, p := range buf[:m] {
				want[p]++
			}
			if (n == 0) != (m == 0) {
				t.Fatalf("op %d (%#02x): PopBatch returned %d with %d pairs queued, exact returned %d", i, b, n, q.Len(), m)
			}
			// A batch comes from one internal structure, so it may be
			// shorter than exact's; level the two before comparing sizes.
			for ; n < m; n++ {
				v, p, ok := h.Pop(r)
				if !ok {
					t.Fatalf("op %d (%#02x): handle reported empty with %d pairs queued", i, b, q.Len())
				}
				tally(got, v, p)
			}
		}
		if a, b := q.Len(), ref.Len(); a != b {
			t.Fatalf("op %d: Len = %d, exact holds %d", i, a, b)
		}
	}
	for {
		v, p, ok := handles[0].Pop(r)
		if !ok {
			break
		}
		tally(got, v, p)
	}
	for {
		v, p, ok := ref.Pop(rr)
		if !ok {
			break
		}
		tally(want, v, p)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after the handle reported empty", q.Len())
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct pairs came out, exact returned %d", len(got), len(want))
	}
	for p, n := range want {
		if got[p] != n {
			t.Fatalf("pair %+v came out %d times, exact returned it %d times", p, got[p], n)
		}
	}
}

// testHandleVsExact runs HandleVsExact over generated operation strings:
// short ones that keep the queue near empty, where sticky state meets
// empty queues, and long ones (pushes outnumber pops) that fill every
// structure.
func testHandleVsExact(t *testing.T, newQueue Factory) {
	r := rng.New(2021)
	for _, length := range []int{0, 1, 7, 64, 512, 4096} {
		for rep := 0; rep < 8; rep++ {
			ops := make([]byte, length)
			for i := range ops {
				ops[i] = byte(r.Intn(256))
			}
			HandleVsExact(t, newQueue, ops)
		}
	}
}

// testAllocSteadyState measures per-operation heap allocations of a warm
// push/pop cycle through one handle. Backends that declare node recycling
// (cq.Recycler) are gated: once the reclamation pipeline matures, pops must
// feed pushes, so steady-state traffic stays well under one allocation per
// operation. Other backends just get their baseline recorded — visibility,
// not a gate, since per-op allocation is only a contract where reuse is the
// point of the design.
func testAllocSteadyState(t *testing.T, newQueue Factory) {
	raw := newQueue(t, 2, 2)
	q := cq.AsBatch(raw)
	h := cq.HandleFor(q)
	defer h.Close()
	r := rng.New(41)
	// Keep a standing population so pops always succeed, then warm the
	// reclamation pipeline past its grace period.
	for i := int64(0); i < 4096; i++ {
		h.Push(r, i, int64(r.Intn(1<<16)))
	}
	for i := 0; i < 8192; i++ {
		h.Push(r, int64(i), int64(r.Intn(1<<16)))
		h.Pop(r)
	}
	perOp := testing.AllocsPerRun(2000, func() {
		h.Push(r, 1, int64(r.Intn(1<<16)))
		h.Pop(r)
	}) / 2
	rec, ok := raw.(cq.Recycler)
	if ok && rec.RecyclesNodes() {
		// 0.25 leaves room for amortized noise (retirement-bin growth, free
		// list reslicing) while still requiring that the overwhelming
		// majority of operations reuse nodes.
		if perOp > 0.25 {
			t.Fatalf("recycling backend allocated %.3f allocs/op in steady state; node reuse is not working", perOp)
		}
		t.Logf("steady-state allocations: %.3f allocs/op (gated <= 0.25)", perOp)
	} else {
		t.Logf("steady-state allocations: %.3f allocs/op (baseline, not gated)", perOp)
	}
}

// testOrderedStreams is the traffic of a stream or a frontier laid out in
// label order: several handles each push nondecreasing priorities — with
// ties, and every other pusher in sorted batches — while poppers drain
// through their own handles under the in-flight-counter protocol. The
// streams cover the same priority range, so each queue takes some pairs in
// order and some out of it. Every value must come out exactly once.
func testOrderedStreams(t *testing.T, newQueue Factory) {
	const (
		pushers = 3
		poppers = 3
		perP    = 4000
		total   = pushers * perP
		batch   = 8
	)
	q := cq.AsBatch(newQueue(t, poppers, 2))
	seen := make([]atomic.Bool, total)
	var pending atomic.Int64 // un-popped elements, counted up-front
	pending.Store(total)
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := cq.HandleFor(q)
			defer h.Close()
			r := rng.New(uint64(g) + 1)
			buf := make([]cq.Pair, 0, batch)
			for i := 0; i < perP; i++ {
				v, p := int64(g*perP+i), int64(i/3)
				if g%2 == 0 {
					h.Push(r, v, p)
					continue
				}
				if buf = append(buf, cq.Pair{Value: v, Priority: p}); len(buf) == batch || i == perP-1 {
					h.PushBatch(r, buf)
					buf = buf[:0]
				}
			}
		}(g)
	}
	for g := 0; g < poppers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := cq.HandleFor(q)
			defer h.Close()
			r := rng.New(uint64(1000 + g))
			dst := make([]cq.Pair, batch)
			for pending.Load() > 0 {
				n := 0
				if g == 0 {
					n = h.PopBatch(r, dst)
				} else if v, p, ok := h.Pop(r); ok {
					dst[0], n = cq.Pair{Value: v, Priority: p}, 1
				}
				for _, p := range dst[:n] {
					if seen[p.Value].Swap(true) {
						t.Errorf("value %d popped twice", p.Value)
					}
				}
				pending.Add(-int64(n))
			}
		}(g)
	}
	waitOrFatal(t, &wg, "ordered streams")
	for v := range seen {
		if !seen[v].Load() {
			t.Fatalf("value %d lost", v)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func testRacingPushersTermination(t *testing.T, newQueue Factory) {
	// The empty-vs-racing-pusher edge: Pop may report empty while an
	// element is mid-push, so consumers terminate via an in-flight counter
	// (exactly core.ParallelRun's and sssp.Parallel's protocol). With that
	// protocol, poppers racing live pushers must still drain every element
	// and exit.
	const (
		pushers = 4
		poppers = 4
		perP    = 3000
		total   = pushers * perP
	)
	q := newQueue(t, poppers, 2)
	var pending atomic.Int64 // un-popped elements, counted up-front
	pending.Store(total)
	var popped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for i := 0; i < perP; i++ {
				q.Push(r, int64(g*perP+i), int64(r.Intn(1<<16)))
			}
		}(g)
	}
	for g := 0; g < poppers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			for {
				_, _, ok := q.Pop(r)
				if !ok {
					if pending.Load() == 0 {
						return
					}
					// Transiently empty: elements are still in flight.
					continue
				}
				popped.Add(1)
				pending.Add(-1)
			}
		}(g)
	}
	waitOrFatal(t, &wg, "racing pushers/poppers")
	if got := popped.Load(); got != total {
		t.Fatalf("poppers drained %d of %d elements", got, total)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}
