package inflight

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestSequentialAccounting(t *testing.T) {
	c := New(2)
	c.Produce(0)
	if c.Quiescent() {
		t.Fatal("quiescent with one live task")
	}
	if c.Live() != 1 {
		t.Fatalf("Live = %d, want 1", c.Live())
	}
	c.ProduceN(0, 5)
	c.ProduceN(1, 0)
	if c.Live() != 6 {
		t.Fatalf("Live = %d, want 6", c.Live())
	}
	c.Complete(1) // completed by a different worker than the producer
	for i := 0; i < 5; i++ {
		c.Complete(i % 2)
	}
	if !c.Quiescent() {
		t.Fatal("not quiescent after draining")
	}
}

// TestCompleteNBatches: CompleteN(w, n) is n Completes on w's slot, a zero
// batch records nothing, and a batch that leaves one task unrecorded keeps
// the counter from quiescing.
func TestCompleteNBatches(t *testing.T) {
	c := New(2)
	c.ProduceN(0, 70)
	c.CompleteN(1, 0)
	if produced, completed := c.Tallies(); produced != 70 || completed != 0 {
		t.Fatalf("Tallies after CompleteN(1, 0) = (%d, %d), want (70, 0)", produced, completed)
	}
	c.CompleteN(1, 63)
	c.CompleteN(0, 6)
	if c.Quiescent() {
		t.Fatal("quiescent with one completion unrecorded")
	}
	if c.Live() != 1 {
		t.Fatalf("Live = %d, want 1", c.Live())
	}
	if got := c.slots[1].completed.Load(); got != 63 {
		t.Fatalf("worker 1's completed tally = %d, want 63", got)
	}
	c.CompleteN(0, 1)
	if !c.Quiescent() {
		t.Fatal("not quiescent once every completion was recorded")
	}
}

func TestOpenProducerAccounting(t *testing.T) {
	// 2 workers + 2 declared producers. Quiescent must stay false —
	// even with zero tasks anywhere — until both producers close.
	c := NewOpen(2, 2)
	if c.Quiescent() {
		t.Fatal("quiescent with two open producers")
	}
	if c.Open() != 2 {
		t.Fatalf("Open = %d, want 2", c.Open())
	}
	p0, p1 := c.Attach(), c.Attach()
	p0.Produce() // producer 0 streams one task
	p0.Close()
	if c.Quiescent() {
		t.Fatal("quiescent with one open producer and a live task")
	}
	c.Complete(0) // a worker completes the streamed task
	if c.Quiescent() {
		t.Fatal("quiescent with one producer still open")
	}
	p1.ProduceN(4) // producer 1 streams a batch
	p1.Close()
	if c.Open() != 0 {
		t.Fatalf("Open = %d, want 0", c.Open())
	}
	if c.Quiescent() {
		t.Fatal("quiescent with four live streamed tasks")
	}
	if c.Live() != 4 {
		t.Fatalf("Live = %d, want 4", c.Live())
	}
	produced, completed := c.Tallies()
	if produced != 5 || completed != 1 {
		t.Fatalf("Tallies = (%d, %d), want (5, 1)", produced, completed)
	}
	for i := 0; i < 4; i++ {
		c.Complete(1)
	}
	if !c.Quiescent() {
		t.Fatal("not quiescent after all producers closed and tasks drained")
	}
}

func TestCloseOverrunPanics(t *testing.T) {
	c := NewOpen(1, 1)
	p := c.Attach()
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("extra Close did not panic")
		}
	}()
	p.Close()
}

func TestAttachBeyondDeclaredPanics(t *testing.T) {
	c := NewOpen(1, 2)
	c.Attach()
	c.Attach()
	defer func() {
		if recover() == nil {
			t.Fatal("third Attach on a 2-producer counter did not panic")
		}
	}()
	c.Attach()
}

// TestQuiescentIsFinal: once Quiescent has returned true, every later call
// returns true too — for a fresh closed-world counter (an empty frontier
// terminates at once) and for an open one whose producers closed and
// whose tasks drained.
func TestQuiescentIsFinal(t *testing.T) {
	closed := New(1)
	open := NewOpen(2, 2)
	p0, p1 := open.Attach(), open.Attach()
	p0.ProduceN(3)
	p0.Close()
	p1.Produce()
	p1.Close()
	open.CompleteN(0, 2)
	open.CompleteN(1, 2)
	for name, c := range map[string]*Counter{"closed": closed, "open": open} {
		for i := 0; i < 100; i++ {
			if !c.Quiescent() {
				t.Fatalf("%s: Quiescent false on call %d", name, i)
			}
		}
	}
}

func TestNewOpenValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative producer count accepted")
		}
	}()
	NewOpen(1, -1)
}

func TestSlotPadding(t *testing.T) {
	// Each slot must span at least two cache lines so the produced and
	// completed words of different workers never share a line.
	if s := unsafe.Sizeof(slot{}); s < 128 {
		t.Fatalf("slot is %d bytes, want >= 128", s)
	}
	// The open count, loaded by every scan and written by every producer
	// Close, shares no line with a slot or with the slots header that
	// every Produce and Complete reads.
	const line = 64
	c := NewOpen(3, 2)
	open := uintptr(unsafe.Pointer(&c.open)) / line
	if header := uintptr(unsafe.Pointer(&c.slots)) / line; open == header {
		t.Fatal("open shares a cache line with the slots header")
	}
	for i := range c.slots {
		first := uintptr(unsafe.Pointer(&c.slots[i])) / line
		last := (uintptr(unsafe.Pointer(&c.slots[i])) + unsafe.Sizeof(slot{}) - 1) / line
		if first <= open && open <= last {
			t.Fatalf("open shares a cache line with slot %d", i)
		}
	}
}

// TestNeverFalselyQuiescent hammers the exact interleaving that breaks
// signed per-worker deltas: worker A holds a live task while workers pass
// other tasks around. Quiescent must never report true before the final
// completion.
func TestNeverFalselyQuiescent(t *testing.T) {
	const (
		workers = 4
		rounds  = 2000
	)
	c := New(workers)
	// One pinned task stays live for the whole test, so Quiescent must
	// report false no matter how the churn below interleaves with its
	// scans. Cross-worker completions (worker w completes what w+1
	// produced) build exactly the per-slot imbalances that fool a signed
	// single-scan counter.
	c.Produce(0)
	var falseQuiescent atomic.Bool
	stop := make(chan struct{})
	scannerDone := make(chan struct{})
	go func() {
		defer close(scannerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c.Quiescent() {
				falseQuiescent.Store(true)
				return
			}
		}
	}()
	// tokens carries produced tasks to their completers, so completions
	// always follow a matching production (the protocol invariant) while
	// still landing on a different worker's slot most of the time.
	tokens := make(chan struct{}, workers*rounds)
	var workersWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			for i := 0; i < rounds; i++ {
				c.Produce(w)
				tokens <- struct{}{}
				<-tokens
				c.Complete(w)
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	<-scannerDone
	if falseQuiescent.Load() {
		t.Fatal("Quiescent reported true while a task was provably live")
	}
	c.Complete(workers - 1)
	if !c.Quiescent() {
		t.Fatal("not quiescent after the pinned task completed")
	}
}

// TestDeclaredProducersStress streams from P declared producers, each
// attaching, producing in chunks and closing on its own goroutine, while
// one worker completes every task it can see and a second goroutine polls
// Quiescent. Producers wait for the worker to catch up after each chunk,
// so the tallies balance often and a producer's final chunk and Close land
// while the pollers' scans see no live task: exactly the window in which a
// scan that read open after the tallies would report a false true. A true
// Quiescent must never land while a producer has yet to close or a task is
// live, and at the end every produced task has been served exactly once.
func TestDeclaredProducersStress(t *testing.T) {
	const (
		producers = 3
		perProd   = 40
		total     = producers * perProd
	)
	for round := 0; round < 3000; round++ {
		// 16 worker slots, one of them used: the idle slots only lengthen
		// each scan, and so the window a misordered scan would expose.
		c := NewOpen(16, producers)
		var closing [producers]atomic.Bool
		var served atomic.Int64
		var violation atomic.Value
		// check runs after a true Quiescent: every producer must have
		// started its Close, and every task must have been served.
		check := func(who string) {
			for p := range closing {
				if !closing[p].Load() {
					violation.Store(who + ": quiescent while a producer was open")
					return
				}
			}
			if got := served.Load(); got != total {
				violation.Store(who + ": quiescent with live tasks")
			}
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				s := c.Attach()
				for sent := 0; sent < perProd; {
					for sent > 0 && c.Live() > 0 {
						runtime.Gosched() // let the worker catch up
					}
					n := min(1+(sent+p)%4, perProd-sent)
					if n == 1 {
						s.Produce()
					} else {
						s.ProduceN(int64(n))
					}
					sent += n
				}
				closing[p].Store(true)
				s.Close()
			}(p)
		}
		wg.Add(2)
		go func() { // the worker: served is counted before its Complete
			defer wg.Done()
			for served.Load() < total {
				if c.Live() > 0 {
					served.Add(1)
					c.Complete(0)
					continue
				}
				if c.Quiescent() {
					check("worker")
				}
				runtime.Gosched()
			}
		}()
		go func() { // a scanner that only polls
			defer wg.Done()
			for !c.Quiescent() {
				runtime.Gosched()
			}
			check("scanner")
		}()
		wg.Wait()
		if v := violation.Load(); v != nil {
			t.Fatalf("round %d: %s", round, v)
		}
		if !c.Quiescent() {
			t.Fatalf("round %d: not quiescent after every task was served", round)
		}
		if produced, completed := c.Tallies(); produced != total || completed != total {
			t.Fatalf("round %d: Tallies = (%d, %d), want (%d, %d)", round, produced, completed, total, total)
		}
	}
}
