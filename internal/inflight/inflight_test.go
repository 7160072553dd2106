package inflight

import (
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
	// Quiescence seals: the counter is now terminal.
	if !c.Sealed() {
		t.Fatal("quiescent counter not sealed")
	}
}

// TestCompleteNBatches: CompleteN(w, n) is n Completes on w's slot, a zero
// batch records nothing, and a batch that leaves one task unrecorded keeps
// the counter from sealing.
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

func TestFreshClosedWorldSealsImmediately(t *testing.T) {
	// A closed-world counter with nothing produced is quiescent (an empty
	// frontier terminates at once), and the observation is permanent.
	c := New(1)
	if !c.Quiescent() {
		t.Fatal("fresh closed-world counter not quiescent")
	}
	if !c.Sealed() {
		t.Fatal("observed quiescence did not seal")
	}
	if _, ok := c.Register(); ok {
		t.Fatal("Register succeeded on a sealed counter")
	}
}

func TestOpenProducerAccounting(t *testing.T) {
	// 2 workers + 2 pre-registered producers. Quiescent must stay false —
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

func TestDynamicRegistration(t *testing.T) {
	// Zero producers declared: the counter starts closed-world, a dynamic
	// Register opens it, and sealing permanently refuses late arrivals.
	c := NewOpen(1, 0)
	p, ok := c.Register()
	if !ok {
		t.Fatal("Register failed on an unsealed counter")
	}
	if c.Open() != 1 {
		t.Fatalf("Open = %d, want 1", c.Open())
	}
	if c.Quiescent() {
		t.Fatal("quiescent with a dynamically registered open producer")
	}
	p.Produce()
	p.Close()
	if c.Quiescent() {
		t.Fatal("quiescent with the streamed task live")
	}
	c.Complete(0)
	if !c.Quiescent() {
		t.Fatal("not quiescent after close and drain")
	}
	if _, ok := c.Register(); ok {
		t.Fatal("Register succeeded after seal")
	}
	if !c.Quiescent() {
		t.Fatal("sealed counter stopped reporting quiescent")
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

// TestRegisterSealRace races dynamic registrations against termination
// scans: every registration must either succeed — and then its stream is
// fully served before any true Quiescent — or fail against a sealed
// counter. A registration that succeeds after a seal, or a seal that lands
// while a registered producer still has live work, is a protocol violation.
func TestRegisterSealRace(t *testing.T) {
	const attempts = 2000
	for round := 0; round < 20; round++ {
		c := NewOpen(1, 0)
		var registered, served atomic.Int64
		var violation atomic.Bool
		var wg sync.WaitGroup
		// Scanner: a worker polling for termination, completing any tasks
		// it can see (Live > 0 means a producer's push landed).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if c.Live() > 0 {
					c.Complete(0)
					served.Add(1)
					continue
				}
				if c.Quiescent() {
					return
				}
			}
		}()
		// Registrars: hammer Register; each success produces one task and
		// closes. After the first failure the counter must be sealed.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				p, ok := c.Register()
				if !ok {
					if !c.Sealed() {
						violation.Store(true)
					}
					return
				}
				registered.Add(1)
				p.Produce()
				p.Close()
			}
		}()
		wg.Wait()
		if violation.Load() {
			t.Fatal("Register failed on an unsealed counter")
		}
		if !c.Sealed() {
			t.Fatal("counter not sealed after scanner exit")
		}
		if served.Load() != registered.Load() {
			t.Fatalf("round %d: %d registered streams, %d served — the seal abandoned live work",
				round, registered.Load(), served.Load())
		}
	}
}

// TestSlotRecycling churns 10k register/close cycles: every Close must
// return its slot to the free stack and the next Register must reuse it,
// so the RCU slot list stays at the peak number of *concurrently* open
// producers instead of growing per registration, and the monotone tallies
// survive the recycling (the final seal still balances).
func TestSlotRecycling(t *testing.T) {
	c := New(1)
	const cycles = 10000
	var produced int64
	for i := 0; i < cycles; i++ {
		p, ok := c.Register()
		if !ok {
			t.Fatalf("cycle %d: register failed before seal", i)
		}
		p.Produce()
		produced++
		p.Close()
	}
	if got := len(*c.prods.Load()); got != 1 {
		t.Fatalf("slot list grew to %d entries over %d sequential register/close cycles, want 1 recycled slot", got, cycles)
	}
	// Drain the producer-born tasks through the worker slot and seal.
	for i := int64(0); i < produced; i++ {
		c.Complete(0)
	}
	if !c.Quiescent() {
		t.Fatal("counter not quiescent after all recycled producers closed and drained")
	}

	// Concurrent churn: the list may grow to the number of goroutines, but
	// no further.
	c2 := New(1)
	const workers, perWorker = 8, 1250
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p, ok := c2.Register()
				if !ok {
					t.Error("register failed before seal")
					return
				}
				p.Close()
			}
		}()
	}
	wg.Wait()
	if got := len(*c2.prods.Load()); got > workers {
		t.Fatalf("slot list grew to %d entries with at most %d producers open at once", got, workers)
	}
	if !c2.Quiescent() {
		t.Fatal("counter not quiescent after concurrent churn")
	}
}

// TestRecycledSlotKeepsCounting checks the tally-transfer invariant: a
// recycled slot's produced count is the sum over every producer generation
// that used it, and Quiescent stays false until the whole sum is drained.
func TestRecycledSlotKeepsCounting(t *testing.T) {
	c := New(1)
	p1, _ := c.Register()
	p1.ProduceN(3)
	p1.Close()
	p2, _ := c.Register()
	if p2.s != p1.s {
		t.Fatal("second register did not recycle the closed producer's slot")
	}
	p2.ProduceN(2)
	p2.Close()
	for i := 0; i < 5; i++ {
		if c.Quiescent() {
			t.Fatalf("quiescent with %d tasks undrained", 5-i)
		}
		c.Complete(0)
	}
	if !c.Quiescent() {
		t.Fatal("not quiescent after draining both generations")
	}
}
