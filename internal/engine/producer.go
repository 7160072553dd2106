package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/inflight"
	"relaxsched/internal/park"
	"relaxsched/internal/rng"
)

// Execution is a running engine instance as returned by Start: the worker
// pool is live, and the caller holds the handle to create producers, to
// Stop the run early and to wait for termination. The closed-world Run is
// Start followed by Wait with zero producers.
type Execution struct {
	mq       cq.BatchQueue
	counters *inflight.Counter
	lot      *park.Lot
	batch    int

	// mu serializes NewProducer's seedRng.Split (Split mutates it); Start
	// finishes its own splits before returning, so worker streams never
	// race it.
	mu      sync.Mutex
	seedRng *rng.Xoshiro

	// workers are the per-worker shared stat blocks (see watchdog.go):
	// written by their worker, read by the watchdog and Wait.
	workers []workerState

	// Failure machinery (interrupt.go).
	maxRetries int
	retries    retryTracker
	injector   Injector
	failMu     sync.Mutex
	failures   []Failure

	// stopped is the cooperative interruption flag (Stop, deadline,
	// watchdog abort); interrupted records that a worker actually exited
	// before quiescence because of it.
	stopped     atomic.Bool
	interrupted atomic.Bool
	deadline    *time.Timer
	// stall is the latest watchdog report; donec closes when every worker
	// has exited, provided a watchdog (its one reader) is armed.
	stall atomic.Pointer[StallReport]
	donec chan struct{}

	result   Result
	wg       sync.WaitGroup
	waitOnce sync.Once
}

// NewProducer returns an external producer handle, one of the
// Options.Producers declared at Start. The execution cannot terminate
// before every declared producer has been created and closed, so a
// producer never streams into a finished run; a call beyond the declared
// count panics, before or after termination. It is safe to call from any
// goroutine, but each returned Producer must then be used by a single
// goroutine at a time.
func (e *Execution) NewProducer() *Producer {
	slot := e.counters.Attach() // panics beyond the declared count
	e.mu.Lock()
	r := e.seedRng.Split()
	e.mu.Unlock()
	p := &Producer{
		exec:    e,
		slot:    slot,
		pushBuf: pushBuf{r: r, mq: cq.HandleFor(e.mq), lot: e.lot, batch: e.batch},
	}
	if e.batch > 1 {
		p.out = make([]cq.Pair, 0, e.batch)
	}
	return p
}

// ParkedWorkers returns the number of workers currently parked on the
// idle lot. Racy by nature; exact when the execution is externally idle
// (tests and idle-cost measurements read it then).
func (e *Execution) ParkedWorkers() int {
	return e.lot.Parked()
}

// Wait blocks until the execution terminates — every declared producer
// created and closed, and every produced task completed, or a Stop/Deadline
// drain finished — and returns the Result. It is idempotent: concurrent and
// repeated calls all return the same Result.
func (e *Execution) Wait() Result {
	e.waitOnce.Do(func() {
		e.wg.Wait()
		if e.deadline != nil {
			e.deadline.Stop()
		}
		// wg.Wait orders every worker's final counter writes before these
		// reads, and nothing below is written afterwards.
		var st Stats
		for w := range e.workers {
			ws := &e.workers[w]
			st.Popped += ws.popped.Load()
			st.Executed += ws.executed.Load()
			st.Discarded += ws.discarded.Load()
			st.Reinserted += ws.reinserted.Load()
			st.Failed += ws.failed.Load()
		}
		e.result = Result{
			Stats:       st,
			Interrupted: e.interrupted.Load(),
			Failures:    e.failures,
			Stall:       e.stall.Load(),
		}
	})
	return e.result
}

// Producer feeds the frontier of a running execution from outside the
// worker pool — the open-system analogue of Ctx.Spawn. Like Ctx it is
// single-goroutine: create one producer per feeding goroutine (handing a
// producer from the creating goroutine to its user is fine). Pairs are
// recorded in the termination counter before they become visible, so the
// streaming arrival never races the double-scan termination protocol.
//
// With Options.BatchSize > 1 pushes accumulate in a producer-local buffer
// flushed through the queue's PushBatch when full — the same one-
// coordination-round-per-batch amortization the workers use — and Close
// flushes whatever remains. Push and PushBatch panic once the producer is
// closed; Close itself is idempotent.
//
// Once the execution has been stopped (Execution.Stop, the Deadline, or a
// watchdog abort) pushes are absorbed: Push and PushBatch become no-ops —
// the pairs are neither counted nor enqueued — so a producer goroutine
// racing the interruption never panics and never strands uncompletable
// in-flight counts. Pairs already buffered before the stop are still
// flushed to the queue by Close (flush-then-close is atomic with respect to
// Stop: either a pair was absorbed and left no trace, or it was counted and
// reaches the queue).
type Producer struct {
	exec   *Execution
	slot   *inflight.ProducerSlot
	closed bool
	pushBuf
}

// Push streams one (value, priority) pair into the execution. It panics if
// the producer has been closed, and is silently absorbed once the
// execution has been stopped.
func (p *Producer) Push(value, priority int64) {
	if p.closed {
		panic("engine: Push on closed Producer")
	}
	if p.exec.stopped.Load() {
		return
	}
	p.slot.Produce()
	p.push(value, priority)
}

// PushBatch streams every pair in one queue operation. Any buffered Push
// pairs are flushed first so arrival order is preserved per producer. It
// panics if the producer has been closed, and is silently absorbed once
// the execution has been stopped (buffered pairs are still flushed).
func (p *Producer) PushBatch(pairs []cq.Pair) {
	if p.closed {
		panic("engine: PushBatch on closed Producer")
	}
	p.flush()
	if len(pairs) == 0 || p.exec.stopped.Load() {
		return
	}
	p.slot.ProduceN(int64(len(pairs)))
	p.mq.PushBatch(p.r, pairs)
	p.lot.Wake(len(pairs))
}

// Flush makes every buffered pair visible to the workers without closing
// the producer. Useful when a batching producer goes quiet for a while: a
// buffered pair is counted as in-flight, so leaving it parked keeps the
// execution from terminating (it cannot deadlock — Close flushes — but it
// delays the buffered jobs arbitrarily).
func (p *Producer) Flush() {
	if p.closed {
		return
	}
	p.flush()
}

// Close flushes any buffered pairs, releases the producer's queue handle
// (its epoch slot, on backends that have one) and marks the producer done.
// Once every declared producer has closed and the queue drains, the
// workers terminate. Closing broadcasts to parked workers: the close that
// completes the termination condition may land while every worker is
// asleep, and the woken workers re-run the quiescence scan and exit. Close
// is idempotent: a second Close is a no-op.
func (p *Producer) Close() {
	if p.closed {
		return
	}
	p.flush()
	p.mq.Close()
	p.closed = true
	p.slot.Close()
	p.lot.WakeAll()
}
