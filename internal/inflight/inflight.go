// Package inflight provides the termination-detection counter shared by the
// parallel runtimes (internal/engine and everything built on it).
//
// A relaxed concurrent queue cannot signal "done": Pop reporting empty is
// inherently racy against in-flight pushers, so workers must track how many
// produced tasks have not yet been fully processed. A single global atomic
// counter works but becomes the dominant cache-line hot-spot: every push and
// every pop of every worker bounces the same line. Counter eliminates the
// contention by giving each worker its own cache-padded slot, written only
// by that worker; the cross-worker sum-scan happens only when a worker sees
// an apparently empty queue, which is rare on the hot path.
//
// A naive signed per-worker delta (producer increments its slot, consumer
// decrements its own) admits a classic false-termination race: a scan can
// read one slot before a production and another slot after the matching
// consumption and see a zero sum while work is live. Counter therefore
// keeps two monotonically non-decreasing tallies per slot — produced and
// completed — and Quiescent scans completed before produced. Monotonicity
// makes that double scan safe: each completed read is a lower bound at scan
// time t0 (the instant between the two scans), each produced read an upper
// bound at t0, and completed <= produced always holds globally, so
// sum(completed reads) == sum(produced reads) forces both to equal the true
// totals at t0 — a consistent instant with no live task. Since new tasks
// are only produced while processing a live one, none can appear afterwards
// except through queues the caller has already observed empty.
//
// Production must be recorded before the task becomes visible; completion
// may be recorded late, and in batches (CompleteN). A late completion only
// lowers the completed reads, so the scan sees completed < produced and
// reports false for longer: safety needs completed <= produced, which
// lateness preserves. Liveness is the caller's side of the bargain: a
// worker must record every completion it holds before it polls Quiescent,
// parks or exits, so the last one to drain still sees the balance.
//
// # Open systems: declared external producers
//
// The closed-world argument above assumes tasks are only born while a
// worker processes a live one. Streaming executions break that: external
// producers push tasks from outside the worker set at arbitrary times.
// Their number is declared when the counter is made (NewOpen), and each
// declared producer owns a padded slot after the workers' slots, claimed
// once by Attach. A producer slot only ever counts produced tasks — the
// workers complete them on their own slots — so the scan sums every slot
// alike. Beside the slots sits an open count, on its own cache line: it
// starts at the declared number and only falls, by one per
// ProducerSlot.Close.
//
// Quiescent loads open first and reports false unless it is zero. Open ==
// 0 means every declared producer has closed; each producer's final
// Produce happened before its Close, which happened before this load, so
// the monotone produced tallies scanned afterwards already include every
// externally born task. No producer can appear later — Attach beyond the
// declared count panics, and a slot closes once — so from the load onward
// the system is closed-world again and the double-scan argument applies
// unchanged. A true result is therefore final: at the scan's instant no
// task was live and no producer open, and nothing is left that could
// produce, so every later scan is true as well.
package inflight

import "sync/atomic"

// slot holds one tally pair, padded to its own cache lines so neighbouring
// workers never false-share.
type slot struct {
	produced  atomic.Int64
	completed atomic.Int64
	_         [112]byte // pad the 16 byte payload to two 64-byte lines
}

// Counter tracks produced-versus-completed tasks across a fixed set of
// workers plus, for open systems, a fixed set of declared external
// producers. The zero value is unusable; construct with New or NewOpen.
type Counter struct {
	// slots holds the workers' slots, then one per declared producer.
	slots    []slot
	workers  int
	attached atomic.Int64
	_        [24]byte // close out the header's line
	// open counts declared producers not yet closed. Own padded line:
	// Quiescent loads it on every scan, and it must not false-share with
	// the slots header every Produce reads.
	open atomic.Int64
	_    [56]byte
}

// New returns a closed-world counter with one padded slot per worker
// (workers >= 1): no external producers, Quiescent is the pure double scan.
func New(workers int) *Counter {
	return NewOpen(workers, 0)
}

// NewOpen returns a counter for an open system with workers worker slots
// (indices [0, workers)) and producers declared external producers, each
// claimed once with Attach. Quiescent stays false until every declared
// producer has been attached and closed.
func NewOpen(workers, producers int) *Counter {
	if workers < 1 {
		panic("inflight: need at least one worker")
	}
	if producers < 0 {
		panic("inflight: negative producer count")
	}
	c := &Counter{slots: make([]slot, workers+producers), workers: workers}
	c.open.Store(int64(producers))
	return c
}

// Attach claims the next declared producer's slot. It is safe to call
// from any goroutine, and it panics once every declared producer has been
// attached.
func (c *Counter) Attach() *ProducerSlot {
	i := c.workers - 1 + int(c.attached.Add(1))
	if i >= len(c.slots) {
		panic("inflight: Attach beyond the declared producers")
	}
	return &ProducerSlot{c: c, s: &c.slots[i]}
}

// ProducerSlot is one external producer's handle on the counter: tally
// Produce calls through it before each push, then Close exactly once.
// Like the producer it backs, it is single-goroutine.
type ProducerSlot struct {
	c      *Counter
	s      *slot
	closed bool
}

// Produce records one task created by this producer. It must be called
// before the task becomes visible to workers (i.e. before the push).
//
//relax:hotpath
func (p *ProducerSlot) Produce() {
	p.s.produced.Add(1)
}

// ProduceN records n tasks created by this producer, n >= 0.
//
//relax:hotpath
func (p *ProducerSlot) ProduceN(n int64) {
	if n > 0 {
		p.s.produced.Add(n)
	}
}

// Close records that this producer will produce no more tasks. It must be
// called after the producer's final Produce; a second Close panics.
func (p *ProducerSlot) Close() {
	if p.closed {
		panic("inflight: second Close of a producer slot")
	}
	p.closed = true
	p.c.open.Add(-1)
}

// Produce records that worker w created one task. It must be called before
// the task becomes visible to other workers (i.e. before the push).
//
//relax:hotpath
func (c *Counter) Produce(w int) {
	c.slots[w].produced.Add(1)
}

// ProduceN records n tasks created by worker w, n >= 0.
//
//relax:hotpath
func (c *Counter) ProduceN(w int, n int64) {
	if n > 0 {
		c.slots[w].produced.Add(n)
	}
}

// Complete records that worker w finished processing one task. It must be
// called after every task the processing produced has been recorded with
// Produce. It may be called any time after that: a late completion only
// keeps Quiescent false for longer (see the package comment).
//
//relax:hotpath
func (c *Counter) Complete(w int) {
	c.slots[w].completed.Add(1)
}

// CompleteN records n completions by worker w at once, n >= 0: the
// batched form of Complete, under the same contract for each of the n.
//
//relax:hotpath
func (c *Counter) CompleteN(w int, n int64) {
	if n > 0 {
		c.slots[w].completed.Add(n)
	}
}

// Open returns the number of declared producers not yet closed.
func (c *Counter) Open() int64 { return c.open.Load() }

// Quiescent reports whether every declared producer has closed and every
// produced task has been completed. A true result is final: every later
// call returns true as well (see the package comment for the double-scan
// argument and why open is read first). A false result may be transient
// and callers should re-poll.
func (c *Counter) Quiescent() bool {
	if c.open.Load() != 0 {
		return false
	}
	var completed int64
	for i := range c.slots {
		completed += c.slots[i].completed.Load()
	}
	var produced int64
	for i := range c.slots {
		produced += c.slots[i].produced.Load()
	}
	return completed == produced
}

// Live returns a racy snapshot of produced-minus-completed tasks. For
// diagnostics only; termination decisions must use Quiescent.
func (c *Counter) Live() int64 {
	produced, completed := c.Tallies()
	return produced - completed
}

// Tallies returns racy snapshots of the global produced and completed
// sums. For diagnostics only.
func (c *Counter) Tallies() (produced, completed int64) {
	for i := range c.slots {
		produced += c.slots[i].produced.Load()
		completed += c.slots[i].completed.Load()
	}
	return produced, completed
}

// Progress returns a racy monotone progress measure: the sum of every
// produced and completed tally. It only ever grows, and it grows exactly
// when a task is born or finishes — re-insertion churn (a popped task
// pushed back unchanged) moves neither tally, so a flat Progress over time
// means the system is completing no work. Note that flat Progress does not
// by itself mean stuck: an idle open system (parked workers, quiet
// producers, zero live tasks) is flat and healthy. Stall watchdogs key off
// Progress and Live together.
func (c *Counter) Progress() int64 {
	produced, completed := c.Tallies()
	return produced + completed
}
