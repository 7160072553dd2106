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
// # Open systems: dynamic external producers
//
// The closed-world argument above assumes tasks are only born while a
// worker processes a live one. Streaming executions break that: external
// producers push tasks from outside the worker set at arbitrary times, and
// — since this package learned dynamic registration — may come into
// existence at arbitrary times too. The producer-side state lives in one
// atomic word with three fields:
//
//	bit 0        sealed    — termination has been observed; final
//	bits 1..31   open      — producers registered but not yet closed
//	bits 32..63  registered — producers ever registered (monotone)
//
// Register CASes open+1 and registered+1 in one step (failing permanently
// once sealed), appends a fresh tally slot to an immutable producer-slot
// list (RCU: readers load an atomic pointer, writers copy-append under a
// mutex), and hands the producer its slot. Producer slots are tally-only —
// the tasks they Produce are Completed by worker slots — and a producer's
// Close decrements open after its final Produce.
//
// Quiescent loads the state word first: sealed short-circuits true, open
// != 0 short-circuits false. Open == 0 means every registered producer's
// final Produce happened before its Close, which happened before this
// load, so the monotone produced tallies scanned afterwards already
// include every externally born task — the system is closed-world again
// from the load onward, and the double-scan argument applies unchanged.
// (The producer-slot list is loaded after the state word; a slot is
// published before its producer's first Produce, which precedes that
// producer's Close, which precedes the load — so the list covers every
// producer that ever produced.)
//
// The scan alone is not enough once producers are dynamic: "quiescent now"
// can be invalidated a nanosecond later by a fresh Register, and workers
// that act on a stale true would abandon a live stream. Sealing closes
// that race: after a successful double scan, Quiescent CASes the sealed
// bit onto the exact state word it loaded before scanning. If any
// registration happened since the load, the monotone registered field has
// changed, the CAS fails, and the scan re-polls — the monotonicity is
// precisely what defeats the ABA where a producer registers, streams,
// closes and drains between load and CAS, restoring open == 0 with tallies
// this scan never saw (completed == produced could then hold again while
// the scan's member sums are stale). Once sealed, Quiescent is true
// forever and Register fails forever: termination is a stable property,
// and the engine's NewProducer-after-termination turns into a clean error
// instead of a stranded stream.
package inflight

import (
	"sync"
	"sync/atomic"
)

const (
	sealedBit = uint64(1)
	openShift = 1
	openMask  = uint64(1)<<31 - 1
	regShift  = 32
)

// openCount extracts the open-producer field of a state word.
func openCount(st uint64) int64 { return int64(st >> openShift & openMask) }

// slot holds one tally pair, padded to its own cache lines so neighbouring
// workers never false-share.
type slot struct {
	produced  atomic.Int64
	completed atomic.Int64
	_         [112]byte // pad the 16 byte payload to two 64-byte lines
}

// Counter tracks produced-versus-completed tasks across a fixed set of
// workers, plus (for open systems) a dynamic set of external producers.
// The zero value is unusable; construct with New or NewOpen.
type Counter struct {
	slots []slot
	_     [40]byte // close out the slots header's line
	// state is the packed sealed/open/registered word (see package
	// comment). Own padded line: Quiescent loads it on every scan, and it
	// must not false-share with any tally slot.
	state atomic.Uint64
	_     [56]byte
	// mu serializes producer-slot appends and the free stack; prods is the
	// RCU snapshot the scan reads without locking. free holds the slots of
	// closed producers awaiting reuse: a slot's tallies are monotone
	// aggregates (they stay in prods and keep counting across producer
	// generations), so recycling the slot for the next Attach/Register is
	// safe and keeps churning register/close cycles from growing the list
	// without bound.
	mu    sync.Mutex
	prods atomic.Pointer[[]*slot]
	free  []*slot
	_     [24]byte
}

// New returns a closed-world counter with one padded slot per worker
// (workers >= 1): no external producers, Quiescent is the pure double scan.
func New(workers int) *Counter {
	return NewOpen(workers, 0)
}

// NewOpen returns a counter for an open system with workers worker slots
// (indices [0, workers)) and producers pre-registered external producers:
// the open and registered counts start at producers, and the first
// producers Attach calls claim those registrations without touching the
// state word. Quiescent stays false until every pre-registered producer
// has been attached and closed. Producers registered later with Register
// extend the open set dynamically.
func NewOpen(workers, producers int) *Counter {
	if workers < 1 {
		panic("inflight: need at least one worker")
	}
	if producers < 0 {
		panic("inflight: negative producer count")
	}
	c := &Counter{slots: make([]slot, workers)}
	c.state.Store(uint64(producers)<<openShift | uint64(producers)<<regShift)
	empty := make([]*slot, 0)
	c.prods.Store(&empty)
	return c
}

// attach hands out a producer slot: a recycled one from the free stack
// when a closed producer left one behind, else a fresh slot published into
// the RCU list. Recycled slots are already in the list — their tallies
// simply keep accumulating for the new producer.
func (c *Counter) attach() *ProducerSlot {
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return &ProducerSlot{c: c, s: s}
	}
	s := &slot{}
	old := *c.prods.Load()
	list := make([]*slot, len(old)+1)
	copy(list, old)
	list[len(old)] = s
	c.prods.Store(&list)
	c.mu.Unlock()
	return &ProducerSlot{c: c, s: s}
}

// Attach claims one of the registrations declared to NewOpen: the caller
// guarantees fewer Attach calls than the declared producer count (the
// engine tracks this under its own lock). The producer's open slot was
// counted at construction, so the system cannot have sealed — attaching
// only publishes the tally slot.
func (c *Counter) Attach() *ProducerSlot {
	return c.attach()
}

// Register adds a producer dynamically: open and registered increment
// together in one CAS, so a concurrent Quiescent either observes the new
// open producer or fails its seal CAS on the changed registered count. It
// returns ok == false permanently once the counter has sealed — the
// execution terminated — and the caller must not produce.
func (c *Counter) Register() (p *ProducerSlot, ok bool) {
	//relax:allow spinbound: each failed CAS certifies another register/close/seal committed on the state word — system-wide progress
	for {
		st := c.state.Load()
		if st&sealedBit != 0 {
			return nil, false
		}
		if c.state.CompareAndSwap(st, st+1<<openShift+1<<regShift) {
			return c.attach(), true
		}
	}
}

// ProducerSlot is one external producer's handle on the counter: tally
// Produce calls through it before each push, then Close exactly once.
// Like the producer it backs, it is single-goroutine.
type ProducerSlot struct {
	c *Counter
	s *slot
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
// called after the producer's final Produce, exactly once; it panics if
// the counter has no open producers to close. The slot is recycled: the
// next Attach or Register reuses it instead of growing the slot list.
func (p *ProducerSlot) Close() {
	//relax:allow spinbound: each failed CAS certifies another register/close/seal committed on the state word — system-wide progress
	for {
		st := p.c.state.Load()
		if openCount(st) == 0 {
			panic("inflight: Close without an open producer")
		}
		if p.c.state.CompareAndSwap(st, st-1<<openShift) {
			break
		}
	}
	c := p.c
	c.mu.Lock()
	c.free = append(c.free, p.s)
	c.mu.Unlock()
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

// Open returns the number of registered producers not yet closed.
func (c *Counter) Open() int64 { return openCount(c.state.Load()) }

// Sealed reports whether termination has been observed: Quiescent returned
// true at least once, and every future Register fails.
func (c *Counter) Sealed() bool { return c.state.Load()&sealedBit != 0 }

// Quiescent reports whether every producer has closed and every produced
// task has been completed. A true result is definitive and permanent: the
// counter seals, so no later Register can resurrect the system (see the
// package comment for the double-scan argument, why the state word is read
// first, and why sealing CASes against the monotone registered count). A
// false result may be transient and callers should re-poll.
func (c *Counter) Quiescent() bool {
	st := c.state.Load()
	if st&sealedBit != 0 {
		return true
	}
	if openCount(st) != 0 {
		return false
	}
	prods := *c.prods.Load()
	var completed int64
	for i := range c.slots {
		completed += c.slots[i].completed.Load()
	}
	var produced int64
	for i := range c.slots {
		produced += c.slots[i].produced.Load()
	}
	for _, s := range prods {
		produced += s.produced.Load()
	}
	if completed != produced {
		return false
	}
	if c.state.CompareAndSwap(st, st|sealedBit) {
		return true
	}
	// The seal lost a race: either another scanner sealed (quiescent
	// stands) or a producer registered mid-scan (it does not).
	return c.state.Load()&sealedBit != 0
}

// Live returns a racy snapshot of produced-minus-completed tasks. For
// diagnostics only; termination decisions must use Quiescent.
func (c *Counter) Live() int64 {
	var live int64
	for i := range c.slots {
		live += c.slots[i].produced.Load() - c.slots[i].completed.Load()
	}
	for _, s := range *c.prods.Load() {
		live += s.produced.Load()
	}
	return live
}

// Tallies returns racy snapshots of the global produced and completed
// sums. For diagnostics only.
func (c *Counter) Tallies() (produced, completed int64) {
	for i := range c.slots {
		produced += c.slots[i].produced.Load()
		completed += c.slots[i].completed.Load()
	}
	for _, s := range *c.prods.Load() {
		produced += s.produced.Load()
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
	var sum int64
	for i := range c.slots {
		sum += c.slots[i].produced.Load() + c.slots[i].completed.Load()
	}
	for _, s := range *c.prods.Load() {
		sum += s.produced.Load()
	}
	return sum
}
