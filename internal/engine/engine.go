// Package engine is the generic parallel relaxed-execution engine behind
// every concurrent path in this repository. It owns the worker loop that
// core.ParallelRun, sssp.ParallelWith, bnb.ParallelRun and mis.ParallelGreedyMIS
// all used to hand-roll: pop a (value, priority) pair from a concurrent
// relaxed queue (any cq backend), hand it to the workload, and either
// complete it, re-insert it (dependencies unmet), or push the tasks it
// spawned — with batch-amortized queue traffic and contention-free
// termination detection shared by every workload.
//
// An algorithm plugs in by implementing Workload: Frontier emits the
// initial task pairs, and TryExecute attempts one popped task, spawning
// follow-up tasks through Ctx.Spawn. Static-DAG execution (a blocked task
// reports Blocked and is re-inserted), relaxation-spawning searches like
// SSSP (stale pops report Discarded, improvements spawn fresh pairs), and
// dynamic branch-and-bound (children spawned under an incumbent bound) are
// all ~100-line workloads over the same loop, so backend and batching
// comparisons measure the data structure, never the calling convention.
//
// Termination uses cache-padded per-worker in-flight counters (see
// internal/inflight): a worker exits only when the queue looks empty, its
// own buffers are flushed, and the cross-worker double scan proves no task
// is pending anywhere. The counter sum-scan runs only on apparent-empty,
// keeping the hot path free of shared-counter traffic.
//
// Completions are published in batches. A worker counts its pops, their
// outcomes and its completions in a plain tally only it touches, and
// publishes every 64 pops: one atomic store per stat into its workerState,
// one CompleteN into the in-flight counter. Productions stay immediate,
// because each must precede its push. That is safe because a late
// completion can only make the scan more conservative: published completed
// <= true completed <= produced, so a quiescent scan is still true
// quiescence. It stays live because a worker also publishes before every
// Quiescent call it makes (the empty-pop path and the stop drain), and its
// loop only parks or exits from one of those, so no worker parks or exits
// holding completions the scan cannot see, and the worker that drains last
// sees the balance.
//
// The frontier is seeded in one deal. Start collects the pairs Frontier
// emits in chunks that are never copied, records them all with one
// ProduceN, and hands them to the queue in one cq.Seed call, which a
// MultiQueue deals round-robin (pair i to queue i mod q, each run allocated
// once at its final length). Produce-before-visible holds as it does for a
// spawn: the ProduceN comes before the deal, and no worker has launched, so
// nothing can pop a seeded pair before it is counted. A frontier holding
// cq.ReservedPriority is refused by Start with an error before any pair
// reaches the queue or any goroutine starts.
//
// Closed-world runs (Run) are the default: every task is born from the
// frontier or from Ctx.Spawn inside a worker. Start opens the system to
// external producers — Producer handles created with Execution.NewProducer
// stream prioritized tasks into the queue while workers drain — and
// termination is then redefined as "all declared producers closed AND
// in-flight quiescent" (the producer tallies and an open-producer count
// join the same double scan; see internal/inflight's package comment for
// why the extension stays provably safe). Producers are declared at Start
// (Options.Producers) and nowhere else: NewProducer hands out exactly that
// many, so no producer can outlive the termination it gates.
//
// # Idle path: parking, not polling
//
// An idle worker does not poll. After a short backoff prefix (a few
// yields, then a few escalating sleeps — the fast path for sub-millisecond
// gaps), it parks on a per-worker slot in an internal/park lot and
// consumes no CPU until an event wakes it.
//
// Parking is only sound if no worker can sleep while work it should serve
// is, or becomes, visible. The invariant maintained here is: every action
// that makes tasks queue-visible to an idle worker is followed by a wake —
// Ctx.Spawn pushes and out-buffer flushes wake one worker per pair,
// Producer.Push/PushBatch/Flush wake after their pushes, Producer.Close
// and Stop broadcast (WakeAll), and a worker that observes quiescence
// broadcasts before exiting so its parked peers re-check and exit too. The
// one deliberate exception is a worker re-inserting its own Blocked pair:
// it keeps responsibility for that pair itself — it continues looping, and
// its own park path rechecks the queue before sleeping — so no wake is
// needed. On the parking side, a worker about to park samples its wakeup
// token, and after announcing itself parked re-checks (park.Lot's cancel
// callback) the stop flag, the termination scan and the queue's
// authoritative Len — so a push that raced ahead of the announce is always
// seen, and a wake that raced behind it always lands (the token/sema
// protocol; internal/park's package comment carries the lost-wakeup
// proof). Termination remains exact: parked workers hold no tasks and no
// buffered pairs (buffers are flushed before the first idle pop), so the
// inflight double scan's truth is unaffected by who is asleep.
//
// # Failure semantics
//
// The engine is fault-tolerant by contract, not by luck. Execution.Stop
// (or Options.Deadline) requests a graceful drain: workers stop popping,
// flush their buffers and exit, late Producer pushes are absorbed, and
// Wait returns a partial Result marked Interrupted — every workload is
// thereby anytime. A TryExecute panic is recovered and the task
// quarantined into Result.Failures (never re-inserted, never lost from
// the books); Options.MaxBlockedRetries quarantines tasks that re-insert
// forever. Options.StallTimeout arms a watchdog that detects global
// no-progress — including blocked-livelock, where re-insertion churn
// keeps the queue busy without completing anything — and either aborts
// the run with a diagnostic StallReport or hands the report to
// Options.OnStall. Options.Injector is the fault-injection seam
// (internal/fault) the chaos suite drives all of this through; see
// enginetest.ChaosConformance for the invariants.
//
// Engine-wide caveat: no well-defined global processing order exists across
// racing workers, so order-sensitive metrics of the sequential model —
// core.Result.AdjacentInversions in particular — are undefined in parallel
// runs and reported as zero by every adapter.
package engine

import (
	"fmt"
	"runtime"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/inflight"
	"relaxsched/internal/park"
	"relaxsched/internal/rng"
)

// Idle backoff for workers that keep finding the queue empty: a few
// Gosched yields first (another worker's push is usually in flight), then
// sleeps that escalate exponentially from idleSleepBase, then park. The
// sleep matters under oversubscription — spinning idle workers otherwise
// steal scheduler timeslices from the workers actually producing tasks
// during frontier ramp-up and drain, which shows up directly as wall time
// when threads exceed cores.
const (
	idleYields    = 4
	idleSleepBase = 20 * time.Microsecond
	// parkAfterSleeps is the length of the backoff prefix: after this many
	// escalating sleeps (20/40/80µs) the worker parks. Long enough that
	// sub-millisecond gaps in a busy stream never pay a park/unpark round
	// trip, short enough that a genuinely idle worker reaches zero CPU in
	// well under a millisecond.
	parkAfterSleeps = 3
)

// idleWait is one step of the backoff prefix, for idle counts below
// idleYields+parkAfterSleeps: yield for the first idleYields consecutive
// empties, then sleep with exponential escalation. Callers reset their idle
// count to 0 on any successful pop, so a burst after a long quiet stretch
// restores the fast path immediately.
func idleWait(idle int) {
	if idle < idleYields {
		runtime.Gosched()
		return
	}
	time.Sleep(idleSleepBase << uint(idle-idleYields))
}

// Status is the outcome of one TryExecute attempt.
type Status int8

const (
	// Executed: the task ran and is complete; anything it spawned through
	// Ctx.Spawn enters the queue.
	Executed Status = iota
	// Discarded: the task is complete but did no work (e.g. a stale SSSP
	// duplicate, a pruned branch-and-bound node). Distinguished from
	// Executed only for accounting.
	Discarded
	// Blocked: the task cannot run yet (an unprocessed dependency); the
	// engine re-inserts the same (value, priority) pair and counts the pop
	// as wasted work. A Blocked task must not spawn.
	Blocked
)

// Workload is the algorithm-side contract of the engine. Implementations
// must be safe for concurrent TryExecute calls from opts.Threads workers;
// the engine provides no serialization beyond the queue itself (workloads
// needing ordered side effects layer their own, as core's OnProcess does).
type Workload interface {
	// Frontier emits the initial (value, priority) pairs. It runs once,
	// before any worker starts, on the engine's goroutine; the pairs reach
	// the queue together after it returns, and a pair with
	// cq.ReservedPriority makes Start fail.
	Frontier(emit func(value, priority int64))
	// TryExecute attempts the popped task. New tasks are spawned through
	// ctx.Spawn (never from a Blocked attempt); ctx is worker-local and
	// must not escape the call.
	TryExecute(ctx *Ctx, value, priority int64) Status
}

// ExecOptions are the engine knobs every parallel workload shares: queue
// selection and relaxation, worker count, batching, seeding and the
// fault-tolerance machinery. Workload-facing options structs
// (sssp.ParallelOptions, sched.StreamOptions, txn.ParallelOptions, ...)
// embed ExecOptions instead of re-declaring these fields, so a caller
// configures every workload the same way and new engine knobs reach every
// workload without touching its options struct.
type ExecOptions struct {
	// Threads is the number of worker goroutines (>= 1).
	Threads int
	// QueueMultiplier is the relaxation multiplier of the concurrent queue
	// (>= 1; the classic MultiQueue configuration is 2, giving
	// Threads * QueueMultiplier internal queues).
	QueueMultiplier int
	// Backend selects the concurrent queue implementation; the zero value
	// is cq.DefaultBackend (the MultiQueue with 2-choice pops).
	Backend cq.Backend
	// BatchSize is the number of pairs a worker moves per queue operation:
	// pops arrive in batches, and spawned or re-inserted pairs accumulate
	// in a per-worker buffer flushed through PushBatch. Values <= 1
	// disable batching (one queue operation per pair). Producers batch the
	// same way: their pushes buffer until BatchSize pairs accumulate.
	BatchSize int
	// Seed drives the queue randomness (one split-off stream per worker and
	// per producer).
	Seed uint64
	// Deadline, when positive, bounds the run's wall time: Deadline after
	// Start the execution stops itself exactly as if Stop had been called,
	// and Run/Wait return a partial Result marked Interrupted with
	// best-so-far stats. Zero means no deadline.
	Deadline time.Duration
	// MaxBlockedRetries, when positive, caps how many times one (value,
	// priority) pair may be re-inserted as Blocked: the attempt after the
	// cap quarantines the pair (FailureKind RetriesExhausted) instead of
	// re-inserting it, so a task whose dependency can never be satisfied
	// bounds the run instead of livelocking it. Zero disables the cap.
	MaxBlockedRetries int
	// StallTimeout, when positive, arms the stall watchdog: if the global
	// progress tally (tasks produced + completed — re-insertion churn does
	// not count) stays flat for this long, the watchdog captures a
	// StallReport and either delivers it to OnStall or, with OnStall nil,
	// aborts the run (Stop, with the report on the Result). Zero disables
	// the watchdog.
	StallTimeout time.Duration
	// OnStall, when non-nil, receives each stall report instead of the
	// watchdog aborting; it runs on the watchdog goroutine and owns the
	// policy (log and wait, or call Execution.Stop). Ignored when
	// StallTimeout is zero.
	OnStall func(*StallReport)
	// Injector is the fault-injection seam (nil in production): every
	// popped task is shown to it before execution. See Injector and
	// internal/fault.
	Injector Injector
}

// Options configure a Run or Start: the shared ExecOptions plus the
// external producer declarations only the engine itself interprets.
type Options struct {
	ExecOptions
	// Producers declares how many external producer handles will be created
	// with Execution.NewProducer (>= 0); a call beyond it panics. With a
	// non-zero count the execution is an open system: termination
	// additionally waits for every declared producer to be created and
	// closed. Run requires 0 (closed world); use Start for streaming
	// executions.
	Producers int
}

// Stats is the engine's execution accounting, summed over all workers.
// Every pop is counted exactly once as Executed, Discarded, Reinserted or
// Failed.
type Stats struct {
	// Popped is the total number of pairs popped.
	Popped int64
	// Executed counts pops whose TryExecute returned Executed.
	Executed int64
	// Discarded counts pops consumed without work (stale or pruned).
	Discarded int64
	// Reinserted counts Blocked pops put back into the queue — the
	// engine-level analogue of the paper's extra steps.
	Reinserted int64
	// Failed counts quarantined pops: TryExecute panics and exhausted
	// blocked-retry budgets. The pairs themselves are in Result.Failures.
	Failed int64
}

// pushBuf is the batch-amortized push path shared by worker Ctxs and
// external Producers: with batch > 1, pairs accumulate in the out-buffer
// and flush through one PushBatch when it fills (so the buffer never grows
// beyond one batch); otherwise every push is a direct queue operation. All
// queue traffic flows through a per-worker cq.Handle, so backends with
// per-worker state get a pinned session per worker and per producer — the
// lock-free MultiQueue its epoch-reclamation slot and home shard, the
// locked MultiQueue its sticky queue (a worker's pops and spawns reuse
// one queue for a bounded run; the handle buffers nothing, so the
// termination and park re-checks still see every pair); handle-less
// backends see a zero-cost pass-through. It is single-goroutine, like the
// rng stream and handle it carries.
//
// Every path that makes pairs queue-visible wakes parked workers right
// after (the engine's no-stranded-worker invariant); with nobody parked a
// wake is a single atomic load.
type pushBuf struct {
	r     *rng.Xoshiro
	mq    cq.Handle
	lot   *park.Lot
	out   []cq.Pair // deferred pushes (batched mode only)
	batch int
}

// push inserts one pair, buffered or direct per the batch mode.
func (b *pushBuf) push(value, priority int64) {
	if b.batch > 1 {
		b.buffer(cq.Pair{Value: value, Priority: priority})
	} else {
		b.mq.Push(b.r, value, priority)
		b.lot.Wake(1)
	}
}

// buffer appends a pair to the out-buffer, flushing when it reaches the
// batch size.
func (b *pushBuf) buffer(p cq.Pair) {
	b.out = append(b.out, p)
	if len(b.out) >= b.batch {
		b.flush()
	}
}

// flush pushes the out-buffer as one batch and wakes one parked worker per
// flushed pair (capped at the parked population by Wake itself).
func (b *pushBuf) flush() {
	if len(b.out) > 0 {
		n := len(b.out)
		b.mq.PushBatch(b.r, b.out)
		b.out = b.out[:0]
		b.lot.Wake(n)
	}
}

// publishEvery is how many pops a worker's tally runs ahead of what it has
// published: every publishEvery-th pop publishes (a power of two, so the
// test is a mask). Publishing also happens before every Quiescent call a
// worker makes, which both loop exits follow, so the batching never holds
// up termination.
const publishEvery = 64

// tally is one worker's private bookkeeping: plain words only its own
// goroutine touches, published by Ctx.publish. completions counts tasks
// completed since the last publication, not yet added to the inflight
// counter; the rest are running totals.
type tally struct {
	popped, executed, discarded, reinserted, failed, emptyPops int64
	completions                                                int64
}

// Ctx is the worker-local spawn context handed to TryExecute. Spawned pairs
// are recorded in the termination counter before they become visible to
// other workers, so the workload never touches the counter protocol.
//
// Ctx also carries the worker's tally. It is written on every pop, so it is
// padded to whole cache lines: two workers' contexts never share one.
type Ctx struct {
	// Worker is this worker's index in [0, Threads); workloads may use it
	// to shard their own per-worker state.
	Worker int

	counters *inflight.Counter
	ws       *workerState
	pushBuf
	tally
	// publishMask selects the pops that publish: publishEvery-1, or 0 (every
	// pop) while a stall watchdog is armed, whose progress tally must not
	// lag a completion.
	publishMask int64
	_           [40]byte
}

// publish stores the worker's running totals into its shared workerState
// (one atomic store each, single writer) and hands its pending completions
// to the inflight counter in one CompleteN.
func (c *Ctx) publish() {
	ws := c.ws
	ws.popped.Store(c.popped)
	ws.executed.Store(c.executed)
	ws.discarded.Store(c.discarded)
	ws.reinserted.Store(c.reinserted)
	ws.failed.Store(c.failed)
	ws.emptyPops.Store(c.emptyPops)
	c.counters.CompleteN(c.Worker, c.completions)
	c.completions = 0
}

// Spawn enqueues a new task. In batched mode the pair lands in the worker's
// out-buffer, flushed through PushBatch when full (and always before a
// termination check); unbatched it is pushed immediately.
func (c *Ctx) Spawn(value, priority int64) {
	c.counters.Produce(c.Worker)
	c.push(value, priority)
}

// Run executes the workload to quiescence: workers pop from the selected
// concurrent relaxed queue and call TryExecute until every produced task —
// seed frontier, spawns and re-insertions alike — has been completed, or
// until the run is cut short (Options.Deadline, a watchdog abort), in which
// case the Result is marked Interrupted. It is the closed-world entry point
// (all tasks are born from the frontier or Ctx.Spawn); opts.Producers must
// be 0. For open-system executions fed by external producers, use Start.
//
// Every pop counts into Stats exactly once, so adapters can derive their
// historical metrics (core's Steps, sssp's Popped/Processed) without
// touching the loop.
func Run(wl Workload, opts Options) (Result, error) {
	if opts.Producers != 0 {
		return Result{}, fmt.Errorf("engine: Run is closed-world (Producers = %d); use Start", opts.Producers)
	}
	e, err := Start(wl, opts)
	if err != nil {
		return Result{}, err
	}
	return e.Wait(), nil
}

// Start validates the options, seeds the frontier and launches the worker
// pool, returning an Execution handle. The frontier goes into the queue in
// one deal before any worker starts (see the package comment); a frontier
// pair with cq.ReservedPriority makes Start return an error with nothing
// queued and nothing started. With opts.Producers > 0 the run is an open
// system: the caller creates that many Producer handles with NewProducer,
// feeds the frontier through them, closes each, and then Wait returns
// once every task — seeded, spawned and streamed alike — has been
// completed. Idle workers park and consume no CPU; every push wakes them,
// a producer closing while every worker is parked broadcasts, and the
// first worker to observe quiescence broadcasts before exiting, so
// termination stays prompt with nobody polling (see the package comment
// for the full argument).
func Start(wl Workload, opts Options) (*Execution, error) {
	if opts.Threads < 1 {
		return nil, fmt.Errorf("engine: need Threads >= 1, got %d", opts.Threads)
	}
	if opts.QueueMultiplier < 1 {
		return nil, fmt.Errorf("engine: need QueueMultiplier >= 1, got %d", opts.QueueMultiplier)
	}
	if opts.Producers < 0 {
		return nil, fmt.Errorf("engine: need Producers >= 0, got %d", opts.Producers)
	}
	mq, err := cq.New(opts.Backend, opts.Threads, opts.QueueMultiplier)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	seedRng := rng.New(opts.Seed)
	counters := inflight.NewOpen(opts.Threads, opts.Producers)
	var seed frontier
	wl.Frontier(seed.emit)
	if seed.n > 0 {
		// Produce before any pair is visible, as Ctx.Spawn does on the hot
		// path: one ProduceN for the whole frontier, then one deal into the
		// queue. No worker has launched, so nobody can pop a pair early and
		// nobody is parked to wake. A refused frontier leaves the queue
		// empty and starts nothing; the counter goes with it.
		counters.ProduceN(0, seed.n)
		if err := cq.Seed(mq, seedRng, seed.chunks); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}

	e := &Execution{
		mq:         mq,
		counters:   counters,
		lot:        park.NewLot(opts.Threads),
		seedRng:    seedRng,
		batch:      opts.BatchSize,
		workers:    make([]workerState, opts.Threads),
		maxRetries: opts.MaxBlockedRetries,
		injector:   opts.Injector,
		donec:      make(chan struct{}),
	}
	publishMask := int64(publishEvery - 1)
	if opts.StallTimeout > 0 {
		publishMask = 0
	}
	for t := 0; t < opts.Threads; t++ {
		e.wg.Add(1)
		go func(w int, r *rng.Xoshiro) {
			defer e.wg.Done()
			h := cq.HandleFor(mq)
			defer h.Close()
			ctx := &Ctx{Worker: w, counters: counters, ws: &e.workers[w], publishMask: publishMask,
				pushBuf: pushBuf{r: r, mq: h, lot: e.lot, batch: opts.BatchSize}}
			if opts.BatchSize > 1 {
				ctx.out = make([]cq.Pair, 0, opts.BatchSize)
				e.workerBatched(wl, ctx)
			} else {
				e.worker(wl, ctx)
			}
			ctx.ws.phase.Store(int32(PhaseExited))
		}(t, seedRng.Split())
	}
	if opts.Deadline > 0 {
		e.deadline = time.AfterFunc(opts.Deadline, e.Stop)
	}
	if opts.StallTimeout > 0 {
		// The watchdog is donec's only reader, so its closer starts with it.
		go func() {
			e.wg.Wait()
			close(e.donec)
		}()
		go e.watchdog(opts.StallTimeout, opts.OnStall)
	}
	return e, nil
}

// Frontier chunk sizes, in pairs. The first chunk is small, so a one-pair
// frontier (SSSP's source, a branch-and-bound root) costs one small
// allocation; the rest are 64 KB each.
const (
	firstChunkPairs = 64
	chunkPairs      = 4096
)

// frontier collects the pairs a Workload's Frontier emits, in chunks that
// are never copied: a full chunk stays where it is and the next one starts
// beside it, so the frontier costs its own size once.
type frontier struct {
	chunks [][]cq.Pair
	n      int64
}

func (f *frontier) emit(value, priority int64) {
	k := len(f.chunks) - 1
	if k < 0 || len(f.chunks[k]) == cap(f.chunks[k]) {
		size := chunkPairs
		if k < 0 {
			size = firstChunkPairs
		}
		f.chunks = append(f.chunks, make([]cq.Pair, 0, size))
		k++
	}
	f.chunks[k] = append(f.chunks[k], cq.Pair{Value: value, Priority: priority})
	f.n++
}

// idle is the shared empty-queue path, called with the worker's out-buffer
// already flushed (the loops flush before any idle step, so a parked
// worker never holds invisible pairs) and the phase published as Idle. It
// returns the next idle count. The backoff prefix runs first, and then
// the worker parks: sample the wakeup token, take the cheap outs
// (a stop or visible quiescence is about to end the loop anyway; a
// non-empty queue means a push already landed), announce, and let
// park.Lot's cancel callback re-check all three *after* the announce —
// the ordering the lost-wakeup proof in internal/park requires. On wake
// the idle count resets to 0: a woken worker always re-polls the queue at
// full speed at least once before it can park again, so a wake handed to
// it by a producer is never re-parked away without a pop attempt.
func (e *Execution) idle(ctx *Ctx, idle int) int {
	if idle < idleYields+parkAfterSleeps {
		idleWait(idle)
		return idle + 1
	}
	w := ctx.Worker
	tok := e.lot.Token(w)
	if e.stopped.Load() || e.counters.Quiescent() || e.mq.Len() != 0 {
		return idle + 1
	}
	ctx.ws.phase.Store(int32(PhaseParked))
	e.lot.Park(w, tok, func() bool {
		return e.stopped.Load() || e.mq.Len() != 0 || e.counters.Quiescent()
	})
	ctx.ws.phase.Store(int32(PhaseIdle))
	return 0
}

// stopDrain is the shared graceful-exit check at the top of both worker
// loops: once Stop (or the deadline, or a watchdog abort) has fired, the
// worker flushes its out-buffer — every spawned pair it carries becomes
// queue-visible, so the partial run's accounting stays consistent — and
// exits without popping again. The run is marked Interrupted unless the
// counters already prove quiescence (a Stop that landed after the work was
// done interrupts nothing), which is why the worker publishes its tally
// first.
func (e *Execution) stopDrain(ctx *Ctx) bool {
	if !e.stopped.Load() {
		return false
	}
	ctx.flush()
	ctx.publish()
	if !e.counters.Quiescent() {
		e.interrupted.Store(true)
	}
	return true
}

// worker is the per-pair (unbatched) loop: one queue operation per pair.
// This is the concurrent analogue of the paper's Algorithm 2 — the regime
// its Section 4 transactional model abstracts — with re-insertion playing
// the role of the sequential model's "task stays in the scheduler".
func (e *Execution) worker(wl Workload, ctx *Ctx) {
	mq, r, counters, ws := ctx.mq, ctx.r, ctx.counters, ctx.ws
	var blocked [1]cq.Pair // the pair being re-inserted
	idle := 0
	for {
		if e.stopDrain(ctx) {
			break
		}
		value, priority, ok := mq.Pop(r)
		if !ok {
			ctx.emptyPops++
			ctx.publish()
			if counters.Quiescent() {
				// Broadcast before exiting: parked peers re-run this same
				// check on wake, observe the final quiescence and exit too.
				e.lot.WakeAll()
				break
			}
			ws.phase.Store(int32(PhaseIdle))
			idle = e.idle(ctx, idle)
			continue
		}
		if idle > 0 {
			ws.phase.Store(int32(PhaseRunning))
		}
		idle = 0
		ctx.popped++
		if e.attempt(wl, ctx, value, priority) {
			// Re-insert the blocked pair and count the wasted pop. Each
			// pair has exactly one live copy, carried by this worker
			// between the pop and the re-push, then yield so this worker
			// does not hot-spin re-popping the same blocked task while its
			// dependencies are mid-flight. The re-push is a batch of one
			// because a batch goes to a random queue: a sticky handle's
			// Push would put the pair back on top of the very queue this
			// worker pops next (measured on a 200k-key BST sort: 4x the
			// blocked pops).
			blocked[0] = cq.Pair{Value: value, Priority: priority}
			mq.PushBatch(r, blocked[:])
			runtime.Gosched()
		}
		if ctx.popped&ctx.publishMask == 0 {
			ctx.publish()
		}
	}
}

// workerBatched is the batch-amortized loop: pairs arrive up to BatchSize
// at a time, and spawned or blocked pairs accumulate in the worker's
// out-buffer, flushed through PushBatch when full — so the queue's
// coordination cost (lock round-trip or CAS) is paid once per batch. The
// buffer is always flushed before a termination check, so a parked pair —
// recorded as produced, never completed — can never deadlock the counter
// protocol: Quiescent stays false until its worker flushes and the pair is
// eventually processed.
func (e *Execution) workerBatched(wl Workload, ctx *Ctx) {
	mq, r, counters, ws := ctx.mq, ctx.r, ctx.counters, ctx.ws
	in := make([]cq.Pair, ctx.batch)
	idle := 0
	for {
		if e.stopDrain(ctx) {
			break
		}
		k := mq.PopBatch(r, in)
		if k == 0 {
			ctx.emptyPops++
			if len(ctx.out) > 0 {
				ctx.flush()
				continue
			}
			ctx.publish()
			if counters.Quiescent() {
				// Broadcast before exiting: parked peers re-run this same
				// check on wake, observe the final quiescence and exit too.
				e.lot.WakeAll()
				break
			}
			ws.phase.Store(int32(PhaseIdle))
			idle = e.idle(ctx, idle)
			continue
		}
		if idle > 0 {
			ws.phase.Store(int32(PhaseRunning))
		}
		idle = 0
		blocked := 0
		for _, p := range in[:k] {
			ctx.popped++
			if e.attempt(wl, ctx, p.Value, p.Priority) {
				blocked++
				ctx.buffer(p)
			}
			if ctx.popped&ctx.publishMask == 0 {
				ctx.publish()
			}
		}
		if blocked == k {
			// The whole batch was blocked: flush the re-insertions now and
			// yield, so this worker neither parks the frontier's only live
			// copies while idle nor hot-spins re-popping them while their
			// dependencies are mid-flight on other workers.
			ctx.flush()
			runtime.Gosched()
		}
	}
}
