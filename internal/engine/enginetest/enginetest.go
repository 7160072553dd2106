// Package enginetest is the shared conformance and race-stress suite for
// the generic relaxed-execution engine, mirroring internal/cq/cqtest: run
// it (with -race in CI) against every cq backend, and a backend is known to
// drive the engine correctly exactly when enginetest.Run accepts it.
//
// The suite exercises the engine contract with synthetic workloads chosen
// to stress each clause in isolation:
//
//   - a flat frontier (pure drain: every seeded task executed exactly once);
//   - a spawn-heavy tree (dynamic task creation: termination must hold while
//     every pop multiplies the pending work, the regime that breaks naive
//     "queue looked empty" exits);
//   - a dependency chain (worst-case re-insertion: at most one task is
//     runnable at any time, so blocked pops recycle constantly and the
//     batched path must keep parked pairs live);
//   - a duplicate-discard workload (the Discarded status: stale pops are
//     consumed without work, exactly SSSP's staleness filter);
//   - a streaming workload (open system: external producers push prioritized
//     tasks while workers drain, termination waits for every producer to
//     close on top of in-flight quiescence);
//   - the producer-close-versus-idle-worker race (producers stay silent long
//     enough for every worker to fall into sleep backoff, then push a late
//     burst — or nothing at all — and close; the execution must pick up the
//     late arrivals and terminate);
//   - the failure-semantics clauses (robust.go): Stop and Deadline drain to
//     a partial Interrupted result within a bounded time, panicking tasks
//     are quarantined without crashing or wedging the run, the
//     MaxBlockedRetries cap ends blocked-livelock, the stall watchdog
//     aborts (or reports, via OnStall) a globally stuck execution, and a
//     Producer's Close-flush races Stop without stranding counted pairs.
//
// ChaosConformance (chaos.go) composes all of the above: the workload
// families re-run under seeded internal/fault plans — injected stalls,
// forced Blocked returns, poison-task panics, delayed producer closes —
// and the suite asserts exactly-once accounting against the injector's
// ground truth on every backend.
//
// Real-workload conformance (static-DAG, SSSP, branch-and-bound through
// their public adapters) lives in the engine's external test, which sweeps
// this suite's same backend x batch grid.
package enginetest

import (
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
)

// batchSizes is the batching grid every subtest sweeps: the singleton path,
// a small batch and a batch large enough to cover whole subproblems.
var batchSizes = []int{0, 4, 64}

// Run executes the full conformance and stress suite against the backend.
func Run(t *testing.T, backend cq.Backend) {
	t.Run("FlatFrontier", func(t *testing.T) { testFlatFrontier(t, backend) })
	t.Run("SpawnHeavyTermination", func(t *testing.T) { testSpawnHeavyTermination(t, backend) })
	t.Run("DependencyChain", func(t *testing.T) { testDependencyChain(t, backend) })
	t.Run("DuplicateDiscard", func(t *testing.T) { testDuplicateDiscard(t, backend) })
	t.Run("StreamingProducers", func(t *testing.T) { testStreamingProducers(t, backend) })
	t.Run("ProducerCloseIdleRace", func(t *testing.T) { testProducerCloseIdleRace(t, backend) })
	t.Run("ParkWakeRace", func(t *testing.T) { testParkWakeRace(t, backend) })
	t.Run("IdleParksWorkers", func(t *testing.T) { testIdleParksWorkers(t, backend) })
	t.Run("StopDrains", func(t *testing.T) { testStopDrains(t, backend) })
	t.Run("StopAfterCompletion", func(t *testing.T) { testStopAfterCompletion(t, backend) })
	t.Run("DeadlineInterrupts", func(t *testing.T) { testDeadlineInterrupts(t, backend) })
	t.Run("PanicQuarantine", func(t *testing.T) { testPanicQuarantine(t, backend) })
	t.Run("RetryCap", func(t *testing.T) { testRetryCap(t, backend) })
	t.Run("WatchdogAborts", func(t *testing.T) { testWatchdogAborts(t, backend) })
	t.Run("WatchdogCallback", func(t *testing.T) { testWatchdogCallback(t, backend) })
	t.Run("ProducerAbsorbAfterStop", func(t *testing.T) { testProducerAbsorbAfterStop(t, backend) })
	t.Run("ProducerCloseStopRace", func(t *testing.T) { testProducerCloseStopRace(t, backend) })
}

func opts(backend cq.Backend, threads, batch int, seed uint64) engine.Options {
	return engine.Options{ExecOptions: engine.ExecOptions{
		Threads: threads, QueueMultiplier: 2, Backend: backend,
		BatchSize: batch, Seed: seed,
	}}
}

// checkStats verifies the engine's accounting identity — every pop is
// counted exactly once as Executed, Discarded, Reinserted or Failed — and
// that a fault-free run reports a clean Result: no quarantined tasks (a
// workload panic silently swallowed into Failures would otherwise pass), no
// interruption, no stall report.
func checkStats(t *testing.T, st engine.Result) {
	t.Helper()
	if st.Popped != st.Executed+st.Discarded+st.Reinserted+st.Failed {
		t.Fatalf("stats do not sum: %+v", st.Stats)
	}
	if int64(len(st.Failures)) != st.Failed {
		t.Fatalf("Failed = %d but len(Failures) = %d", st.Failed, len(st.Failures))
	}
	if len(st.Failures) != 0 {
		t.Fatalf("unexpected quarantined tasks: %+v", st.Failures)
	}
	if st.Interrupted {
		t.Fatalf("run unexpectedly marked Interrupted")
	}
	if st.Stall != nil {
		t.Fatalf("unexpected stall report: %+v", st.Stall)
	}
}

// flatWorkload seeds n independent tasks and spawns nothing.
type flatWorkload struct {
	n    int
	hits []atomic.Int32
}

func (w *flatWorkload) Frontier(emit func(value, priority int64)) {
	for i := 0; i < w.n; i++ {
		emit(int64(i), int64(i))
	}
}

func (w *flatWorkload) TryExecute(_ *engine.Ctx, value, _ int64) engine.Status {
	w.hits[value].Add(1)
	return engine.Executed
}

func testFlatFrontier(t *testing.T, backend cq.Backend) {
	const n = 4000
	for _, batch := range batchSizes {
		w := &flatWorkload{n: n, hits: make([]atomic.Int32, n)}
		st, err := engine.Run(w, opts(backend, 4, batch, 1))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		checkStats(t, st)
		if st.Executed != n || st.Popped != n {
			t.Fatalf("batch %d: executed %d, popped %d, want %d", batch, st.Executed, st.Popped, n)
		}
		for i := range w.hits {
			if got := w.hits[i].Load(); got != 1 {
				t.Fatalf("batch %d: task %d executed %d times", batch, i, got)
			}
		}
	}
}

// treeWorkload spawns a complete tree of the given depth and branching:
// every executed task at depth < depth spawns branch children. Total tasks
// = (branch^(depth+1) - 1) / (branch - 1). Values encode the depth so the
// workload needs no shared node state — the spawn-heavy regime where every
// pop multiplies the pending work, which is exactly what the termination
// protocol must survive.
type treeWorkload struct {
	depth, branch int
	executed      atomic.Int64
}

func (w *treeWorkload) Frontier(emit func(value, priority int64)) {
	emit(0, 0) // value = depth of the node
}

func (w *treeWorkload) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	w.executed.Add(1)
	if int(value) < w.depth {
		for c := 0; c < w.branch; c++ {
			ctx.Spawn(value+1, priority+1)
		}
	}
	return engine.Executed
}

func testSpawnHeavyTermination(t *testing.T, backend cq.Backend) {
	const depth, branch = 8, 3
	want := int64(0)
	for d, pow := 0, int64(1); d <= depth; d, pow = d+1, pow*branch {
		want += pow
	}
	for _, batch := range batchSizes {
		for _, threads := range []int{1, 4, 8} {
			w := &treeWorkload{depth: depth, branch: branch}
			st, err := engine.Run(w, opts(backend, threads, batch, uint64(7+threads)))
			if err != nil {
				t.Fatalf("threads %d batch %d: %v", threads, batch, err)
			}
			checkStats(t, st)
			if got := w.executed.Load(); got != want {
				t.Fatalf("threads %d batch %d: executed %d of %d spawned tasks", threads, batch, got, want)
			}
			if st.Executed != want {
				t.Fatalf("threads %d batch %d: stats.Executed = %d, want %d", threads, batch, st.Executed, want)
			}
		}
	}
}

// chainWorkload is the worst-case static dependency structure: task i is
// Blocked until task i-1 has executed, so at most one task is ever
// runnable and every other pop recycles through re-insertion.
type chainWorkload struct {
	n    int
	done []atomic.Bool
}

func (w *chainWorkload) Frontier(emit func(value, priority int64)) {
	for i := 0; i < w.n; i++ {
		emit(int64(i), int64(i))
	}
}

func (w *chainWorkload) TryExecute(_ *engine.Ctx, value, _ int64) engine.Status {
	if value > 0 && !w.done[value-1].Load() {
		return engine.Blocked
	}
	if w.done[value].Swap(true) {
		// A second execution of the same task means a pair was duplicated.
		panic("enginetest: chain task executed twice")
	}
	return engine.Executed
}

func testDependencyChain(t *testing.T, backend cq.Backend) {
	const n = 300
	for _, batch := range batchSizes {
		w := &chainWorkload{n: n, done: make([]atomic.Bool, n)}
		st, err := engine.Run(w, opts(backend, 4, batch, 3))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		checkStats(t, st)
		if st.Executed != n {
			t.Fatalf("batch %d: executed %d of %d", batch, st.Executed, n)
		}
		if st.Reinserted != st.Popped-n {
			t.Fatalf("batch %d: reinserted %d, popped %d, executed %d", batch, st.Reinserted, st.Popped, n)
		}
		for i := range w.done {
			if !w.done[i].Load() {
				t.Fatalf("batch %d: task %d never executed", batch, i)
			}
		}
	}
}

// dupWorkload spawns every child twice and discards the second arrival —
// the duplicate-insertion-plus-staleness-filter pattern of DecreaseKey-free
// SSSP, exercising the Discarded status under concurrency.
type dupWorkload struct {
	levels int
	width  int
	seen   []atomic.Bool
}

func (w *dupWorkload) Frontier(emit func(value, priority int64)) {
	for i := 0; i < w.width; i++ {
		emit(int64(i), 0) // level-0 ids: [0, width)
	}
}

func (w *dupWorkload) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	if w.seen[value].Swap(true) {
		return engine.Discarded
	}
	level := int(value) / w.width
	if level+1 < w.levels {
		next := int64((level+1)*w.width + int(value)%w.width)
		ctx.Spawn(next, priority+1)
		ctx.Spawn(next, priority+2) // duplicate: must be discarded on arrival
	}
	return engine.Executed
}

// streamWorkload is the open-system workload: an empty frontier (every
// task arrives from an external producer) and executed tasks optionally
// spawning one follow-up, so the scan has to prove quiescence over worker
// *and* producer tallies at once.
type streamWorkload struct {
	n     int // producer-born task ids: [0, n); spawned children: [n, 2n)
	spawn bool
	hits  []atomic.Int32
}

func (w *streamWorkload) Frontier(func(value, priority int64)) {}

func (w *streamWorkload) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	w.hits[value].Add(1)
	if w.spawn && value < int64(w.n) {
		ctx.Spawn(value+int64(w.n), priority+1)
	}
	return engine.Executed
}

// testStreamingProducers runs the full open-system contract: several
// producers (singleton pushes, batch pushes and a mid-stream Flush) feed
// the frontier while 4 workers drain, executed tasks spawn children, and
// after Wait every producer-born and spawned task must have executed
// exactly once.
func testStreamingProducers(t *testing.T, backend cq.Backend) {
	const n, producers = 3000, 3
	for _, batch := range batchSizes {
		w := &streamWorkload{n: n, spawn: true, hits: make([]atomic.Int32, 2*n)}
		o := opts(backend, 4, batch, 17)
		o.Producers = producers
		e, err := engine.Start(w, o)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		done := make(chan struct{}, producers)
		for p := 0; p < producers; p++ {
			go func(p int, prod *engine.Producer) {
				defer func() { done <- struct{}{} }()
				defer prod.Close()
				lo, hi := p*n/producers, (p+1)*n/producers
				var pairs []cq.Pair
				for i := lo; i < hi; i++ {
					switch i % 3 {
					case 0:
						prod.Push(int64(i), int64(i))
					case 1:
						pairs = append(pairs, cq.Pair{Value: int64(i), Priority: int64(i)})
					default:
						prod.Push(int64(i), int64(i))
						prod.Flush()
					}
					if len(pairs) >= 32 {
						prod.PushBatch(pairs)
						pairs = pairs[:0]
					}
				}
				prod.PushBatch(pairs)
			}(p, e.NewProducer())
		}
		st := e.Wait()
		for i := 0; i < producers; i++ {
			<-done
		}
		checkStats(t, st)
		if st.Executed != 2*n {
			t.Fatalf("batch %d: executed %d, want %d", batch, st.Executed, 2*n)
		}
		for i := range w.hits {
			if got := w.hits[i].Load(); got != 1 {
				t.Fatalf("batch %d: task %d executed %d times", batch, i, got)
			}
		}
	}
}

// testProducerCloseIdleRace is the nasty termination edge: with an empty
// frontier and a silent producer, every worker falls through its yield
// budget into sleep backoff. The producer then either pushes a late burst
// and closes, or closes without ever pushing. Workers must wake out of
// idle backoff for the late arrivals and the execution must terminate —
// a parked "queue looked empty" exit would either lose the burst or hang.
func testProducerCloseIdleRace(t *testing.T, backend cq.Backend) {
	const late = 200
	for _, batch := range batchSizes {
		for _, burst := range []int{0, late} {
			w := &streamWorkload{n: late, hits: make([]atomic.Int32, late)}
			o := opts(backend, 4, batch, 23)
			o.Producers = 1
			e, err := engine.Start(w, o)
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			p := e.NewProducer()
			go func(burst int) {
				// Long enough that every worker has exhausted its yield
				// budget and is cycling through sleep backoff.
				time.Sleep(3 * time.Millisecond)
				for i := 0; i < burst; i++ {
					p.Push(int64(i), int64(i))
				}
				p.Close()
			}(burst)
			terminated := make(chan engine.Result)
			go func() { terminated <- e.Wait() }()
			select {
			case st := <-terminated:
				if st.Executed != int64(burst) {
					t.Fatalf("batch %d burst %d: executed %d", batch, burst, st.Executed)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("batch %d burst %d: close raced idle workers into a hang", batch, burst)
			}
			for i := 0; i < burst; i++ {
				if got := w.hits[i].Load(); got != 1 {
					t.Fatalf("batch %d burst %d: task %d executed %d times", batch, burst, i, got)
				}
			}
		}
	}
}

// testParkWakeRace aims producer bursts at the exact window where the last
// worker commits to parking: each round waits until every worker is parked
// (or on the way down), then fires a burst with no warning. A lost wakeup
// strands the burst and the round times out; a miscounted wake loses jobs.
// Swept over seeds x batch sizes per backend so the park/wake interleaving
// varies; the burst alternates singleton pushes, batch pushes and
// push-then-flush so every producer-side wake path is exercised.
func testParkWakeRace(t *testing.T, backend cq.Backend) {
	const (
		rounds    = 40
		burst     = 64
		threads   = 4
		parkGrace = 10 * time.Second
	)
	for _, seed := range []uint64{29, 31} {
		for _, batch := range batchSizes {
			total := rounds * burst
			w := &streamWorkload{n: total, hits: make([]atomic.Int32, total)}
			o := opts(backend, threads, batch, seed)
			o.Producers = 1
			e, err := engine.Start(w, o)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			p := e.NewProducer()
			executed := func() int64 {
				var n int64
				for i := range w.hits {
					n += int64(w.hits[i].Load())
				}
				return n
			}
			deadline := time.Now().Add(parkGrace)
			for r := 0; r < rounds; r++ {
				// Wait for the pool to wind down: all workers parked. Round 0
				// parks out of launch; later rounds park out of a drain —
				// both sides of the race get hit. If parking itself wedges
				// (workers never all park), the deadline catches that too.
				for e.ParkedWorkers() != threads {
					if time.Now().After(deadline) {
						t.Fatalf("seed %d batch %d round %d: %d/%d workers parked after %v",
							seed, batch, r, e.ParkedWorkers(), threads, parkGrace)
					}
					time.Sleep(50 * time.Microsecond)
				}
				base := int64(r * burst)
				switch r % 3 {
				case 0:
					for i := int64(0); i < burst; i++ {
						p.Push(base+i, base+i)
					}
					p.Flush()
				case 1:
					pairs := make([]cq.Pair, burst)
					for i := range pairs {
						pairs[i] = cq.Pair{Value: base + int64(i), Priority: base + int64(i)}
					}
					p.PushBatch(pairs)
				default:
					for i := int64(0); i < burst; i++ {
						p.Push(base+i, base+i)
						if i%7 == 0 {
							p.Flush()
						}
					}
					p.Flush()
				}
				want := base + burst
				deadline = time.Now().Add(parkGrace)
				for executed() != want {
					if time.Now().After(deadline) {
						t.Fatalf("seed %d batch %d round %d: %d of %d burst jobs executed after %v — lost wakeup",
							seed, batch, r, executed()-base, burst, parkGrace)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			p.Close()
			st := e.Wait()
			checkStats(t, st)
			if st.Executed != int64(total) {
				t.Fatalf("seed %d batch %d: executed %d of %d", seed, batch, st.Executed, total)
			}
			for i := range w.hits {
				if got := w.hits[i].Load(); got != 1 {
					t.Fatalf("seed %d batch %d: task %d executed %d times", seed, batch, i, got)
				}
			}
		}
	}
}

// testIdleParksWorkers is the idle-cost acceptance test: an open execution
// with a silent producer must park every worker (no sleep-loop polling),
// stay parked, and still serve and terminate correctly afterwards.
func testIdleParksWorkers(t *testing.T, backend cq.Backend) {
	const threads = 4
	w := &streamWorkload{n: 100, hits: make([]atomic.Int32, 100)}
	o := opts(backend, threads, 0, 37)
	o.Producers = 1
	e, err := engine.Start(w, o)
	if err != nil {
		t.Fatal(err)
	}
	p := e.NewProducer()
	deadline := time.Now().Add(10 * time.Second)
	for e.ParkedWorkers() != threads {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers parked on an idle execution", e.ParkedWorkers(), threads)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Parked is stable while nothing arrives: no worker self-wakes to poll.
	time.Sleep(20 * time.Millisecond)
	if got := e.ParkedWorkers(); got != threads {
		t.Fatalf("parked pool did not stay parked: %d/%d", got, threads)
	}
	for i := 0; i < 100; i++ {
		p.Push(int64(i), int64(i))
	}
	p.Close()
	st := e.Wait()
	checkStats(t, st)
	if st.Executed != 100 {
		t.Fatalf("executed %d of 100 after unpark", st.Executed)
	}
}

func testDuplicateDiscard(t *testing.T, backend cq.Backend) {
	const levels, width = 40, 50
	for _, batch := range batchSizes {
		w := &dupWorkload{levels: levels, width: width, seen: make([]atomic.Bool, levels*width)}
		st, err := engine.Run(w, opts(backend, 4, batch, 11))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		checkStats(t, st)
		if st.Executed != levels*width {
			t.Fatalf("batch %d: executed %d, want %d", batch, st.Executed, levels*width)
		}
		// Each of the (levels-1)*width deeper tasks was spawned twice; one
		// copy executes, the other is discarded.
		if want := int64((levels - 1) * width); st.Discarded != want {
			t.Fatalf("batch %d: discarded %d, want %d", batch, st.Discarded, want)
		}
		for i := range w.seen {
			if !w.seen[i].Load() {
				t.Fatalf("batch %d: task %d never arrived", batch, i)
			}
		}
	}
}
