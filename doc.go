// Package relaxsched is a library for executing incremental algorithms
// through relaxed priority schedulers, reproducing "Efficiency Guarantees
// for Parallel Incremental Algorithms under Relaxed Schedulers" (Alistarh,
// Koval, Nadiradze; SPAA 2019).
//
// # Overview
//
// Many classic algorithms — Dijkstra's single-source shortest paths,
// Delaunay mesh triangulation, sorting by BST insertion — are incremental:
// a sequence of small tasks updates shared state, in a priority order.
// Exact concurrent priority queues serialize on their head, so scalable
// schedulers relax the order: a k-relaxed scheduler returns one of the k
// highest-priority tasks (RankBound) and never starves the top task for
// more than k-1 steps (Fairness). This library provides:
//
//   - the relaxed scheduler model and several implementations: an exact
//     heap-backed scheduler, an adversarial k-relaxed scheduler, a uniform
//     top-k scheduler, a deterministic k-LSM-style batch scheduler, the
//     MultiQueue, and a SprayList;
//   - a pluggable concurrent relaxed-queue layer (internal/cq) with three
//     backends — the lock-per-queue MultiQueue with 2-choice pops, a lazy
//     lock-based skip list with spray-height pops, and a lock-free
//     MultiQueue of mutable pairing-heap shards (a pop privatizes a whole
//     shard by swapping its root to nil, harvests minima in place, and
//     republishes the remainder; detached nodes are retired through
//     epoch-based reclamation, internal/epoch, and reused from per-worker
//     free lists so steady-state operation allocates nothing) — selectable
//     on every parallel path via a QueueBackend, plus a batch layer
//     (PushBatch/PopBatch) that amortizes one lock acquisition or CAS over
//     a whole batch of pairs, a handle layer (Handle/HandleQueue) through
//     which workers pin per-worker state — on the lock-free backend a
//     handle carries an epoch slot and a home shard, giving shard-affine
//     placement with two-choice stealing; on the MultiQueue it carries a
//     queue index and a countdown, so a worker sticks to the queue its
//     last two-choice pop chose for 16 consecutive pops and pushes and
//     leaves it without waiting when it is empty or held — and a shared
//     conformance,
//     allocation and race-stress suite (cqtest) that any future backend
//     must pass through the singleton, batch and handle paths;
//   - a generic parallel relaxed-execution engine (internal/engine) that
//     every concurrent path is a thin workload over: the engine owns the
//     worker loops (singleton and batch-amortized), the Ctx.Spawn task
//     production protocol and the in-flight termination counters
//     (internal/inflight), while a workload only implements Frontier and
//     TryExecute. The layer stack is workloads -> engine -> cq backends:
//     static-DAG execution (RunIncrementalParallel), parallel SSSP
//     (ParallelSSSPWith), best-first branch-and-bound with an atomic
//     incumbent (ParallelBranchAndBound, the Karp-Zhang dynamic-spawning
//     workload), greedy MIS/coloring over a random permutation
//     (ParallelGreedyMIS, ParallelGreedyColoring) and parallel Delaunay
//     triangulation (ParallelTriangulate) all ride the same loop, with its
//     own conformance suite (enginetest) run against every backend.
//     Delaunay is the first workload with *on-line dependency discovery*:
//     instead of a pre-built or seeded DAG, an insertion finds its
//     conflicts during execution — it claims its Bowyer-Watson cavity
//     through per-triangle atomic claim states and reports Blocked when a
//     racing insertion owns part of it, while destroyed triangles carry
//     redirects so later insertions re-locate by the Guibas-Knuth history
//     walk (entered at an earlier neighbour's star, found through a static
//     grid, rather than at the root); the mesh is verified equal to the sequential Triangulate
//     output (MeshesEqual). Since PR 5 the engine is also an *open system*:
//     external Producer handles (engine.Start + NewProducer) stream
//     prioritized tasks into the queue from outside the worker pool while
//     workers drain, with termination redefined as "all producers closed
//     and in-flight quiescent" (the producer tallies join internal/
//     inflight's provably safe double scan);
//   - a streaming top-k job scheduler on top of the external producers
//     (NewTopKStream for a caller-driven stream with JobProducer handles,
//     StreamTopK for the self-driving benchmark): producer goroutines emit
//     prioritized jobs at a configurable arrival rate, workers execute in
//     relaxed priority order, every job is verified to execute exactly
//     once, and the result reports the rank error of the executed order
//     against the true priority order;
//   - fault-tolerant execution as an engine contract (since PR 7):
//     cancellation and deadlines drain gracefully to a partial result
//     marked Interrupted (anytime branch-and-bound incumbents, anytime
//     SSSP upper bounds, at-most-once streaming drain), a panicking task
//     is quarantined into Result.Failures instead of crashing or wedging
//     the run, a retry cap quarantines livelocked Blocked tasks, and a
//     stall watchdog snapshots per-worker state when global progress
//     stops; internal/fault is the seeded chaos injector behind the
//     enginetest.ChaosConformance suite and the chaos experiment;
//   - a rank/fairness Auditor measuring the relaxation any scheduler
//     actually achieves;
//   - the generic relaxed execution framework for incremental algorithms
//     with dependency DAGs and extra-step (wasted work) accounting;
//   - two randomized incremental algorithms with dependency extraction:
//     comparison sorting by BST insertion, and 2D Delaunay triangulation
//     (Bowyer-Watson with a conflict graph and exact predicates);
//   - SSSP four ways: Dijkstra, Delta-stepping, relaxed sequential-model
//     Dijkstra (the paper's Algorithm 3), and a parallel goroutine
//     implementation over any concurrent queue backend, with optional
//     batch-amortized workers (per-worker buffers flushed batch-at-a-time)
//     and contention-free termination detection (cache-padded per-worker
//     in-flight counters, internal/inflight);
//   - a transactional-model simulator (aborts under optimistic concurrent
//     execution, Section 4 of the paper) and a real OCC transactional
//     engine workload (ParallelTransactions): a sharded versioned KV store
//     hammered by Zipf-skewed transactions, one optimistic attempt per
//     TryExecute with the engine re-insert as the retry loop (a conflict
//     aborts, as in the model), and post-run serializability
//     certification by replaying the commit log in ticket order — the
//     same TxnWorkloadSpec drives the sequential Section 4 model as the
//     conformance oracle (SimulateTransactionSpec);
//   - graph generators (uniform random, road-like grid, social-like
//     preferential attachment) and a DIMACS ".gr" parser.
//
// # Quick start
//
//	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{
//		N: 100000, M: 500000, MaxWeight: 100, Seed: 1,
//	})
//	res := relaxsched.ParallelSSSPWith(g, 0, relaxsched.ParallelSSSPOptions{
//		ExecOptions: relaxsched.ExecOptions{Threads: 8, QueueMultiplier: 2, Seed: 42},
//	})
//	fmt.Printf("overhead %.3f\n", res.Overhead())
//
// To run the same computation over a different concurrent queue design,
// with workers moving 32 pairs per queue operation — the engine plumbing
// lives in the shared ExecOptions struct every parallel options type
// embeds:
//
//	res = relaxsched.ParallelSSSPWith(g, 0, relaxsched.ParallelSSSPOptions{
//		ExecOptions: relaxsched.ExecOptions{
//			Threads: 8, QueueMultiplier: 2,
//			Backend: relaxsched.BackendLockFree, BatchSize: 32, Seed: 42,
//		},
//	})
//
// See examples/ for runnable programs, cmd/relaxbench for the harness that
// regenerates the paper's figures and step counts, and bench/ for the
// benchmark that produces and judges every timing (README section
// "Measuring"). To add a parallel workload, implement engine.Workload and
// call engine.Run — see the README section "Adding a parallel workload".
package relaxsched
