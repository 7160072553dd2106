package relaxsched

import (
	"io"

	"relaxsched/internal/bnb"
	"relaxsched/internal/bstsort"
	"relaxsched/internal/core"
	"relaxsched/internal/cq"
	"relaxsched/internal/delaunay"
	"relaxsched/internal/engine"
	"relaxsched/internal/geom"
	"relaxsched/internal/graph"
	"relaxsched/internal/mis"
	"relaxsched/internal/multiqueue"
	"relaxsched/internal/sched"
	"relaxsched/internal/spraylist"
	"relaxsched/internal/sssp"
	"relaxsched/internal/txn"
)

// Scheduler is the sequential relaxed-scheduler model of the paper
// (Section 2): a priority multiset with approximate minimum retrieval.
// Lower priorities are returned first.
type Scheduler = sched.Scheduler

// DecreaseKeyer is implemented by schedulers that can lower a pending
// task's priority in place (required by relaxed SSSP).
type DecreaseKeyer = sched.DecreaseKeyer

// AuditReport summarizes the measured rank and fairness behaviour of a
// scheduler wrapped by NewAuditor.
type AuditReport = sched.Report

// NewExactScheduler returns a strict (k = 1) scheduler over task ids
// [0, n).
func NewExactScheduler(n int) Scheduler { return sched.NewExact(n) }

// NewKRelaxedScheduler returns the adversarial k-relaxed scheduler: it
// respects RankBound and Fairness but otherwise maximizes priority
// inversions. Use it to measure worst-case relaxation costs.
func NewKRelaxedScheduler(n, k int) Scheduler { return sched.NewKRelaxed(n, k) }

// NewRandomKScheduler returns a benign k-relaxed scheduler that serves a
// uniformly random task among the k smallest.
func NewRandomKScheduler(n, k int, seed uint64) Scheduler { return sched.NewRandomK(n, k, seed) }

// NewBatchScheduler returns the deterministic k-LSM-style batch scheduler;
// it is (2k-1)-relaxed in the paper's model.
func NewBatchScheduler(n, k int) Scheduler { return sched.NewBatch(n, k) }

// MultiQueueOptions configure NewMultiQueueWith.
type MultiQueueOptions struct {
	// N is the task-id capacity: the scheduler holds ids in [0, N).
	N int
	// Queues is the number of internal queues.
	Queues int
	// Choices is the probe width of each pop (classic configuration: 2).
	Choices int
	// Hashed routes each id to a fixed queue by hash instead of a random
	// one, enabling DecreaseKey (required by RelaxedSSSP).
	Hashed bool
	// Seed drives queue selection.
	Seed uint64
}

// NewMultiQueueWith returns a sequential-model MultiQueue (the paper's
// Section 2 structure under the Section 7 implementation's parameters).
func NewMultiQueueWith(opts MultiQueueOptions) Scheduler {
	policy := multiqueue.RandomQueue
	if opts.Hashed {
		policy = multiqueue.HashedQueue
	}
	return multiqueue.New(opts.N, opts.Queues, opts.Choices, policy, opts.Seed)
}

// SprayListOptions configure NewSprayListWith.
type SprayListOptions struct {
	// N is the task-id capacity: the scheduler holds ids in [0, N).
	N int
	// Threads is the simulated thread count the spray heights are tuned
	// for.
	Threads int
	// Seed drives the spray randomness.
	Seed uint64
}

// NewSprayListWith returns a sequential-model SprayList (lazy skip list
// with spray-height pops).
func NewSprayListWith(opts SprayListOptions) Scheduler {
	return spraylist.New(opts.N, opts.Threads, opts.Seed)
}

// Auditor wraps a scheduler and measures the rank of every returned task
// and the inversions suffered by the minimum, i.e. the empirical
// relaxation factor.
type Auditor = sched.Auditor

// NewAuditor wraps inner with rank/fairness measurement. histWidth bounds
// the rank histogram.
func NewAuditor(inner Scheduler, histWidth int) *Auditor { return sched.NewAuditor(inner, histWidth) }

// TopKStreamOptions configure a streaming top-k execution: worker count,
// queue multiplier, concurrent queue Backend, BatchSize (applied on both
// the worker and the producer side), Seed, the number of declared
// Producers, and an optional per-job Execute body.
type TopKStreamOptions = sched.StreamOptions

// TopKStreamResult summarizes a finished streaming execution: executed job
// count, the priorities in global execution order, and the mean/max rank
// error of that order against the true priority order.
type TopKStreamResult = sched.StreamResult

// TopKStream is a live streaming execution: workers drain jobs in relaxed
// priority order while JobProducer handles stream more in.
type TopKStream = sched.TopKStream

// JobProducer streams prioritized jobs into a TopKStream from a single
// goroutine: Push feeds jobs (buffered per BatchSize, Flush forces
// visibility), Close marks the arrival stream finished. Push after Close
// panics; Close is idempotent.
type JobProducer = sched.JobProducer

// NewTopKStream opens the engine to external producers — the open-system
// counterpart of the closed-world parallel paths, whose tasks are all born
// inside workers via spawning. It launches the worker pool immediately;
// create exactly opts.Producers handles with NewProducer, stream and close
// each, then Wait for the result. Termination is "all producers closed AND
// all streamed jobs executed".
func NewTopKStream(opts TopKStreamOptions) (*TopKStream, error) { return sched.NewTopKStream(opts) }

// StreamTopKOptions configure StreamTopK: the embedded TopKStreamOptions
// plus JobsPerProducer and the per-producer arrival Rate in jobs/sec
// (0 = unthrottled).
type StreamTopKOptions = sched.TopKRunOptions

// StreamTopK runs the self-driving streaming top-k benchmark: Producers
// goroutines emit JobsPerProducer jobs each with distinct random priorities
// at the configured arrival rate, workers execute in relaxed priority
// order, and every job is verified to execute exactly once. The result's
// rank error measures how far the executed order strayed from the true
// priority order — the open-system analogue of the sequential model's
// RankBound.
func StreamTopK(opts StreamTopKOptions) (TopKStreamResult, error) { return sched.ParallelTopK(opts) }

// DAG is a dependency DAG over tasks labelled 0..N-1 in priority order.
type DAG = core.DAG

// NewDAG returns a DAG over n tasks with no dependencies.
func NewDAG(n int) *DAG { return core.NewDAG(n) }

// RunOptions configures RunIncremental.
type RunOptions = core.Options

// RunResult reports the steps, extra steps and inversions of a relaxed
// incremental execution.
type RunResult = core.Result

// RunIncremental executes the task set described by dag through s
// (Algorithm 2 of the paper) and returns the wasted-work accounting.
func RunIncremental(dag *DAG, s Scheduler, opts RunOptions) (RunResult, error) {
	return core.Run(dag, s, opts)
}

// ExecOptions are the engine knobs shared by every parallel execution
// path: queue Backend and QueueMultiplier, Threads, BatchSize, Seed,
// Deadline, MaxBlockedRetries, StallTimeout/OnStall and the fault Injector.
// Every parallel options struct (ParallelSSSPOptions, ParallelRunOptions,
// ParallelBnBOptions, ParallelMISOptions, ParallelDelaunayOptions,
// TopKStreamOptions, ParallelTxnOptions) embeds ExecOptions instead of
// re-declaring these fields, so the engine plumbing is configured
// identically everywhere:
//
//	relaxsched.ParallelSSSPWith(g, 0, relaxsched.ParallelSSSPOptions{
//		ExecOptions: relaxsched.ExecOptions{Threads: 8, QueueMultiplier: 2},
//	})
//
// Migration note: before this redesign each struct declared the fields
// directly, so keyed literals like ParallelSSSPOptions{Threads: 8} must
// become the nested form above. Field *reads* are unaffected — embedding
// promotes the fields, so opts.Threads still works.
type ExecOptions = engine.ExecOptions

// QueueBackend names a concurrent relaxed-queue implementation used by the
// parallel execution paths (RunIncrementalParallel, ParallelSSSPWith). The
// zero value selects the default backend.
type QueueBackend = cq.Backend

const (
	// BackendMultiQueue is the lock-per-queue MultiQueue with 2-choice pops
	// (the paper's Section 7 structure; the default). Each worker stays on
	// the queue its last two-choice pop chose for 16 consecutive
	// single-element operations (sticky handles), which multiplies the
	// effective relaxation k by a constant and keeps a worker's heap
	// traffic on its own core's cache lines.
	BackendMultiQueue = cq.MultiQueueBackend
	// BackendSprayList is the lazy lock-based skip list with spray-height
	// pops (SprayList, PPoPP 2015).
	BackendSprayList = cq.SprayListBackend
	// BackendLockFree is the lock-free MultiQueue: each internal queue is
	// an immutable pairing heap behind one atomic root pointer
	// (Treiber-style), and pops CAS-steal the cached top. No operation
	// ever holds a lock, so a preempted worker cannot block the others.
	BackendLockFree = cq.LockFreeBackend
	// BackendExact is the strict-order control: one binary heap behind one
	// mutex, relaxation factor exactly 1. Use it to price relaxation
	// against strict ordering on the same worker/engine harness.
	BackendExact = cq.ExactBackend
)

// QueueBackends returns every available concurrent queue backend, default
// first.
func QueueBackends() []QueueBackend { return cq.Backends() }

// ParallelRunOptions configure RunIncrementalParallel. Its Backend field
// selects the concurrent queue implementation; its BatchSize field sets
// how many labels a worker moves per queue operation (<= 1 disables
// batching).
type ParallelRunOptions = core.ParallelOptions

// RunIncrementalParallel executes the task set with worker goroutines over
// a concurrent relaxed queue — the concurrent analogue of Algorithm 2.
// Blocked tasks are re-inserted, and every pop counts as a step, so
// ExtraSteps again measures speculation waste.
func RunIncrementalParallel(dag *DAG, opts ParallelRunOptions) (RunResult, error) {
	return core.ParallelRun(dag, opts)
}

// Graph is a weighted directed graph in CSR form.
type Graph = graph.Graph

// GraphBuilder accumulates arcs and builds a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// RandomGraphOptions configure RandomGraphWith: N nodes, M undirected
// edges, weights uniform in [1, MaxWeight], generation driven by Seed.
type RandomGraphOptions struct {
	N         int
	M         int
	MaxWeight int64
	Seed      uint64
}

// RandomGraphWith generates an undirected uniform G(n, m) graph.
func RandomGraphWith(opts RandomGraphOptions) *Graph {
	return graph.Random(opts.N, opts.M, opts.MaxWeight, opts.Seed)
}

// RoadGraph generates a road-network-like grid graph (high diameter,
// distance-like weights in [1, maxW], dropPerMille/1000 of the vertical
// edges removed).
//
// Deprecated: Use RoadGraphWith, whose options struct names each knob.
func RoadGraph(width, height int, maxW int64, dropPerMille int, seed uint64) *Graph {
	return RoadGraphWith(RoadGraphOptions{
		Width: width, Height: height, MaxWeight: maxW,
		DropPerMille: dropPerMille, Seed: seed,
	})
}

// RoadGraphOptions configure RoadGraphWith: a Width x Height grid with
// distance-like weights in [1, MaxWeight] and DropPerMille/1000 of the
// vertical edges removed (raising the diameter, as in road networks).
type RoadGraphOptions struct {
	Width        int
	Height       int
	MaxWeight    int64
	DropPerMille int
	Seed         uint64
}

// RoadGraphWith generates a road-network-like grid graph.
func RoadGraphWith(opts RoadGraphOptions) *Graph {
	return graph.Road(opts.Width, opts.Height, opts.MaxWeight, opts.DropPerMille, opts.Seed)
}

// SocialGraphOptions configure SocialGraphWith: N nodes arriving with
// Degree preferential-attachment edges each, weights in [1, MaxWeight].
type SocialGraphOptions struct {
	N         int
	Degree    int
	MaxWeight int64
	Seed      uint64
}

// SocialGraphWith generates a social-network-like preferential-attachment
// graph.
func SocialGraphWith(opts SocialGraphOptions) *Graph {
	return graph.Social(opts.N, opts.Degree, opts.MaxWeight, opts.Seed)
}

// ParseDIMACS reads a graph in the DIMACS shortest-path ".gr" format.
func ParseDIMACS(r io.Reader) (*Graph, error) { return graph.ParseDIMACS(r) }

// WriteDIMACS writes a graph in the DIMACS ".gr" format.
func WriteDIMACS(w io.Writer, g *Graph) error { return graph.WriteDIMACS(w, g) }

// SSSPResult is the output of the sequential SSSP variants.
type SSSPResult = sssp.Result

// ParallelSSSPResult is the output of ParallelSSSPWith.
type ParallelSSSPResult = sssp.ParallelResult

// InfDistance is the distance reported for unreachable vertices.
const InfDistance = sssp.Inf

// Dijkstra computes exact shortest paths from src.
func Dijkstra(g *Graph, src int) SSSPResult { return sssp.Dijkstra(g, src) }

// DeltaStepping computes exact shortest paths with a monotone bucket queue
// of width delta.
func DeltaStepping(g *Graph, src int, delta int64) SSSPResult {
	return sssp.DeltaStepping(g, src, delta)
}

// DijkstraTree computes exact shortest paths and the shortest-path tree:
// parents[v] is v's predecessor on a shortest path (-1 for the source and
// for unreachable vertices).
func DijkstraTree(g *Graph, src int) (SSSPResult, []int32) { return sssp.DijkstraTree(g, src) }

// ShortestPathTo reconstructs the path from src to v out of a parent array
// returned by DijkstraTree; nil if unreachable.
func ShortestPathTo(parents []int32, src, v int) []int { return sssp.PathTo(parents, src, v) }

// RelaxedSSSP runs the paper's Algorithm 3: Dijkstra through a relaxed
// scheduler supporting DecreaseKey (e.g. NewMultiQueueWith with Hashed
// set, NewSprayListWith, or NewKRelaxedScheduler). The pop count in the result is
// the quantity Theorem 6.1 bounds.
func RelaxedSSSP(g *Graph, src int, q Scheduler) (SSSPResult, error) {
	rq, ok := q.(sssp.RelaxedScheduler)
	if !ok {
		return SSSPResult{}, errNoDecreaseKey
	}
	return sssp.Relaxed(g, src, rq)
}

type noDecreaseKeyError struct{}

func (noDecreaseKeyError) Error() string {
	return "relaxsched: scheduler does not support DecreaseKey"
}

var errNoDecreaseKey = noDecreaseKeyError{}

// ParallelSSSPOptions configure ParallelSSSPWith; the Backend field selects
// the concurrent queue implementation and the BatchSize field the number
// of (vertex, dist) pairs a worker moves per queue operation (<= 1 runs
// the paper's per-element protocol).
type ParallelSSSPOptions = sssp.ParallelOptions

// ParallelSSSPWith runs SSSP with worker goroutines over the selected
// concurrent relaxed-queue backend. It panics on invalid options (Threads
// or QueueMultiplier < 1, unknown Backend); validate runtime input with
// QueueBackend.Valid first.
func ParallelSSSPWith(g *Graph, src int, opts ParallelSSSPOptions) ParallelSSSPResult {
	return sssp.ParallelWith(g, src, opts)
}

// Point is a point in the plane.
type Point = geom.Point

// Triangle is one triangle of a Delaunay mesh, as indices into the input
// point slice.
type Triangle = delaunay.Triangle

// Triangulate computes the Delaunay triangulation of points (incremental
// Bowyer-Watson with exact predicates). Pass a non-nil order to control
// the insertion sequence. Duplicate points and NaN or infinite coordinates
// are errors.
func Triangulate(points []Point, order []int) ([]Triangle, error) {
	return delaunay.Triangulate(points, order)
}

// DelaunayDAG runs the sequential randomized incremental triangulation in
// label order and returns the dependency DAG used by the paper's framework
// (points should be pre-shuffled for a random order).
func DelaunayDAG(points []Point) (*DAG, error) {
	dag, _, err := delaunay.BuildDAG(points)
	return dag, err
}

// ParallelDelaunayOptions configure ParallelTriangulate: worker count,
// queue multiplier, concurrent queue Backend, BatchSize and Seed.
type ParallelDelaunayOptions = delaunay.ParallelOptions

// ParallelDelaunayResult is the wasted-work accounting of a parallel
// triangulation: Pops, Inserted, Blocked (cavity claims lost to racing
// insertions and re-inserted — this workload's extra steps) and Tris, plus
// what locating cost: DescentSteps (history stars scanned) and SeedFallbacks
// (first locates that had to start at the root of the history).
type ParallelDelaunayResult = delaunay.ParallelResult

// ParallelTriangulate computes the Delaunay triangulation with worker
// goroutines over a concurrent relaxed queue — the engine workload whose
// dependency DAG is discovered *during* execution: an insertion locates
// its conflict triangle through the history of destroyed triangles
// (entering it at an earlier neighbour's star, not at the root), claims
// the Bowyer-Watson cavity via per-triangle atomic claim states, and is
// re-inserted when a racing insertion owns part of it. Insertions are
// prioritized by permutation index (order as in Triangulate; nil = 0..n-1).
// For points in general position the mesh equals Triangulate's for any
// schedule — compare with MeshesEqual, as triangle order differs. Input is
// validated as in Triangulate, before any worker starts.
func ParallelTriangulate(points []Point, order []int, opts ParallelDelaunayOptions) ([]Triangle, ParallelDelaunayResult, error) {
	return delaunay.ParallelTriangulate(points, order, opts)
}

// MeshesEqual reports whether two meshes contain the same triangles,
// ignoring order and vertex rotation.
func MeshesEqual(a, b []Triangle) bool { return delaunay.MeshesEqual(a, b) }

// BSTSort sorts keys by binary-search-tree insertion (the paper's
// comparison-sorting incremental algorithm).
func BSTSort(keys []int64) []int64 { return bstsort.Sort(keys) }

// BSTSortDAG returns the ancestor dependency DAG of the BST built by
// inserting keys in order.
func BSTSortDAG(keys []int64) *DAG {
	dag, _ := bstsort.BuildDAG(keys)
	return dag
}

// GreedyWorkload is a random-order greedy-iterative task system over a
// graph (vertices in a random permutation; a vertex depends on its
// earlier-ordered neighbours).
type GreedyWorkload = mis.Workload

// NewGreedyWorkload draws the random vertex order for g from seed and
// builds the dependency DAG.
func NewGreedyWorkload(g *Graph, seed uint64) *GreedyWorkload { return mis.NewWorkload(g, seed) }

// GreedyMIS computes the greedy maximal independent set of the workload's
// permutation through the given scheduler; the result is scheduler-
// independent, only the wasted work varies.
func GreedyMIS(w *GreedyWorkload, s Scheduler) ([]bool, RunResult, error) {
	return mis.GreedyMIS(w, s)
}

// GreedyColoring computes the greedy (first-fit) coloring of the
// workload's permutation through the given scheduler.
func GreedyColoring(w *GreedyWorkload, s Scheduler) ([]int32, RunResult, error) {
	return mis.GreedyColoring(w, s)
}

// ParallelMISOptions configure ParallelGreedyMIS and
// ParallelGreedyColoring: just the embedded ExecOptions — unlike
// ParallelRunOptions there is no OnProcess hook, because the serialized
// processing callback is the algorithm itself here.
type ParallelMISOptions = mis.ParallelOptions

// ParallelGreedyMIS computes the greedy maximal independent set of the
// workload's permutation with worker goroutines over a concurrent relaxed
// queue (the generic engine's static-DAG workload). The set is identical to
// the sequential greedy one; only the wasted work varies.
func ParallelGreedyMIS(w *GreedyWorkload, opts ParallelMISOptions) ([]bool, RunResult, error) {
	return mis.ParallelGreedyMIS(w, opts)
}

// ParallelGreedyColoring computes the greedy (first-fit) coloring of the
// workload's permutation with worker goroutines; the colors match the
// sequential greedy coloring.
func ParallelGreedyColoring(w *GreedyWorkload, opts ParallelMISOptions) ([]int32, RunResult, error) {
	return mis.ParallelGreedyColoring(w, opts)
}

// VerifyMIS checks independence and maximality.
func VerifyMIS(g *Graph, inMIS []bool) error { return mis.VerifyMIS(g, inMIS) }

// VerifyColoring checks that a coloring is proper and complete.
func VerifyColoring(g *Graph, colors []int32) error { return mis.VerifyColoring(g, colors) }

// BnBTree describes a synthetic branch-and-bound search tree (Karp-Zhang
// style parallel backtracking, the origin of relaxed scheduling).
type BnBTree = bnb.Tree

// BnBResult summarizes a branch-and-bound run.
type BnBResult = bnb.Result

// BranchAndBound performs best-first branch-and-bound through the given
// scheduler; relaxation may expand extra nodes but never changes the
// optimum. budget caps scheduler slots (size the scheduler accordingly).
func BranchAndBound(t BnBTree, s Scheduler, budget int) (BnBResult, error) {
	return bnb.Run(t, s, budget)
}

// ParallelBnBOptions configure ParallelBranchAndBound: worker count, queue
// multiplier, concurrent queue Backend, BatchSize, Seed and the node
// Budget.
type ParallelBnBOptions = bnb.ParallelOptions

// ParallelBranchAndBound performs best-first branch-and-bound with worker
// goroutines over a concurrent relaxed queue — the Karp-Zhang dynamic-task
// workload on the generic engine. The optimum is deterministic; expanded
// and pruned counts vary with scheduling.
func ParallelBranchAndBound(t BnBTree, opts ParallelBnBOptions) (BnBResult, error) {
	return bnb.ParallelRun(t, opts)
}

// TxnConfig parameterizes the transactional-model simulation.
type TxnConfig = txn.Config

// TxnResult reports commits, aborts and makespan of a transactional
// simulation.
type TxnResult = txn.Result

// SimulateTransactions runs the paper's transactional model (Section 4)
// over the dependency DAG: concurrent optimistic execution where a
// transaction aborts iff it runs concurrently with a dependency.
func SimulateTransactions(dag *DAG, cfg TxnConfig) (TxnResult, error) {
	return txn.Simulate(dag, cfg)
}

// TxnWorkloadSpec describes a generated transactional workload: Txns
// transactions over Keys records, keys drawn Zipf(Skew), OpsPerTxn
// operations per transaction at ReadFrac reads, deterministically from
// Seed. The same spec drives both the sequential model oracle
// (SimulateTransactionSpec) and the real parallel execution
// (ParallelTransactions).
type TxnWorkloadSpec = txn.WorkloadSpec

// SimulateTransactionSpec runs the Section 4 transactional model over the
// spec's conflict DAG — the sequential oracle for the parallel OCC
// executor: same generated transactions, same conflict structure, cost
// model instead of real execution.
func SimulateTransactionSpec(spec TxnWorkloadSpec, cfg TxnConfig) (TxnResult, error) {
	return txn.SimulateSpec(spec, cfg)
}

// ParallelTxnOptions configure ParallelTransactions: the embedded engine
// ExecOptions plus the number of external Producer goroutines (0 = seed
// the whole stream through the frontier instead).
type ParallelTxnOptions = txn.ParallelOptions

// ParallelTxnResult reports a finished parallel transactional run:
// commit/abort/start counts and the quarantine count when retries are
// capped.
type ParallelTxnResult = txn.ParallelResult

// ParallelTransactions executes the generated OCC workload on the engine:
// worker goroutines run one optimistic attempt per pop, an attempt that
// conflicts aborts and is re-inserted (re-insertion is the retry loop),
// and the finished run is certified serializable by replaying its commit
// log in ticket order before the result is returned.
func ParallelTransactions(spec TxnWorkloadSpec, opts ParallelTxnOptions) (ParallelTxnResult, error) {
	return txn.ParallelRun(spec, opts)
}
