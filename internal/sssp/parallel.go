package sssp

import (
	"sync/atomic"

	"relaxsched/internal/engine"
	"relaxsched/internal/graph"
)

// ParallelOptions configure a concurrent SSSP run.
type ParallelOptions struct {
	// ExecOptions are the shared engine knobs: queue backend and relaxation
	// multiplier (the paper uses 2 for Figure 1 and sweeps it in Figure 2),
	// worker count, batching (improved edges accumulate in a per-worker
	// buffer flushed through PushBatch), seeding, and Deadline — at
	// expiry the engine drains gracefully and the result is marked
	// Interrupted, with the partial distances still valid upper bounds
	// (relaxation only ever lowers them), making a deadlined run an
	// anytime SSSP.
	engine.ExecOptions
}

// ParallelResult carries the output and work accounting of a concurrent
// SSSP run (Section 7 of the paper).
type ParallelResult struct {
	// Dist[v] is the shortest-path distance from the source, or Inf.
	Dist []int64
	// Popped is the total number of pop operations across all workers.
	Popped int64
	// Processed is the number of pops that passed the staleness check and
	// performed edge relaxations — the paper's "tasks executed". In a
	// sequential exact execution this equals the number of reachable
	// vertices, so Processed / Reached is the relaxation overhead plotted
	// in Figure 1 (left) and Figure 2.
	Processed int64
	// Reached is the number of vertices with finite distance.
	Reached int64
	// Interrupted reports that the run was cut short (ParallelOptions.
	// Deadline): Dist holds valid upper bounds, but some vertices may not
	// have converged to their true distance yet.
	Interrupted bool
	// Failed counts quarantined relaxation tasks (TryExecute panics
	// contained by the engine); nonzero values indicate a workload bug but
	// no longer crash the process.
	Failed int64
}

// Overhead returns Processed / Reached, the paper's overhead metric.
func (r ParallelResult) Overhead() float64 {
	if r.Reached == 0 {
		return 1
	}
	return float64(r.Processed) / float64(r.Reached)
}

// Parallel runs SSSP from src with worker goroutines over a concurrent
// MultiQueue — the paper's Section 7 configuration. It is shorthand for
// ParallelWith with the default backend.
func Parallel(g *graph.Graph, src, threads, queueMultiplier int, seed uint64) ParallelResult {
	return ParallelWith(g, src, ParallelOptions{ExecOptions: engine.ExecOptions{
		Threads:         threads,
		QueueMultiplier: queueMultiplier,
		Seed:            seed,
	}})
}

// ssspWorkload is the relaxation-spawning workload over the generic engine:
// the frontier is the single source pair, a popped (vertex, dist) pair is
// Discarded when stale (curDist > dist[v], Algorithm 3's staleness check)
// and otherwise relaxes its out-edges, spawning a fresh pair per improved
// distance. Since the concurrent queues have no DecreaseKey, improvements
// insert duplicates and staleness filtering on pop keeps the search exact.
type ssspWorkload struct {
	g    *graph.Graph
	dist []atomic.Int64
	src  int
}

func (s *ssspWorkload) Frontier(emit func(value, priority int64)) {
	emit(int64(s.src), 0)
}

func (s *ssspWorkload) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	v := int(value)
	if priority > s.dist[v].Load() {
		return engine.Discarded // stale duplicate
	}
	targets, weights := s.g.OutEdges(v)
	for i := range targets {
		u := int(targets[i])
		nd := priority + int64(weights[i])
		//relax:allow spinbound: monotone CAS-min on dist[u]; every failure means another worker tightened it, and nd >= cur exits
		for {
			cur := s.dist[u].Load()
			if nd >= cur {
				break
			}
			if s.dist[u].CompareAndSwap(cur, nd) {
				ctx.Spawn(int64(u), nd)
				break
			}
		}
	}
	return engine.Executed
}

// ParallelWith runs SSSP from src with opts.Threads worker goroutines over
// the selected concurrent relaxed queue backend. It is a thin workload over
// the generic relaxed-execution engine (internal/engine), which owns the
// worker loop, the per-worker batching buffers and the in-flight-counter
// termination protocol; workers share only the atomic tentative-distance
// array this adapter provides.
func ParallelWith(g *graph.Graph, src int, opts ParallelOptions) ParallelResult {
	if opts.Threads < 1 {
		panic("sssp: Parallel needs threads >= 1")
	}
	if opts.QueueMultiplier < 1 {
		panic("sssp: Parallel needs queueMultiplier >= 1")
	}
	n := g.NumNodes
	wl := &ssspWorkload{g: g, dist: make([]atomic.Int64, n), src: src}
	for i := range wl.dist {
		wl.dist[i].Store(Inf)
	}
	wl.dist[src].Store(0)

	stats, err := engine.Run(wl, engine.Options{ExecOptions: opts.ExecOptions})
	if err != nil {
		panic("sssp: " + err.Error())
	}

	res := ParallelResult{
		Dist:        make([]int64, n),
		Popped:      stats.Popped,
		Processed:   stats.Executed,
		Interrupted: stats.Interrupted,
		Failed:      stats.Failed,
	}
	for i := range wl.dist {
		d := wl.dist[i].Load()
		res.Dist[i] = d
		if d < Inf {
			res.Reached++
		}
	}
	return res
}
