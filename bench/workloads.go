package main

import (
	"fmt"
	"slices"
	"time"

	"relaxsched"
	"relaxsched/internal/engine"
	"relaxsched/internal/txn"
)

// sizes are the input sizes of one pass. fullSizes is frozen: the recorded
// numbers are only comparable across commits because these constants never
// change and are never calibrated to the host.
type sizes struct {
	RoadSide      int     `json:"road_side"` // the road grid is RoadSide x RoadSide
	RoadMaxW      int64   `json:"road_max_w"`
	RoadDrop      int     `json:"road_drop_permille"`
	Txns          int     `json:"txns"`
	Keys          int     `json:"keys"`
	Skew          float64 `json:"skew"`
	OpsPerTxn     int     `json:"ops_per_txn"`
	ReadFrac      float64 `json:"read_frac"`
	Points        int     `json:"points"`
	BurstJobs     int     `json:"burst_jobs"`
	BurstEveryMs  int     `json:"burst_every_ms"`
	StreamWindowS float64 `json:"stream_window_s"` // measured part of one open-loop repetition
	StreamWarmS   float64 `json:"stream_warm_s"`   // untimed bursts before it, on the same stream
	CapacityJobs  int     `json:"capacity_jobs"`
}

var fullSizes = sizes{
	RoadSide: 1500, RoadMaxW: 100, RoadDrop: 50,
	Txns: 1200000, Keys: 150000, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0.5,
	Points:    250000,
	BurstJobs: 2000, BurstEveryMs: 10, StreamWindowS: 2, StreamWarmS: 0.2, CapacityJobs: 2000000,
}

// scaled returns the sizes divided by div (the road grid by sqrt(div), so
// its vertex count scales like the rest). The burst shape is not scaled:
// it is a rate, not a size.
func (s sizes) scaled(div int) sizes {
	side := s.RoadSide
	for side*side > s.RoadSide*s.RoadSide/div {
		side--
	}
	s.RoadSide = side
	s.Txns /= div
	s.Keys /= div
	s.Points /= div
	s.CapacityJobs /= div
	return s
}

// Queue shape shared by every workload (protocol step 1).
const queueMultiplier = 2

// closedCounts is what one closed-loop run reports about itself.
type closedCounts struct {
	useful   int64 // vertices reached / txns committed / points inserted
	attempts int64 // the paper's numerator: tasks executed / OCC starts / pops
	pops     int64 // queue pops
	failed   int64 // tasks the engine quarantined
	blocked  int64 // pops re-inserted (delaunay) or aborted attempts (txn)
}

// closedWorkload is one closed-loop workload: an input built through the
// system's public constructors, a once-computed sequential reference, a run
// that is nothing but the call into the system, and an untimed check.
type closedWorkload interface {
	// build (re)constructs the input; the same sizes and seed give the same
	// input, so the reference stays valid. Its wall time is one setup_s
	// sample.
	build(sz sizes, seed uint64) error
	// perRepBuild reports that a run consumes the input, so build must
	// precede every repetition (those builds are setup_s samples too).
	perRepBuild() bool
	// reference computes the sequential solution verify compares against
	// and returns how many useful tasks it performed.
	reference() (tasks int64, err error)
	// run performs one full run with T workers; the caller times it.
	run(T int, seed uint64, tr *tracer, parent int) (closedCounts, error)
	// verify returns how many of the last run's operations were wrong.
	verify() int64
	// expected is the number of useful tasks a correct run performs.
	expected() int64
	// batch is the engine BatchSize the workload runs at.
	batch() int
	// backend is the queue backend the workload runs on.
	backend() relaxsched.QueueBackend
}

func execOptions(T, batch int, backend relaxsched.QueueBackend, seed uint64) relaxsched.ExecOptions {
	return relaxsched.ExecOptions{
		Threads:         T,
		QueueMultiplier: queueMultiplier,
		Backend:         backend,
		BatchSize:       batch,
		Seed:            seed,
	}
}

// ssspRoad is SSSP from vertex 0 of a road-like grid, one element per
// queue operation (the paper's protocol), on the given backend.
type ssspRoad struct {
	be   relaxsched.QueueBackend
	g    *relaxsched.Graph
	ref  []int64
	n    int64 // vertices the reference reached
	last relaxsched.ParallelSSSPResult
}

func (w *ssspRoad) build(sz sizes, seed uint64) error {
	w.g = relaxsched.RoadGraph(sz.RoadSide, sz.RoadSide, sz.RoadMaxW, sz.RoadDrop, seed)
	return nil
}

func (w *ssspRoad) perRepBuild() bool { return false }

func (w *ssspRoad) reference() (int64, error) {
	r := relaxsched.Dijkstra(w.g, 0)
	w.ref, w.n = r.Dist, r.Reached
	return r.Reached, nil
}

func (w *ssspRoad) run(T int, seed uint64, tr *tracer, parent int) (closedCounts, error) {
	id := tr.begin("sssp.parallel", parent)
	w.last = relaxsched.ParallelSSSPWith(w.g, 0, relaxsched.ParallelSSSPOptions{
		ExecOptions: execOptions(T, w.batch(), w.be, seed),
	})
	tr.end(id)
	if w.last.Interrupted {
		return closedCounts{}, fmt.Errorf("sssp: run interrupted")
	}
	return closedCounts{
		useful:   w.last.Reached,
		attempts: w.last.Processed,
		pops:     w.last.Popped,
		failed:   w.last.Failed,
	}, nil
}

func (w *ssspRoad) verify() int64 {
	if w.ref == nil {
		return 0
	}
	var wrong int64
	for v, d := range w.ref {
		if w.last.Dist[v] != d {
			wrong++
		}
	}
	return wrong
}

func (w *ssspRoad) expected() int64 {
	if w.ref == nil {
		return int64(w.g.NumNodes)
	}
	return w.n
}

func (w *ssspRoad) batch() int                       { return 1 }
func (w *ssspRoad) backend() relaxsched.QueueBackend { return w.be }

// txnZipf is the OCC transactional workload under hot-key skew. A run
// mutates the store, so the workload is rebuilt before every repetition.
type txnZipf struct {
	spec relaxsched.TxnWorkloadSpec
	wl   *txn.Workload
	last engine.Result
}

func (w *txnZipf) build(sz sizes, seed uint64) error {
	w.spec = relaxsched.TxnWorkloadSpec{
		Txns: sz.Txns, Keys: sz.Keys, Skew: sz.Skew,
		OpsPerTxn: sz.OpsPerTxn, ReadFrac: sz.ReadFrac, Seed: seed,
	}
	wl, err := txn.NewWorkload(w.spec, benchThreads(), true)
	w.wl = wl
	return err
}

func (w *txnZipf) perRepBuild() bool { return true }

// reference: the serial order is certified per run (verify), there is no
// separate sequential solution.
func (w *txnZipf) reference() (int64, error) { return 0, nil }

func (w *txnZipf) run(T int, seed uint64, tr *tracer, parent int) (closedCounts, error) {
	var wl engine.Workload = w.wl
	var timed *timedWorkload
	if tr != nil {
		timed = &timedWorkload{inner: w.wl, tr: tr, slots: make([]timedSlot, T)}
		wl = timed
	}
	id := tr.begin("txn.run", parent)
	if timed != nil {
		timed.parent = id
	}
	res, err := engine.Run(wl, engine.Options{ExecOptions: execOptions(T, w.batch(), w.backend(), seed)})
	tr.end(id)
	if err != nil {
		return closedCounts{}, fmt.Errorf("txn: %w", err)
	}
	if res.Interrupted {
		return closedCounts{}, fmt.Errorf("txn: run interrupted")
	}
	w.last = res
	return closedCounts{
		useful:   res.Executed,
		attempts: res.Executed + res.Reinserted,
		pops:     res.Popped,
		failed:   res.Failed,
		blocked:  res.Reinserted,
	}, nil
}

func (w *txnZipf) verify() int64 {
	if err := w.wl.Certify(); err != nil {
		return int64(w.spec.Txns) // nothing the run committed can be trusted
	}
	return int64(w.spec.Txns) - w.wl.Commits()
}

func (w *txnZipf) expected() int64                  { return int64(w.spec.Txns) }
func (w *txnZipf) batch() int                       { return 16 }
func (w *txnZipf) backend() relaxsched.QueueBackend { return relaxsched.BackendMultiQueue }

// timedWorkload wraps an engine.Workload and records a span around one in
// 64 TryExecute calls of each worker — the only way to see inside a run
// from outside the program.
type timedWorkload struct {
	inner  engine.Workload
	tr     *tracer
	parent int
	slots  []timedSlot
}

type timedSlot struct {
	calls uint64
	_     [56]byte // one cache line per worker
}

func (t *timedWorkload) Frontier(emit func(value, priority int64)) { t.inner.Frontier(emit) }

func (t *timedWorkload) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	s := &t.slots[ctx.Worker]
	s.calls++
	if s.calls%64 != 0 {
		return t.inner.TryExecute(ctx, value, priority)
	}
	id := t.tr.begin("txn.tryexecute", t.parent)
	st := t.inner.TryExecute(ctx, value, priority)
	t.tr.end(id)
	return st
}

// delaunayUniform inserts uniform random points in a fixed random order.
type delaunayUniform struct {
	pts   []relaxsched.Point
	order []int
	ref   []relaxsched.Triangle
	mesh  []relaxsched.Triangle
}

func (w *delaunayUniform) build(sz sizes, seed uint64) error {
	w.pts, w.order = uniformPoints(sz.Points, seed)
	return nil
}

func (w *delaunayUniform) perRepBuild() bool { return false }

func (w *delaunayUniform) reference() (int64, error) {
	ref, err := relaxsched.Triangulate(w.pts, w.order)
	w.ref = ref
	return int64(len(w.pts)), err
}

func (w *delaunayUniform) run(T int, seed uint64, tr *tracer, parent int) (closedCounts, error) {
	id := tr.begin("delaunay.parallel", parent)
	mesh, res, err := relaxsched.ParallelTriangulate(w.pts, w.order, relaxsched.ParallelDelaunayOptions{
		ExecOptions: execOptions(T, w.batch(), w.backend(), seed),
	})
	tr.end(id)
	if err != nil {
		return closedCounts{}, fmt.Errorf("delaunay: %w", err)
	}
	w.mesh = mesh
	return closedCounts{
		useful:   res.Inserted,
		attempts: res.Pops,
		pops:     res.Pops,
		blocked:  res.Blocked,
	}, nil
}

func (w *delaunayUniform) verify() int64 {
	if w.ref == nil || relaxsched.MeshesEqual(w.mesh, w.ref) {
		return 0
	}
	return int64(len(w.pts)) // a wrong mesh cannot be pinned on single points
}

func (w *delaunayUniform) expected() int64                  { return int64(len(w.pts)) }
func (w *delaunayUniform) batch() int                       { return 1 }
func (w *delaunayUniform) backend() relaxsched.QueueBackend { return relaxsched.BackendMultiQueue }

// workloadNames lists the workloads BENCHMARK.json gates, in the order
// `-workload all` runs them. stream-topk is the open-loop one; see stream.go.
var workloadNames = []string{"sssp-road", "txn-zipf", "delaunay-uniform", "stream-topk"}

// ungatedWorkloads run like the others (`-workload all` and `-smoke`
// include them) but BENCHMARK.json does not list them. sssp-road-lockfree:
// the lockfree backend's run time follows how the host places the two
// virtual CPUs more than it follows the code — repetitions of one process
// ranged 0.68-1.26 s, and in one of four ten-run series its times spread
// 17-32% and its overhead_ratio 3%, past any bound a gate could carry.
var ungatedWorkloads = []string{"sssp-road-lockfree"}

// allWorkloads is every workload the program can run.
func allWorkloads() []string { return append(slices.Clone(workloadNames), ungatedWorkloads...) }

const streamWorkload = "stream-topk"

// newClosedWorkload returns a fresh, unbuilt closed-loop workload.
func newClosedWorkload(name string) (closedWorkload, error) {
	switch name {
	case "sssp-road":
		return &ssspRoad{be: relaxsched.BackendMultiQueue}, nil
	case "sssp-road-lockfree":
		return &ssspRoad{be: relaxsched.BackendLockFree}, nil
	case "txn-zipf":
		return &txnZipf{}, nil
	case "delaunay-uniform":
		return &delaunayUniform{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, allWorkloads())
}

// burstEvery is the open-loop schedule's period.
func (s sizes) burstEvery() time.Duration {
	return time.Duration(s.BurstEveryMs) * time.Millisecond
}
