package engine_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/bnb"
	"relaxsched/internal/core"
	"relaxsched/internal/cq"
	"relaxsched/internal/delaunay"
	"relaxsched/internal/engine"
	"relaxsched/internal/engine/enginetest"
	"relaxsched/internal/geom"
	"relaxsched/internal/graph"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
	"relaxsched/internal/sssp"
	"relaxsched/internal/txn"
)

// TestConformance runs the shared synthetic suite (flat frontier,
// spawn-heavy termination, dependency chain, duplicate discard, plus the
// robustness tests: Stop/Deadline drains, panic quarantine, retry cap,
// stall watchdog, producer-versus-stop races) against every registered cq
// backend. Run with -race in CI.
func TestConformance(t *testing.T) {
	for _, backend := range cq.Backends() {
		t.Run(string(backend), func(t *testing.T) { enginetest.Run(t, backend) })
	}
}

// TestChaosConformance runs the seeded fault-injection suite — worker
// stalls, forced Blocked returns, injected poison panics, delayed producer
// closes — for every workload family x every registered backend, asserting
// exactly-once execution, exact quarantine accounting and termination. The
// seeds are fixed (see enginetest.chaosSeeds) so CI failures reproduce.
func TestChaosConformance(t *testing.T) {
	for _, backend := range cq.Backends() {
		t.Run(string(backend), func(t *testing.T) { enginetest.ChaosConformance(t, backend) })
	}
}

// randomDAG builds a layered random dependency DAG over n labels.
func randomDAG(n int, r *rng.Xoshiro) *core.DAG {
	d := core.NewDAG(n)
	for j := 1; j < n; j++ {
		for _, back := range []int{1 + r.Intn(j), 1 + r.Intn(j)} {
			if r.Intn(3) > 0 {
				d.AddDep(j-back, j)
			}
		}
	}
	return d
}

// TestWorkloadConformance drives the six production workload families —
// static DAG (core), relaxation-spawning SSSP, dynamic branch-and-bound,
// on-line-discovery parallel Delaunay, the open-system streaming top-k
// scheduler, and the OCC transactional workload (whose run self-certifies
// serializability by replaying its commit log) — through their public
// adapters on every backend x batch-size cell, and checks each against its
// sequential ground truth. This is the
// engine-level analogue of cqtest: a new backend (or engine change) is
// safe for every parallel path exactly when this grid passes under -race.
func TestWorkloadConformance(t *testing.T) {
	const n = 900
	dag := randomDAG(n, rng.New(5))
	g := graph.Random(800, 3200, 100, 7)
	exact := sssp.Dijkstra(g, 0)
	tree := bnb.Tree{Depth: 7, Branch: 3, MaxEdgeCost: 60, Seed: 9}
	optimum := bnb.Optimal(tree)
	ptsRng := rng.New(13)
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Point{X: ptsRng.Float64(), Y: ptsRng.Float64()}
	}
	mesh, err := delaunay.Triangulate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	txnSpec := txn.WorkloadSpec{Txns: 1500, Keys: 64, Skew: 0.99, OpsPerTxn: 3, ReadFrac: 0.5, Seed: 6}

	for _, backend := range cq.Backends() {
		for _, batch := range []int{0, 16} {
			t.Run(fmt.Sprintf("%s/batch%d", backend, batch), func(t *testing.T) {
				run, err := core.ParallelRun(dag, core.ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 1}})
				if err != nil {
					t.Fatalf("static-DAG batch %d: %v", batch, err)
				}
				if run.Processed != n {
					t.Fatalf("static-DAG batch %d: processed %d of %d", batch, run.Processed, n)
				}
				pos := make([]int, n)
				for i, l := range run.Order {
					pos[l] = i
				}
				for j := 0; j < n; j++ {
					for _, i := range dag.Preds[j] {
						if pos[i] > pos[j] {
							t.Fatalf("static-DAG batch %d: task %d before ancestor %d", batch, j, i)
						}
					}
				}

				pr := sssp.ParallelWith(g, 0, sssp.ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 2}})
				if !sssp.Equal(pr.Dist, exact.Dist) {
					t.Fatalf("sssp batch %d: distances diverge from Dijkstra", batch)
				}

				br, err := bnb.ParallelRun(tree, bnb.ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 3}, Budget: 1 << 16})
				if err != nil {
					t.Fatalf("bnb batch %d: %v", batch, err)
				}
				if br.Best != optimum {
					t.Fatalf("bnb batch %d: Best = %d, want %d", batch, br.Best, optimum)
				}

				dm, dres, err := delaunay.ParallelTriangulate(pts, nil, delaunay.ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 4}})
				if err != nil {
					t.Fatalf("delaunay batch %d: %v", batch, err)
				}
				if dres.Inserted != int64(len(pts)) {
					t.Fatalf("delaunay batch %d: inserted %d of %d", batch, dres.Inserted, len(pts))
				}
				if !delaunay.MeshesEqual(dm, mesh) {
					t.Fatalf("delaunay batch %d: mesh differs from sequential", batch)
				}

				sr, err := sched.ParallelTopK(sched.TopKRunOptions{
					StreamOptions:   sched.StreamOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 5}, Producers: 2},
					JobsPerProducer: 300,
				})
				if err != nil {
					t.Fatalf("stream batch %d: %v", batch, err)
				}
				if sr.Jobs != 600 {
					t.Fatalf("stream batch %d: executed %d of 600 jobs", batch, sr.Jobs)
				}

				tr, err := txn.ParallelRun(txnSpec, txn.ParallelOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 6}})
				if err != nil {
					t.Fatalf("txn batch %d: %v", batch, err)
				}
				if tr.Commits != int64(txnSpec.Txns) {
					t.Fatalf("txn batch %d: committed %d of %d", batch, tr.Commits, txnSpec.Txns)
				}
			})
		}
	}
}

func TestRunInvalidOptions(t *testing.T) {
	wl := &noopWorkload{}
	if _, err := engine.Run(wl, engine.Options{ExecOptions: engine.ExecOptions{Threads: 0, QueueMultiplier: 1}}); err == nil {
		t.Fatal("Threads 0 accepted")
	}
	if _, err := engine.Run(wl, engine.Options{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 0}}); err == nil {
		t.Fatal("QueueMultiplier 0 accepted")
	}
	if _, err := engine.Run(wl, engine.Options{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1, Backend: "no-such-queue"}}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestRunEmptyFrontier(t *testing.T) {
	// A workload with nothing to do must terminate immediately on every
	// backend, batched or not.
	for _, backend := range cq.Backends() {
		for _, batch := range []int{0, 8} {
			st, err := engine.Run(&noopWorkload{}, engine.Options{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 1}})
			if err != nil {
				t.Fatalf("%s/batch%d: %v", backend, batch, err)
			}
			if st.Stats != (engine.Stats{}) || st.Interrupted || len(st.Failures) != 0 || st.Stall != nil {
				t.Fatalf("%s/batch%d: non-zero result %+v for empty workload", backend, batch, st)
			}
		}
	}
}

// flatWorkload emits n independent tasks, the one at index reserved (if
// any) with the priority backends reserve, and counts its executions.
type flatWorkload struct {
	n, reserved int
	executed    atomic.Int64
}

func (f *flatWorkload) Frontier(emit func(value, priority int64)) {
	for i := 0; i < f.n; i++ {
		p := int64(i)
		if i == f.reserved {
			p = cq.ReservedPriority
		}
		emit(int64(i), p)
	}
}

func (f *flatWorkload) TryExecute(*engine.Ctx, int64, int64) engine.Status {
	f.executed.Add(1)
	return engine.Executed
}

// A frontier holding the reserved priority is refused by Start with an
// error, before anything reaches the queue: no task runs, and no worker,
// watchdog or deadline goroutine is left behind. The engine is
// none the worse for it: the next Start on the same backend runs.
func TestStartRejectsReservedPriority(t *testing.T) {
	for _, backend := range cq.Backends() {
		for _, at := range []int{0, 2999, 5999} {
			wl := &flatWorkload{n: 6000, reserved: at}
			opts := engine.Options{
				ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Backend: backend, Seed: 1,
					Deadline: time.Minute, StallTimeout: time.Minute},
				Producers: 1,
			}
			// Only a rise counts: an unrelated goroutine from an earlier
			// test may still be exiting, but nothing here starts one.
			before := runtime.NumGoroutine()
			e, err := engine.Start(wl, opts)
			after := runtime.NumGoroutine()
			if err == nil || e != nil {
				t.Fatalf("%s: Start accepted the reserved priority at %d", backend, at)
			}
			if after > before {
				t.Fatalf("%s: a refused Start left %d goroutines behind", backend, after-before)
			}
			if n := wl.executed.Load(); n != 0 {
				t.Fatalf("%s: a refused Start executed %d tasks", backend, n)
			}

			ok := &flatWorkload{n: 6000, reserved: -1}
			res, err := engine.Run(ok, engine.Options{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Backend: backend, Seed: 1}})
			if err != nil || res.Executed != 6000 || ok.executed.Load() != 6000 {
				t.Fatalf("%s: Start after a refused one: err %v, executed %d of 6000", backend, err, res.Executed)
			}
		}
	}
}

// gateWorkload emits n tasks whose TryExecute blocks until release
// closes, so every goroutine Start launches is still alive when counted.
type gateWorkload struct {
	n       int
	release chan struct{}
}

func (g *gateWorkload) Frontier(emit func(value, priority int64)) {
	for i := 0; i < g.n; i++ {
		emit(int64(i), int64(i))
	}
}

func (g *gateWorkload) TryExecute(*engine.Ctx, int64, int64) engine.Status {
	<-g.release
	return engine.Executed
}

// Start launches exactly the pool plus what the armed options need: a
// deadline is a timer and adds no goroutine, and a stall watchdog adds
// itself and the closer that tells it the workers are gone.
func TestStartGoroutines(t *testing.T) {
	const threads = 3
	for _, backend := range cq.Backends() {
		for _, tc := range []struct {
			name  string
			stall time.Duration
			extra int
		}{{"deadline", 0, 0}, {"deadline+watchdog", time.Minute, 2}} {
			wl := &gateWorkload{n: 2 * threads, release: make(chan struct{})}
			opts := engine.Options{ExecOptions: engine.ExecOptions{Threads: threads, QueueMultiplier: 2, Backend: backend, Seed: 1,
				Deadline: time.Minute, StallTimeout: tc.stall}}
			// Only a rise counts, as in TestStartRejectsReservedPriority.
			before := runtime.NumGoroutine()
			e, err := engine.Start(wl, opts)
			after := runtime.NumGoroutine()
			if err != nil {
				t.Fatalf("%s/%s: %v", backend, tc.name, err)
			}
			close(wl.release)
			if res := e.Wait(); res.Executed != int64(wl.n) || res.Interrupted {
				t.Fatalf("%s/%s: executed %d of %d, interrupted %v", backend, tc.name, res.Executed, wl.n, res.Interrupted)
			}
			if rise, limit := after-before, threads+tc.extra; rise > limit {
				t.Fatalf("%s/%s: Start added %d goroutines, want at most %d", backend, tc.name, rise, limit)
			}
		}
	}
}

type noopWorkload struct{}

func (noopWorkload) Frontier(func(value, priority int64))               {}
func (noopWorkload) TryExecute(*engine.Ctx, int64, int64) engine.Status { return engine.Executed }
