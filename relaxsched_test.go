package relaxsched_test

import (
	"bytes"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"relaxsched"
)

func TestFacadeSchedulers(t *testing.T) {
	for name, s := range map[string]relaxsched.Scheduler{
		"exact":      relaxsched.NewExactScheduler(100),
		"k-relaxed":  relaxsched.NewKRelaxedScheduler(100, 4),
		"random-k":   relaxsched.NewRandomKScheduler(100, 4, 1),
		"batch":      relaxsched.NewBatchScheduler(100, 4),
		"multiqueue": relaxsched.NewMultiQueueWith(relaxsched.MultiQueueOptions{N: 100, Queues: 4, Choices: 2, Seed: 1}),
		"spraylist":  relaxsched.NewSprayListWith(relaxsched.SprayListOptions{N: 100, Threads: 4, Seed: 1}),
	} {
		for i := 0; i < 100; i++ {
			s.Insert(i, int64(i))
		}
		count := 0
		for {
			task, _, ok := s.ApproxGetMin()
			if !ok {
				break
			}
			s.DeleteTask(task)
			count++
		}
		if count != 100 {
			t.Fatalf("%s drained %d tasks", name, count)
		}
	}
}

func TestFacadeAuditor(t *testing.T) {
	a := relaxsched.NewAuditor(relaxsched.NewExactScheduler(50), 8)
	for i := 0; i < 50; i++ {
		a.Insert(i, int64(i))
	}
	for {
		task, _, ok := a.ApproxGetMin()
		if !ok {
			break
		}
		a.DeleteTask(task)
	}
	rep := a.Report()
	if rep.MaxRank != 1 || rep.Calls != 50 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestFacadeIncrementalRun(t *testing.T) {
	dag := relaxsched.NewDAG(100)
	for j := 1; j < 100; j++ {
		dag.AddDep(j-1, j)
	}
	res, err := relaxsched.RunIncremental(dag, relaxsched.NewKRelaxedScheduler(100, 4),
		relaxsched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 100 {
		t.Fatalf("processed %d", res.Processed)
	}
	if res.ExtraSteps == 0 {
		t.Fatal("chain under relaxation should waste steps")
	}
}

func TestFacadeSSSPPipeline(t *testing.T) {
	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: 500, M: 2500, MaxWeight: 100, Seed: 7})
	exact := relaxsched.Dijkstra(g, 0)
	ds := relaxsched.DeltaStepping(g, 0, 10)
	for i := range exact.Dist {
		if exact.Dist[i] != ds.Dist[i] {
			t.Fatal("delta-stepping disagrees")
		}
	}
	mq := relaxsched.NewMultiQueueWith(relaxsched.MultiQueueOptions{N: 500, Queues: 4, Choices: 2, Hashed: true, Seed: 3})
	rel, err := relaxsched.RelaxedSSSP(g, 0, mq)
	if err != nil {
		t.Fatal(err)
	}
	par := relaxsched.ParallelSSSPWith(g, 0, relaxsched.ParallelSSSPOptions{
		ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Seed: 9},
	})
	for i := range exact.Dist {
		if rel.Dist[i] != exact.Dist[i] || par.Dist[i] != exact.Dist[i] {
			t.Fatal("relaxed/parallel disagree with Dijkstra")
		}
	}
	if par.Overhead() < 1 {
		t.Fatalf("overhead %f", par.Overhead())
	}
}

func TestFacadeRelaxedSSSPRejectsNonDecreaseKey(t *testing.T) {
	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: 50, M: 100, MaxWeight: 10, Seed: 1})
	// Random-insertion MultiQueue cannot DecreaseKey.
	mq := relaxsched.NewMultiQueueWith(relaxsched.MultiQueueOptions{N: 50, Queues: 2, Choices: 2, Seed: 1})
	_, err := relaxsched.RelaxedSSSP(g, 0, mq)
	if err == nil {
		t.Fatal("expected error for scheduler without DecreaseKey")
	}
	if !strings.Contains(err.Error(), "DecreaseKey") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestFacadeGraphGeneratorsAndDIMACS(t *testing.T) {
	road := relaxsched.RoadGraph(10, 10, 100, 50, 2)
	social := relaxsched.SocialGraphWith(relaxsched.SocialGraphOptions{N: 200, Degree: 4, MaxWeight: 100, Seed: 2})
	if road.NumNodes != 100 || social.NumNodes != 200 {
		t.Fatal("generator sizes wrong")
	}
	var buf bytes.Buffer
	if err := relaxsched.WriteDIMACS(&buf, road); err != nil {
		t.Fatal(err)
	}
	parsed, err := relaxsched.ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumNodes != road.NumNodes || parsed.NumEdges() != road.NumEdges() {
		t.Fatal("DIMACS round trip changed the graph")
	}
}

func TestFacadeBSTSort(t *testing.T) {
	keys := []int64{9, 3, 7, 1, 5}
	got := relaxsched.BSTSort(keys)
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	dag := relaxsched.BSTSortDAG(keys)
	if dag.N != 5 {
		t.Fatalf("dag size %d", dag.N)
	}
}

func TestFacadeDelaunay(t *testing.T) {
	pts := []relaxsched.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1}, {X: 0.5, Y: 0.5}}
	tris, err := relaxsched.Triangulate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tris) != 4 {
		t.Fatalf("%d triangles, want 4", len(tris))
	}
	dag, err := relaxsched.DelaunayDAG(pts)
	if err != nil {
		t.Fatal(err)
	}
	if dag.N != 5 {
		t.Fatalf("dag size %d", dag.N)
	}
}

func TestFacadeGreedyAlgorithms(t *testing.T) {
	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: 300, M: 900, MaxWeight: 10, Seed: 5})
	w := relaxsched.NewGreedyWorkload(g, 6)
	inMIS, res, err := relaxsched.GreedyMIS(w, relaxsched.NewKRelaxedScheduler(g.NumNodes, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != int64(g.NumNodes) {
		t.Fatalf("processed %d", res.Processed)
	}
	if err := relaxsched.VerifyMIS(g, inMIS); err != nil {
		t.Fatal(err)
	}
	colors, _, err := relaxsched.GreedyColoring(w, relaxsched.NewExactScheduler(g.NumNodes))
	if err != nil {
		t.Fatal(err)
	}
	if err := relaxsched.VerifyColoring(g, colors); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeParallelIncrementalAndTree(t *testing.T) {
	dag := relaxsched.BSTSortDAG([]int64{5, 2, 8, 1, 9, 3, 7, 4, 6, 0})
	res, err := relaxsched.RunIncrementalParallel(dag, relaxsched.ParallelRunOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 10 {
		t.Fatalf("processed %d", res.Processed)
	}
	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: 200, M: 800, MaxWeight: 50, Seed: 8})
	sr, parents := relaxsched.DijkstraTree(g, 0)
	for v := 1; v < g.NumNodes; v++ {
		if sr.Dist[v] == relaxsched.InfDistance {
			continue
		}
		p := relaxsched.ShortestPathTo(parents, 0, v)
		if len(p) < 2 || p[0] != 0 || p[len(p)-1] != v {
			t.Fatalf("bad path to %d: %v", v, p)
		}
		break
	}
}

func TestFacadeBranchAndBound(t *testing.T) {
	tree := relaxsched.BnBTree{Depth: 6, Branch: 3, MaxEdgeCost: 50, Seed: 4}
	const budget = 1 << 16
	exact, err := relaxsched.BranchAndBound(tree, relaxsched.NewExactScheduler(budget), budget)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := relaxsched.BranchAndBound(tree, relaxsched.NewKRelaxedScheduler(budget, 16), budget)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Best != relaxed.Best {
		t.Fatalf("relaxation changed the optimum: %d vs %d", exact.Best, relaxed.Best)
	}
}

func TestFacadeTransactions(t *testing.T) {
	dag := relaxsched.BSTSortDAG([]int64{5, 2, 8, 1, 9, 3, 7, 4, 6, 0})
	res, err := relaxsched.SimulateTransactions(dag, relaxsched.TxnConfig{
		K: 2, Workers: 2, MaxDuration: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 10 {
		t.Fatalf("commits %d", res.Commits)
	}
}

func TestFacadeParallelTransactions(t *testing.T) {
	spec := relaxsched.TxnWorkloadSpec{
		Txns: 1200, Keys: 64, Skew: 0.99, OpsPerTxn: 3, ReadFrac: 0.5, Seed: 11,
	}
	// The sequential model oracle and the real parallel execution share
	// the spec: the model commits everything, and so must the engine.
	model, err := relaxsched.SimulateTransactionSpec(spec, relaxsched.TxnConfig{
		K: 2, Workers: 2, MaxDuration: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if model.Commits != int64(spec.Txns) {
		t.Fatalf("model commits %d of %d", model.Commits, spec.Txns)
	}
	res, err := relaxsched.ParallelTransactions(spec, relaxsched.ParallelTxnOptions{
		ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Seed: 3},
		Producers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != int64(spec.Txns) {
		t.Fatalf("parallel commits %d of %d", res.Commits, spec.Txns)
	}
	if res.Starts != res.Commits+res.Aborts {
		t.Fatalf("starts identity broken: %+v", res.Counts)
	}
}

func TestFacadeQueueBackends(t *testing.T) {
	backends := relaxsched.QueueBackends()
	if len(backends) < 2 {
		t.Fatalf("QueueBackends returned %d backends, want >= 2", len(backends))
	}
	if backends[0] != relaxsched.BackendMultiQueue {
		t.Fatalf("default backend is %q, want %q", backends[0], relaxsched.BackendMultiQueue)
	}
	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: 400, M: 2000, MaxWeight: 100, Seed: 7})
	exact := relaxsched.Dijkstra(g, 0)
	for _, backend := range backends {
		par := relaxsched.ParallelSSSPWith(g, 0, relaxsched.ParallelSSSPOptions{
			ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, Seed: 9},
		})
		for i := range exact.Dist {
			if par.Dist[i] != exact.Dist[i] {
				t.Fatalf("%s: parallel disagrees with Dijkstra", backend)
			}
		}
		keys := make([]int64, 500)
		for i := range keys {
			keys[i] = int64((i * 2654435761) % 100003)
		}
		dag := relaxsched.BSTSortDAG(keys)
		run, err := relaxsched.RunIncrementalParallel(dag, relaxsched.ParallelRunOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, Seed: 3}})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if run.Processed != 500 {
			t.Fatalf("%s: processed %d of 500", backend, run.Processed)
		}
	}
}

func TestFacadeParallelWorkloads(t *testing.T) {
	// The engine-backed parallel workloads added with internal/engine:
	// branch-and-bound (dynamic spawning) and greedy MIS/coloring (static
	// DAG over the permutation), through every backend.
	tree := relaxsched.BnBTree{Depth: 6, Branch: 3, MaxEdgeCost: 40, Seed: 5}
	seq, err := relaxsched.BranchAndBound(tree, relaxsched.NewExactScheduler(1<<14), 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	g := relaxsched.RandomGraphWith(relaxsched.RandomGraphOptions{N: 600, M: 1800, MaxWeight: 10, Seed: 3})
	w := relaxsched.NewGreedyWorkload(g, 11)
	for _, backend := range relaxsched.QueueBackends() {
		par, err := relaxsched.ParallelBranchAndBound(tree, relaxsched.ParallelBnBOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, Seed: 1}, Budget: 1 << 14})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if par.Best != seq.Best {
			t.Fatalf("%s: parallel Best = %d, sequential %d", backend, par.Best, seq.Best)
		}
		inSet, _, err := relaxsched.ParallelGreedyMIS(w, relaxsched.ParallelMISOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, Seed: 2}})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := relaxsched.VerifyMIS(g, inSet); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		colors, _, err := relaxsched.ParallelGreedyColoring(w, relaxsched.ParallelMISOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, Seed: 4}})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := relaxsched.VerifyColoring(g, colors); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
	}
}

func TestFacadeStreamTopK(t *testing.T) {
	// The streaming (open-system) scheduler through the facade: the
	// self-driving harness on every backend, and a manually driven
	// JobProducer handle.
	for _, backend := range relaxsched.QueueBackends() {
		res, err := relaxsched.StreamTopK(relaxsched.StreamTopKOptions{
			StreamOptions:   relaxsched.TopKStreamOptions{ExecOptions: relaxsched.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, Seed: 7}, Producers: 2},
			JobsPerProducer: 300,
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Jobs != 600 {
			t.Fatalf("%s: executed %d of 600 jobs", backend, res.Jobs)
		}
		if res.MeanRankError < 0 || res.MaxRankError >= 600 {
			t.Fatalf("%s: implausible rank error %v/%d", backend, res.MeanRankError, res.MaxRankError)
		}
	}

	var executed atomic.Int64
	s, err := relaxsched.NewTopKStream(relaxsched.TopKStreamOptions{ExecOptions: relaxsched.ExecOptions{Threads: 2, QueueMultiplier: 2, Seed: 3}, Producers: 1, Execute: func(_ int, _, _ int64) { executed.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewProducer()
	for i := 0; i < 200; i++ {
		p.Push(int64(i), int64(i%37))
	}
	p.Close()
	if res := s.Wait(); res.Jobs != 200 || executed.Load() != 200 {
		t.Fatalf("jobs %d, executed %d, want 200", res.Jobs, executed.Load())
	}
}
