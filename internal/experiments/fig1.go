package experiments

import (
	"io"
	"runtime"
	"time"

	"relaxsched/internal/engine"
	"relaxsched/internal/sssp"
	"relaxsched/internal/stats"
)

// Fig1Row is one point of Figure 1: parallel SSSP over a MultiQueue with
// queues = 2 x threads, on one graph family at one thread count. The run
// goes through the engine, whose workers hold sticky queue handles, so on
// the default backend the overhead is that of the two-choice process with
// stickiness 16, not of a fresh draw per operation.
type Fig1Row struct {
	Graph     string
	Threads   int
	Overhead  float64 // tasks processed relaxed / tasks processed exact
	OverheadE float64 // standard error over trials
	Speedup   float64 // sequential Dijkstra time / parallel time
	SpeedupE  float64
	Millis    float64 // mean parallel wall time
}

// Fig1Result holds the full sweep for Figure 1 (left: overheads; right:
// speedups).
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 reproduces Figure 1: for each graph family and thread count, the
// relaxation overhead (left plot) and the speedup over sequential Dijkstra
// (right plot). The MultiQueue uses 2 queues per thread, as in the paper.
func Fig1(c Config) Fig1Result {
	var res Fig1Result
	for fi, fam := range Families() {
		g := fam.Gen(c, c.Seed+uint64(fi))
		exact := sssp.Dijkstra(g, 0)
		seqTime := timeIt(func() { sssp.Dijkstra(g, 0) })
		for _, threads := range c.threadSweep() {
			var ov, sp, ms stats.Sample
			for trial := 0; trial < c.trials(); trial++ {
				seed := c.Seed ^ uint64(trial*1000+threads)
				var pr sssp.ParallelResult
				elapsed := timeIt(func() {
					pr = sssp.ParallelWith(g, 0, sssp.ParallelOptions{ExecOptions: engine.ExecOptions{
						Threads:         threads,
						QueueMultiplier: 2,
						Backend:         c.Backend,
						Seed:            seed,
					}})
				})
				if !sssp.Equal(pr.Dist, exact.Dist) {
					panic("experiments: parallel SSSP produced wrong distances")
				}
				ov.Add(float64(pr.Processed) / float64(exact.Reached))
				sp.Add(seqTime.Seconds() / elapsed.Seconds())
				ms.Add(float64(elapsed.Milliseconds()))
			}
			res.Rows = append(res.Rows, Fig1Row{
				Graph:     fam.Name,
				Threads:   threads,
				Overhead:  ov.Mean(),
				OverheadE: ov.StdErr(),
				Speedup:   sp.Mean(),
				SpeedupE:  sp.StdErr(),
				Millis:    ms.Mean(),
			})
		}
	}
	return res
}

// RenderOverheads writes the Figure 1 (left) table.
func (r Fig1Result) RenderOverheads(w io.Writer) error {
	t := stats.NewTable("graph", "threads", "overhead", "stderr")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.Threads, row.Overhead, row.OverheadE)
	}
	return t.Render(w)
}

// RenderSpeedups writes the Figure 1 (right) table.
func (r Fig1Result) RenderSpeedups(w io.Writer) error {
	t := stats.NewTable("graph", "threads", "speedup", "stderr", "ms")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.Threads, row.Speedup, row.SpeedupE, row.Millis)
	}
	return t.Render(w)
}

// timeIt times one trial with the garbage collector run beforehand, so the
// timed window measures the workload and not the luck of where the
// previous trials' collection cycle lands — on millisecond-scale trials a
// mid-run GC multiplies the sample by several times and dominates the
// row's mean.
func timeIt(f func()) time.Duration {
	runtime.GC()
	start := time.Now()
	f()
	return time.Since(start)
}
