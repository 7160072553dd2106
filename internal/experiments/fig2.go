package experiments

import (
	"io"

	"relaxsched/internal/engine"
	"relaxsched/internal/sssp"
	"relaxsched/internal/stats"
)

// Fig2Row is one point of Figure 2: relaxation overhead as a function of
// the queue multiplier (queues = multiplier x threads) at a fixed thread
// count. The multiplier is proportional to the MultiQueue's average
// relaxation factor [4], so this sweeps k while holding parallelism fixed.
// As in Figure 1 the workers' handles are sticky on the default backend,
// which scales every point's k by the same constant.
type Fig2Row struct {
	Graph      string
	Threads    int
	Multiplier int
	Overhead   float64
	OverheadE  float64
}

// Fig2Result holds the queue-multiplier sweep.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2Multipliers is the multiplier sweep used by the paper's Figure 2.
var Fig2Multipliers = []int{1, 2, 3, 4, 6, 8}

// Fig2 reproduces Figure 2 for the given thread counts (the paper shows
// one subplot per thread count).
func Fig2(c Config, threadCounts []int) Fig2Result {
	if len(threadCounts) == 0 {
		maxT := c.maxThreads()
		threadCounts = []int{maxT / 2, maxT}
		if threadCounts[0] < 1 {
			threadCounts = threadCounts[1:]
		}
	}
	var res Fig2Result
	for fi, fam := range Families() {
		g := fam.Gen(c, c.Seed+uint64(fi))
		exact := sssp.Dijkstra(g, 0)
		for _, threads := range threadCounts {
			for _, mult := range Fig2Multipliers {
				var ov stats.Sample
				for trial := 0; trial < c.trials(); trial++ {
					seed := c.Seed ^ uint64(trial*131+threads*17+mult)
					pr := sssp.ParallelWith(g, 0, sssp.ParallelOptions{ExecOptions: engine.ExecOptions{
						Threads:         threads,
						QueueMultiplier: mult,
						Backend:         c.Backend,
						Seed:            seed,
					}})
					if !sssp.Equal(pr.Dist, exact.Dist) {
						panic("experiments: parallel SSSP produced wrong distances")
					}
					ov.Add(float64(pr.Processed) / float64(exact.Reached))
				}
				res.Rows = append(res.Rows, Fig2Row{
					Graph:      fam.Name,
					Threads:    threads,
					Multiplier: mult,
					Overhead:   ov.Mean(),
					OverheadE:  ov.StdErr(),
				})
			}
		}
	}
	return res
}

// Render writes the Figure 2 table.
func (r Fig2Result) Render(w io.Writer) error {
	t := stats.NewTable("graph", "threads", "multiplier", "overhead", "stderr")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.Threads, row.Multiplier, row.Overhead, row.OverheadE)
	}
	return t.Render(w)
}
