// Package experiments contains one driver per figure of the paper's
// evaluation (Section 7) plus shape-validation experiments for the theorems
// (3.3, 4.3, 5.1, 6.1) and the sequential-model extensions. Each driver
// returns structured rows and can render itself as an aligned text table;
// cmd/relaxbench is the only front door. What the drivers report are counts
// (extra steps, pops, aborts); the one host timing is Figure 1's speedup.
// Timings are the business of the benchmark in bench/.
package experiments

import (
	"runtime"

	"relaxsched/internal/cq"
	"relaxsched/internal/graph"
)

// Config controls workload sizes so the same drivers scale from unit-test
// smoke runs to full reproduction runs.
type Config struct {
	// Seed drives all workload randomness.
	Seed uint64
	// Trials is the number of repetitions averaged per row.
	Trials int
	// GraphScale divides the default graph sizes (1 = full default sizes:
	// random 200k nodes/1M edges, road 450x450, social 200k nodes).
	GraphScale int
	// MaxThreads caps the thread sweep (0 = runtime.NumCPU()).
	MaxThreads int
	// Backend selects the concurrent queue the parallel experiments run on
	// (zero value = the default MultiQueue).
	Backend cq.Backend
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{Seed: 42, Trials: 3, GraphScale: 1, MaxThreads: 0}
}

// SmokeConfig returns a configuration small enough for unit tests.
func SmokeConfig() Config {
	return Config{Seed: 42, Trials: 1, GraphScale: 64, MaxThreads: 4}
}

func (c Config) maxThreads() int {
	if c.MaxThreads > 0 {
		return c.MaxThreads
	}
	return runtime.NumCPU()
}

func (c Config) trials() int {
	if c.Trials < 1 {
		return 1
	}
	return c.Trials
}

// threadSweep returns the thread counts 1, 2, 4, ... up to maxThreads.
func (c Config) threadSweep() []int {
	var out []int
	maxT := c.maxThreads()
	for t := 1; t < maxT; t *= 2 {
		out = append(out, t)
	}
	out = append(out, maxT)
	return out
}

// GraphSpec names one of the paper's three input families.
type GraphSpec struct {
	Name string
	Gen  func(c Config, seed uint64) *graph.Graph
}

// Families returns the three graph families of Section 7, scaled by the
// configuration. Sizes at GraphScale 1 are chosen so a full run finishes in
// minutes on a workstation while preserving the paper's regime ordering
// (road: high diameter, high weight variance; random/social: low diameter).
func Families() []GraphSpec {
	return []GraphSpec{
		{
			Name: "random",
			Gen: func(c Config, seed uint64) *graph.Graph {
				n := 200000 / c.scale()
				if n < 64 {
					n = 64
				}
				return graph.Random(n, 5*n, 100, seed)
			},
		},
		{
			Name: "road",
			Gen: func(c Config, seed uint64) *graph.Graph {
				side := 450 / c.sqrtScale()
				if side < 8 {
					side = 8
				}
				return graph.Road(side, side, 10000, 100, seed)
			},
		},
		{
			Name: "social",
			Gen: func(c Config, seed uint64) *graph.Graph {
				n := 200000 / c.scale()
				if n < 64 {
					n = 64
				}
				return graph.Social(n, 8, 100, seed)
			},
		},
	}
}

func (c Config) scale() int {
	if c.GraphScale < 1 {
		return 1
	}
	return c.GraphScale
}

func (c Config) sqrtScale() int {
	s := c.scale()
	r := 1
	for r*r < s {
		r++
	}
	return r
}
