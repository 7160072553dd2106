// Command relaxbench regenerates the figures and the sequential-model
// step counts of "Efficiency Guarantees for Parallel Incremental Algorithms
// under Relaxed Schedulers" (SPAA 2019) from this repository's
// implementations.
//
// Usage:
//
//	relaxbench [flags] <experiment> [<experiment>...]
//
// Experiments:
//
//	graphs        input-family statistics (Section 7 sample graphs)
//	fig1          Figure 1: SSSP overhead and speedup vs. thread count
//	fig1-overhead Figure 1 left only
//	fig1-speedup  Figure 1 right only
//	fig2          Figure 2: overhead vs. queue multiplier
//	thm33         Theorem 3.3: extra steps vs. n and k (adversarial)
//	thm51         Theorem 5.1 / Claim 1: MultiQueue lower bound
//	thm61         Theorem 6.1: relaxed SSSP pop counts
//	thm43         Theorem 4.3: transactional aborts
//	ablation      scheduler-family comparison (extension)
//	iterative     greedy MIS / coloring under relaxed schedulers (extension)
//	bnb           Karp-Zhang branch-and-bound under relaxation (extension)
//	all           everything above
//
// Everything here except Figure 1's speedup column is a count, which does
// not depend on the host. Timings and performance claims are produced and
// judged by the benchmark in bench/ (see bench/README.md), not here.
//
// Flags control workload scale; -scale 1 is the full-size run, larger
// values shrink the workloads proportionally. -backend runs the figures on
// a specific concurrent queue, and -json replaces the text tables with one
// machine-readable JSON object per experiment on stdout.
//
// -cpuprofile FILE and -memprofile FILE capture pprof profiles of the
// selected experiments (the CPU profile spans every experiment run; the
// heap profile is written after the last one), so hot-path work on the
// queue backends can be profiled without ad-hoc patching:
//
//	relaxbench -scale 64 -cpuprofile cpu.pprof fig1
//	go tool pprof cpu.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"relaxsched/internal/cq"
	"relaxsched/internal/experiments"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main returning its exit code, so that the deferred profile
// flushes run on every path: exiting from inside it would leave a truncated
// CPU profile of exactly the failing run one wanted to look at.
func realMain(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("relaxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale      = fs.Int("scale", 1, "divide default workload sizes by this factor")
		trials     = fs.Int("trials", 3, "repetitions averaged per row")
		seed       = fs.Uint64("seed", 42, "workload random seed")
		maxThreads = fs.Int("maxthreads", 0, "cap the thread sweep (0 = NumCPU)")
		backend    = fs.String("backend", "", fmt.Sprintf("concurrent queue backend for parallel experiments (%v; empty = default)", cq.Backends()))
		jsonOut    = fs.Bool("json", false, "emit one JSON object per experiment instead of text tables")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile spanning all selected experiments to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after the last experiment) to this file")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: relaxbench [flags] <experiment> [<experiment>...]\nrun 'go doc relaxsched/cmd/relaxbench' for the experiment list\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	if !cq.Backend(*backend).Valid() {
		fmt.Fprintf(stderr, "relaxbench: unknown backend %q (have %v)\n", *backend, cq.Backends())
		return 2
	}
	cfg := experiments.Config{
		Seed:       *seed,
		Trials:     *trials,
		GraphScale: *scale,
		MaxThreads: *maxThreads,
		Backend:    cq.Backend(*backend),
	}
	// Validate every experiment name up front: a typo in the last one must
	// not cost the minutes the ones before it take.
	for _, exp := range fs.Args() {
		if !knownExperiment(exp) {
			fmt.Fprintf(stderr, "relaxbench: unknown experiment %q\n", exp)
			return 2
		}
	}
	out := output{json: *jsonOut, w: stdout}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "relaxbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "relaxbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "relaxbench: cpuprofile: %v\n", err)
				code = 1
			}
		}()
	}
	for _, exp := range fs.Args() {
		if err := run(exp, cfg, out); err != nil {
			fmt.Fprintf(stderr, "relaxbench: %v\n", err)
			return 1
		}
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(stderr, "relaxbench: memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle live-heap accounting before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	return f.Close()
}

// output selects between human-readable tables and machine-readable JSON
// on stdout.
type output struct {
	json bool
	w    io.Writer
}

// renderable is any experiment result that can print itself as a table.
type renderable interface {
	Render(w io.Writer) error
}

// emit writes one experiment result: a titled text table, or in JSON mode a
// single {"experiment": ..., "result": ...} object per line, so `relaxbench
// -json all` produces a JSON-lines stream.
func (o output) emit(name, title string, res renderable) error {
	if o.json {
		return encodeJSON(o.w, name, res)
	}
	fmt.Fprintf(o.w, "\n== %s ==\n\n", title)
	return res.Render(o.w)
}

func encodeJSON(w io.Writer, name string, result any) error {
	return json.NewEncoder(w).Encode(struct {
		Experiment string `json:"experiment"`
		Result     any    `json:"result"`
	}{Experiment: name, Result: result})
}

// experimentSpec couples an experiment driver with its table title.
type experimentSpec struct {
	title string
	run   func(experiments.Config) (renderable, error)
}

// noErr adapts an error-free experiment driver to the common shape.
func noErr[R renderable](f func(experiments.Config) R) func(experiments.Config) (renderable, error) {
	return func(c experiments.Config) (renderable, error) { return f(c), nil }
}

// withErr adapts a fallible experiment driver to the common shape.
func withErr[R renderable](f func(experiments.Config) (R, error)) func(experiments.Config) (renderable, error) {
	return func(c experiments.Config) (renderable, error) { return f(c) }
}

// experimentTable maps experiment names to drivers; fig1 and its variants
// are dispatched separately (one sweep renders two tables).
var experimentTable = map[string]experimentSpec{
	"graphs":    {"Input families (Section 7 sample graphs)", noErr(experiments.Graphs)},
	"fig2":      {"Figure 2: SSSP relaxation overhead vs. queue multiplier", noErr(func(c experiments.Config) experiments.Fig2Result { return experiments.Fig2(c, nil) })},
	"thm33":     {"Theorem 3.3: extra steps under the adversarial k-relaxed scheduler", withErr(experiments.Thm33)},
	"thm51":     {"Theorem 5.1 / Claim 1: MultiQueue lower bound (extra steps >= (1/8) ln n)", withErr(experiments.Thm51)},
	"thm61":     {"Theorem 6.1: relaxed SSSP pops <= n + O(k^2 dmax/wmin)", withErr(experiments.Thm61)},
	"thm43":     {"Theorem 4.3: transactional aborts O(k^2 (C+k)^2 log n)", withErr(experiments.Thm43)},
	"ablation":  {"Ablation: scheduler families on identical workloads", withErr(experiments.Ablation)},
	"iterative": {"Extension: greedy iterative algorithms (MIS, coloring) under relaxed schedulers", withErr(experiments.Iterative)},
	"bnb":       {"Extension: Karp-Zhang branch-and-bound under relaxed schedulers", withErr(experiments.BnB)},
}

// allOrder is the order `relaxbench all` runs experiments in, and the one
// list of experiment names: the tests hold the table and the package comment
// to it.
var allOrder = []string{"graphs", "fig1", "fig2", "thm33", "thm51", "thm61", "thm43", "ablation", "iterative", "bnb"}

// knownExperiment reports whether exp is a name run can dispatch.
func knownExperiment(exp string) bool {
	switch exp {
	case "fig1", "fig1-overhead", "fig1-speedup", "all":
		return true
	}
	_, ok := experimentTable[exp]
	return ok
}

func run(exp string, cfg experiments.Config, out output) error {
	switch exp {
	case "fig1":
		return runFig1(cfg, out, true, true)
	case "fig1-overhead":
		return runFig1(cfg, out, true, false)
	case "fig1-speedup":
		return runFig1(cfg, out, false, true)
	case "all":
		for _, e := range allOrder {
			if err := run(e, cfg, out); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	spec, ok := experimentTable[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	res, err := spec.run(cfg)
	if err != nil {
		return err
	}
	return out.emit(exp, spec.title, res)
}

// runFig1 handles Figure 1's two tables (left: overheads, right: speedups)
// sharing one sweep.
func runFig1(cfg experiments.Config, out output, overheads, speedups bool) error {
	res := experiments.Fig1(cfg)
	name := "fig1"
	switch {
	case overheads && !speedups:
		name = "fig1-overhead"
	case speedups && !overheads:
		name = "fig1-speedup"
	}
	if out.json {
		return encodeJSON(out.w, name, res)
	}
	if overheads {
		fmt.Fprintf(out.w, "\n== %s ==\n\n", "Figure 1 (left): SSSP relaxation overhead vs. threads (queues = 2x threads)")
		if err := res.RenderOverheads(out.w); err != nil {
			return err
		}
	}
	if speedups {
		fmt.Fprintf(out.w, "\n== %s ==\n\n", "Figure 1 (right): SSSP speedup vs. threads")
		if err := res.RenderSpeedups(out.w); err != nil {
			return err
		}
	}
	return nil
}
