// Command bench is this repository's benchmark: five workloads (four of
// them gated by BENCHMARK.json), eight end-to-end metrics and a per-layer
// cost budget, all measured from outside the system by timing calls into its
// exported functions. One invocation performs one run of one workload and
// prints every metric by name with its unit; README.md in this directory
// documents the protocol and the names.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// Seeds. -seed is the only input knob. heldOutSeed is never used while a
// change is being written: a later issue verifies its claim on it.
const (
	defaultSeed = 1
	heldOutSeed = 20190622 // SPAA 2019
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 14

// keepFreedMemoryMapped restarts the process with GODEBUG=madvdontneed=0
// unless it already runs that way. Memory the Go runtime hands back to the
// kernel then stays mapped (MADV_FREE, not MADV_DONTNEED) and is taken away
// only if the host runs short. With the default, a repetition re-faults
// whatever the background scavenger happened to release while the previous
// one was being checked and rebuilt: 16k to 170k page faults and 0.08 to
// 0.70 s of system time inside a 0.55 s run on this virtual machine, which
// was most of the spread of every time the benchmark printed (README.md,
// protocol step 10). The setting is not one a //go:debug line may name.
func keepFreedMemoryMapped() error {
	const setting = "madvdontneed=0"
	old := os.Getenv("GODEBUG")
	if strings.Contains(old, setting) {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if old != "" {
		old += ","
	}
	if err := os.Setenv("GODEBUG", old+setting); err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ()) // returns only on failure
}

func main() {
	workload := flag.String("workload", "", "workload to run: one of "+fmt.Sprint(allWorkloads())+" or all")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("input seed; %d is held out for verifying later claims", heldOutSeed))
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured phase of one run")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics, tracing off")
	selfcheck := flag.Int("selfcheck", 0, "A/A mode: two interleaved sets of N runs of every workload, compared against the bounds")
	smoke := flag.Bool("smoke", false, "run every workload at 1/50 size, checking correctness and schema only")
	outDir := flag.String("out", defaultOutDir(), "directory the span file of a traced run is written to")
	flag.Parse()

	err := keepFreedMemoryMapped()
	switch {
	case err != nil:
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds < 1 || *seconds > 60:
		err = fmt.Errorf("-seconds %d: want 1..60", *seconds)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *smoke:
		err = runSmoke(*seed, *outDir)
	case *selfcheck > 0:
		err = runSelfcheck(*selfcheck, *seed, *seconds)
	case *workload == "all":
		for _, name := range allWorkloads() {
			if e := runAndPrint(name, fullSizes, fullProtocol(*seconds), *seed, *trace == 1, *outDir); e != nil {
				err = errors.Join(err, fmt.Errorf("%s: %w", name, e))
			}
		}
	case *workload != "":
		err = runAndPrint(*workload, fullSizes, fullProtocol(*seconds), *seed, *trace == 1, *outDir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOutDir is bench/out, from the repository root or from bench/.
func defaultOutDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

// runWorkload performs one run of one workload, traced or not.
func runWorkload(name string, sz sizes, p protocol, seed uint64, trace bool, outDir string) (*report, error) {
	// Protocol step 1: the shape is fixed, whatever GOMAXPROCS, GOGC or
	// GOMEMLIMIT the environment asked for.
	runtime.GOMAXPROCS(benchThreads())
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	switch {
	case name == streamWorkload && trace:
		return traceStream(sz, p, seed, outDir)
	case name == streamWorkload:
		return runStream(sz, p, seed)
	case trace:
		return traceClosed(name, sz, p, seed, outDir)
	}
	return runClosed(name, sz, p, seed)
}

// resultLine is the last line of a run's standard output: the summary the
// acceptance harness reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize reduces a report to its result line. An untraced run lists
// every end-to-end metric, a traced run every per-layer metric; a layer the
// workload does not exercise did no work in it and reads 0.
func summarize(r *report) resultLine {
	line := resultLine{Correct: r.ok(), Attempted: r.OpsAttempted, Failed: r.OpsFailed, Metrics: map[string]lineMetric{}}
	units, have := endToEndUnits, r.EndToEnd
	if r.Trace {
		units, have = perLayerUnits, r.PerLayer
	}
	for name, unit := range units {
		line.Metrics[name] = lineMetric{Value: have[name].Value, Unit: unit}
	}
	return line
}

// runAndPrint runs a workload and prints its report (indented JSON) and
// then its result line. A run with failed operations or an invalid run is
// printed all the same, and reported as an error.
func runAndPrint(name string, sz sizes, p protocol, seed uint64, trace bool, outDir string) error {
	r, err := runWorkload(name, sz, p, seed, trace, outDir)
	if err != nil {
		return err
	}
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	line, err := json.Marshal(summarize(r))
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Printf("%s\n%s\n", full, line)
	if !r.ok() {
		return fmt.Errorf("run does not count: ops_failed = %d, invalid = %q", r.OpsFailed, r.Invalid)
	}
	return nil
}

// smokeDiv is how much smaller than the recorded sizes the smoke pass is.
const smokeDiv = 50

// runSmoke runs every workload, untraced and traced, at 1/smokeDiv size
// with the shortest protocol, and checks correctness and schema only.
func runSmoke(seed uint64, outDir string) error {
	sz := fullSizes.scaled(smokeDiv)
	for _, name := range allWorkloads() {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(name, sz, smokeProtocol(), seed, trace, outDir)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := checkSchema(r); err != nil {
				return fmt.Errorf("%s (trace %v): %w", name, trace, err)
			}
			if r.OpsFailed > 0 {
				return fmt.Errorf("%s (trace %v): %d of %d operations failed", name, trace, r.OpsFailed, r.OpsAttempted)
			}
			fmt.Printf("smoke %-20s trace=%-5v ok  %d ops, %.2f s\n", name, trace, r.OpsAttempted, r.Protocol.WallS)
		}
	}
	return nil
}
