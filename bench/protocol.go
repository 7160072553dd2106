package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"relaxsched"
	"relaxsched/internal/rng"
)

// protocol holds the measurement parameters of one run. fullProtocol is
// what every recorded number uses; the smoke test shrinks it because it
// checks correctness and schema only.
type protocol struct {
	Warmup       time.Duration // untimed host warm-up before any sample
	SetupK       int           // least number of set-up samples
	SetupBudget  time.Duration // cheap set-ups are sampled until this is spent
	SetupMax     int           // most set-up samples
	MinReps      int           // least number of timed repetitions
	MaxReps      int           // most timed repetitions
	Measure      time.Duration // repetitions go on until this much time is spent
	WarmDiv      int           // the warm-up input is the input divided by this
	LayerReps    int           // samples per layer microbenchmark (traced run)
	LayerDiv     int           // layer microbenchmark sizes are divided by this
	SaturateReps int           // open loop: saturation runs
	TraceReps    int           // traced run: untraced/traced pairs of repetitions
}

func fullProtocol(seconds int) protocol {
	return protocol{
		Warmup: 3 * time.Second, SetupK: 5, SetupBudget: time.Second, SetupMax: 64,
		MinReps: 13, MaxReps: 25, Measure: time.Duration(seconds) * time.Second,
		WarmDiv: 10, LayerReps: 5, LayerDiv: 1, SaturateReps: 7, TraceReps: 3,
	}
}

func smokeProtocol() protocol {
	return protocol{
		Warmup: 0, SetupK: 1, SetupBudget: 0, SetupMax: 1,
		MinReps: 2, MaxReps: 2, Measure: 300 * time.Millisecond,
		WarmDiv: 10, LayerReps: 1, LayerDiv: 64, SaturateReps: 2, TraceReps: 1,
	}
}

// benchThreads is T of protocol step 1: min(nproc, 4). Every closed-loop
// workload runs T workers; the open-loop one runs T workers and one paced
// producer. It is derived, never a knob, so it can never exceed nproc.
func benchThreads() int {
	return min(runtime.NumCPU(), 4)
}

// hostBlock identifies the machine state a report was taken in.
type hostBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	T          int     `json:"T"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Load1      float64 `json:"load1_at_start"` // -1 when the host does not say
}

func readHost() hostBlock {
	return hostBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), T: benchThreads(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Load1: loadAverage(),
	}
}

// loadAverage reads the 1-minute load average, or -1 where /proc is absent.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// metric is one reported number. Q1/Q3 are the quartiles of the samples
// the value was estimated from and Samples the samples themselves, in the
// order they were taken, so a report carries its own dispersion.
type metric struct {
	Value     float64   `json:"value"`
	Unit      string    `json:"unit"`
	Q1        *float64  `json:"q1,omitempty"`
	Q3        *float64  `json:"q3,omitempty"`
	N         int       `json:"n,omitempty"`
	Estimator string    `json:"estimator,omitempty"`
	Samples   []float64 `json:"samples,omitempty"`
}

// estimate builds a metric from samples with the named estimator.
func estimate(samples []float64, unit, estimator string) metric {
	var v float64
	switch estimator {
	case "min":
		v = minOf(samples)
	case "q1":
		v, _ = quartiles(samples)
	case "q3":
		_, v = quartiles(samples)
	case "median":
		v = median(samples)
	default:
		estimator = "midmean"
		v = midmean(samples)
	}
	q1, q3 := quartiles(samples)
	return metric{Value: v, Unit: unit, Q1: &q1, Q3: &q3, N: len(samples), Estimator: estimator, Samples: samples}
}

func plain(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

// protocolBlock shows the protocol at work in a report: how long the host
// was warmed before the first sample, how many set-up samples and timed
// repetitions were taken, and how long the whole run took.
type protocolBlock struct {
	WarmupS      float64 `json:"warmup_s"`
	SetupSamples int     `json:"setup_samples"`
	SetupRule    string  `json:"setup_rule"`
	Repetitions  int     `json:"repetitions"`
	MeasureS     float64 `json:"measure_s"`
	WallS        float64 `json:"wall_s"`
}

// report is everything one run of one workload prints.
type report struct {
	Workload     string               `json:"workload"`
	Loop         string               `json:"loop"` // "closed" or "open"
	Seed         uint64               `json:"seed"`
	Trace        bool                 `json:"trace"`
	Host         hostBlock            `json:"host"`
	Sizes        sizes                `json:"sizes"`
	Protocol     protocolBlock        `json:"protocol"`
	OpsAttempted int64                `json:"ops_attempted"`
	OpsFailed    int64                `json:"ops_failed"`
	Invalid      []string             `json:"invalid,omitempty"` // why the run does not count
	EndToEnd     map[string]metric    `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric    `json:"per_layer,omitempty"`
	Ungated      map[string]metric    `json:"ungated,omitempty"`
	Layers       map[string]layerTime `json:"span_rollup,omitempty"`
	TraceFile    string               `json:"trace_file,omitempty"`
}

func (r *report) ok() bool { return r.OpsFailed == 0 && len(r.Invalid) == 0 }

// uniformPoints draws n uniform points in the unit square and a random
// insertion order, both from seed.
func uniformPoints(n int, seed uint64) ([]relaxsched.Point, []int) {
	r := rng.New(seed)
	pts := make([]relaxsched.Point, n)
	for i := range pts {
		pts[i] = relaxsched.Point{X: r.Float64(), Y: r.Float64()}
	}
	return pts, r.Perm(n)
}

// warmHost keeps the machine under the workload's own kind of load for at
// least d before anything is timed (protocol step 2): a process that starts
// on an idle host runs up to twice as fast for its first seconds, and
// set-up and repetitions must both be measured in the sustained state.
func warmHost(name string, sz sizes, p protocol, seed uint64) (time.Duration, error) {
	start := time.Now()
	if p.Warmup <= 0 {
		return 0, nil
	}
	if name == streamWorkload {
		// Saturation runs, not the 20%-load schedule: only sustained load
		// takes the host out of its fast just-woken state.
		for rep := uint64(0); time.Since(start) < p.Warmup; rep++ {
			if _, err := runCapacity(benchThreads(), sz.CapacityJobs/p.WarmDiv, seed+rep, nil); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	w, err := newClosedWorkload(name)
	if err != nil {
		return 0, err
	}
	small := sz.scaled(p.WarmDiv)
	built := false
	for rep := uint64(0); time.Since(start) < p.Warmup; rep++ {
		if !built || w.perRepBuild() {
			if err := w.build(small, seed); err != nil {
				return 0, err
			}
			built = true
		}
		if _, err := w.run(benchThreads(), seed+rep, nil, -1); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// sampleSetup times build at least p.SetupK times and keeps going while the
// samples are cheap (a 3 ms set-up sampled five times is dominated by
// whichever sample the host interrupted). The previous build's result is
// still referenced while the next one runs, so from the third sample on a
// build reuses the spans its predecessor's predecessor left — the state the
// fastest sample, which is the one reported, is taken in.
func sampleSetup(p protocol, release func(), build func() error) ([]float64, error) {
	var samples []float64
	var spent time.Duration
	for len(samples) < p.SetupK || (spent < p.SetupBudget && len(samples) < p.SetupMax) {
		d, err := timedBuild(release, build)
		if err != nil {
			return nil, err
		}
		samples = append(samples, d.Seconds())
		spent += d
	}
	return samples, nil
}

// timedBuild is one set-up sample: release (if not nil) undoes what the
// previous build must not leave behind, then a collection, then the timed
// build.
func timedBuild(release func(), build func() error) (time.Duration, error) {
	if release != nil {
		release()
	}
	runtime.GC()
	t0 := time.Now()
	err := build()
	return time.Since(t0), err
}

// liveHeapMB is the heap that is still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// repSample is what one timed repetition measured.
type repSample struct {
	wall       time.Duration
	cpuS       float64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	counts     closedCounts
}

// timedRun is the timed region of one repetition: a collection, then the
// run call bracketed by clock, rusage and allocation readings.
func timedRun(w closedWorkload, T int, seed uint64, tr *tracer, parent int) (repSample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	counts, err := w.run(T, seed, tr, parent)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return repSample{}, err
	}
	return repSample{
		wall: wall, cpuS: cpu1 - cpu0, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		counts: counts,
	}, nil
}

// closedState is a built closed-loop workload ready for repetitions.
type closedState struct {
	w       closedWorkload
	setup   []float64 // set-up samples, seconds
	heapMB  float64
	refS    float64 // wall of the sequential reference
	refN    int64   // useful tasks the reference performed
	warmupS float64
	// buildSpan and verifySpan name the spans around a rebuild and around
	// the untimed check; the transactional workload's are NewWorkload and
	// Certify, layer calls of their own.
	buildSpan, verifySpan string
}

// prepareClosed runs protocol steps 2 and 3 and builds the reference.
func prepareClosed(name string, sz sizes, p protocol, seed uint64) (*closedState, error) {
	warm, err := warmHost(name, sz, p, seed)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	w, err := newClosedWorkload(name)
	if err != nil {
		return nil, err
	}
	st := &closedState{w: w, warmupS: warm.Seconds(), buildSpan: "build", verifySpan: "verify"}
	if w.perRepBuild() {
		// Every repetition rebuilds the input, and those rebuilds are the
		// set-up samples; one build here is enough to start from.
		st.buildSpan, st.verifySpan = "txn.new_workload", "txn.certify"
		p.SetupK, p.SetupMax = 1, 1
	}
	st.setup, err = sampleSetup(p, nil, func() error { return w.build(sz, seed) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	st.heapMB = liveHeapMB()
	t0 := time.Now()
	st.refN, err = w.reference()
	st.refS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return st, nil
}

// oneRep is one repetition: a rebuild of the input first if asked for (one
// more setup_s sample, outside the timed region), then the timed run, then
// the untimed check. failed counts quarantined tasks, wrong outputs and
// useful tasks the run did not perform.
func (st *closedState) oneRep(sz sizes, seed uint64, rep int, rebuild bool, tr *tracer) (s repSample, failed int64, err error) {
	if rebuild {
		id := tr.begin(st.buildSpan, -1)
		d, err := timedBuild(nil, func() error { return st.w.build(sz, seed) })
		tr.end(id)
		if err != nil {
			return s, 0, fmt.Errorf("rebuild: %w", err)
		}
		st.setup = append(st.setup, d.Seconds())
	}
	tr.setRun(rep)
	root := tr.begin("rep", -1)
	s, err = timedRun(st.w, benchThreads(), seed+uint64(rep+1), tr, root)
	tr.end(root)
	if err != nil {
		return s, 0, err
	}
	vid := tr.begin(st.verifySpan, -1)
	failed = st.w.verify() + s.counts.failed
	tr.end(vid)
	if missing := st.w.expected() - s.counts.useful; missing > 0 {
		failed += missing
	}
	return s, failed, nil
}

// rebuildBefore reports whether the input is rebuilt before repetition rep
// (-1 is the untimed one, which runs on the input set-up left behind). Where
// a run consumes its input that is every repetition. Elsewhere it is every
// other one: where an 88 MB graph happens to land in memory moves a run by
// several percent, and a run that measured one placement would carry that
// luck into every number it prints.
func (st *closedState) rebuildBefore(rep int) bool {
	return rep >= 0 && (st.w.perRepBuild() || rep%2 == 0)
}

// repeat runs one untimed repetition — the first full-size run of a process
// pays for growing the heap to its working size, up to twice the time of
// the ones after it — and then timed repetitions until both p.MinReps and
// p.Measure are satisfied. The untimed one is checked like the others.
func (st *closedState) repeat(p protocol, sz sizes, seed uint64) (reps []repSample, failed int64, err error) {
	var start time.Time
	for rep := -1; rep < p.MaxReps && (rep < p.MinReps || time.Since(start) < p.Measure); rep++ {
		s, f, err := st.oneRep(sz, seed, rep, st.rebuildBefore(rep), nil)
		if err != nil {
			return nil, 0, err
		}
		failed += f
		if rep == -1 {
			start = time.Now()
			continue
		}
		reps = append(reps, s)
	}
	return reps, failed, nil
}

// closedEndToEnd turns repetitions into the eight end-to-end metrics.
//
// Every time is the fast quartile over repetitions (q1 of a time, q3 of a
// rate), not their centre. A repetition does a fixed amount of work and the
// host only ever adds to it: on this shared machine a stretch of about a
// minute in which memory-bound code runs 15-25% slower comes round every few
// minutes, and shorter ones in which everything runs 30-50% slower. Over 580
// repetitions of three workloads cut into runs of seven, the fast quartile
// of a run repeated to 3-8% between runs, the midmean to 4-9% and the median
// to 8-9% (README, protocol step 6). A quartile, not the minimum: how much
// work a relaxed run wastes is itself random, and the luckiest repetition is
// not what a change to the scheduler moves.
//
// sojourn_p50_us and burst_drain_p75_us have no native meaning in a closed
// loop (every task is "due" at the start, so a per-task sojourn is half the
// makespan). The acceptance contract wants every workload to print every
// metric, so here they are the closed-loop analogues: the thread-time one
// useful task occupies (T x wall / tasks, the denominator of the layer
// budget), and the run taken as one burst due at its start (the run call's
// wall time).
//
// alloc_b_per_task is the upper quartile over repetitions, not the median:
// allocation per task is a step function of how evenly the workers shared
// the run (per-worker slices double), and the upper step is the one nearly
// every run visits.
func closedEndToEnd(st *closedState, reps []repSample) map[string]metric {
	T := float64(benchThreads())
	var tps, cpu, ovh, alloc, perTask, wallUs []float64
	for _, r := range reps {
		useful := float64(r.counts.useful)
		tps = append(tps, useful/r.wall.Seconds())
		cpu = append(cpu, r.cpuS*1e6/useful)
		ovh = append(ovh, float64(r.counts.attempts)/useful)
		alloc = append(alloc, float64(r.allocBytes)/useful)
		perTask = append(perTask, T*r.wall.Seconds()*1e6/useful)
		wallUs = append(wallUs, r.wall.Seconds()*1e6)
	}
	return map[string]metric{
		"setup_s":            estimate(st.setup, "s", "min"),
		"setup_heap_mb":      plain(st.heapMB, "MB"),
		"tasks_per_s":        estimate(tps, "1/s", "q3"),
		"cpu_us_per_task":    estimate(cpu, "us", "q1"),
		"overhead_ratio":     estimate(ovh, "ratio", "median"),
		"alloc_b_per_task":   estimate(alloc, "B", "q3"),
		"sojourn_p50_us":     estimate(perTask, "us", "q1"),
		"burst_drain_p75_us": estimate(wallUs, "us", "q1"),
	}
}

// runClosed performs one untraced run of a closed-loop workload.
func runClosed(name string, sz sizes, p protocol, seed uint64) (*report, error) {
	begin := time.Now()
	rep := &report{Workload: name, Loop: "closed", Seed: seed, Host: readHost(), Sizes: sz}
	st, err := prepareClosed(name, sz, p, seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	reps, failed, err := st.repeat(p, sz, seed)
	if err != nil {
		return nil, err
	}
	rep.OpsAttempted = st.w.expected() * int64(len(reps)+1) // the untimed repetition is checked too
	rep.OpsFailed = failed
	rep.EndToEnd = closedEndToEnd(st, reps)
	rep.Protocol = protocolBlock{
		WarmupS: st.warmupS, SetupSamples: len(st.setup), SetupRule: "min of samples, each after runtime.GC(), after warm-up",
		Repetitions: len(reps), MeasureS: time.Since(t0).Seconds(), WallS: time.Since(begin).Seconds(),
	}
	return rep, nil
}
