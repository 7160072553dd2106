package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"relaxsched"
)

// Open-loop pacing (protocol step 7). The producer sleeps to spinLead
// before each burst's due time and then yields in a loop until the clock
// reaches it. The sleep is a raw nanosleep: time.Sleep overshoots by ~0.6 ms
// at the median on this kind of host (the Go timer only fires once an idle P
// notices it), which would need a 1.5 ms lead — 15% of a CPU spent spinning,
// as much as the system under test uses. nanosleep overshoots by ~0.12 ms
// (p99 0.3 ms).
const spinLead = 400 * time.Microsecond

// sleepFor blocks the calling thread for d.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// An early return (EINTR) only lengthens the spin that follows.
	_ = syscall.Nanosleep(&ts, nil)
}

// backlogGrace is how long after the last burst a job may still be queued
// before the run is declared invalid (a growing backlog).
const backlogGrace = time.Second

// lateLimitUs invalidates a run whose generator was late at the median: it
// then measured the generator, not the system.
const lateLimitUs = 50

// openRun is what one open-loop repetition measured. Slices cover the
// measured bursts only; the warm-up bursts before them are executed and
// checked for exactly-once, but not timed.
type openRun struct {
	sojourn []int64 // per job: due -> Execute entry, ns
	late    []int64 // per burst: due -> first Push, ns
	pushNs  int64   // the Push calls and Flushes of the measured bursts
	cpuS    float64 // process CPU over the window minus the generator's spin
	jobs    int64   // all jobs pushed, warm-up included
	failed  int64   // jobs not executed exactly once
	backlog bool    // a job was still queued backlogGrace after the last burst
	rankErr float64
}

func streamOptions(T int, seed uint64, execute func(worker int, job, priority int64)) relaxsched.TopKStreamOptions {
	return relaxsched.TopKStreamOptions{
		ExecOptions: execOptions(T, 1, relaxsched.BackendMultiQueue, seed),
		Producers:   1,
		Execute:     execute,
	}
}

// runOpenLoop drives the fixed schedule — warmBursts untimed bursts, then
// bursts measured ones — through one fresh TopKStream with T workers and
// this goroutine as the single paced producer. Priority = job id, so rank
// error means execution out of due order. slots must hold one zeroed slot
// per job of the schedule.
func runOpenLoop(T int, sz sizes, warmBursts, bursts int, seed uint64, tr *tracer, slots []atomic.Int64) (openRun, error) {
	every, perBurst := sz.burstEvery(), sz.BurstJobs
	allBursts := warmBursts + bursts
	total := allBursts * perBurst

	// executedAt[job] is when the job's Execute ran, in ns since base
	// (never 0: base is taken before the stream exists). A second Execute
	// of the same job finds the slot taken and counts as a duplicate.
	executedAt := slots[:total]
	var dupes atomic.Int64
	base := time.Now()
	cid := tr.begin("sched.new_stream", -1)
	s, err := relaxsched.NewTopKStream(streamOptions(T, seed, func(_ int, job, _ int64) {
		if executedAt[job].Swap(int64(time.Since(base))) != 0 {
			dupes.Add(1)
		}
	}))
	if err != nil {
		return openRun{}, fmt.Errorf("stream: %w", err)
	}
	prod := s.NewProducer()
	tr.end(cid)
	out := openRun{jobs: int64(total), late: make([]int64, 0, bursts)}

	// No collection runs inside the schedule. A window sees only a handful
	// (the heap doubles a few times), each soaks up the idle CPUs for
	// 30-170 ms, and whether one lands in a window decides half of its CPU
	// per job — the half that is not the idle path this workload exists to
	// watch. What the stream allocates is gated as alloc_b_per_task, from
	// the saturation runs, which keep the collector on.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var spin time.Duration // generator busy-wait inside the window
	var cpu0 float64
	first := time.Since(base) + 2*spinLead
	for b := 0; b < allBursts; b++ {
		due := first + time.Duration(b)*every
		if b == warmBursts {
			cpu0, spin = cpuSeconds(), 0
		}
		if d := due - spinLead - time.Since(base); d > 0 {
			sleepFor(d)
		}
		spinStart := time.Since(base)
		now := spinStart
		for now < due {
			runtime.Gosched()
			now = time.Since(base)
		}
		spin += now - spinStart
		pid := -1
		if b >= warmBursts {
			out.late = append(out.late, int64(now-due))
			pid = tr.begin("sched.push_burst", -1)
		}
		for j := b * perBurst; j < (b+1)*perBurst; j++ {
			prod.Push(int64(j), int64(j))
		}
		prod.Flush()
		if b >= warmBursts {
			tr.end(pid)
			out.pushNs += int64(time.Since(base) - now)
		}
	}

	// The window ends when the last burst has drained, or after the grace
	// period if it never does.
	lastBurst := executedAt[total-perBurst:]
	deadline := time.Since(base) + backlogGrace
	for !allExecuted(lastBurst) && time.Since(base) < deadline {
		time.Sleep(200 * time.Microsecond)
	}
	out.cpuS = cpuSeconds() - cpu0 - spin.Seconds()
	out.backlog = !allExecuted(executedAt)

	prod.Close()
	wid := tr.begin("sched.wait", -1)
	res := s.Wait()
	tr.end(wid)
	out.rankErr = res.MeanRankError

	out.failed = dupes.Load()
	for j := range executedAt {
		if executedAt[j].Load() == 0 {
			out.failed++
		}
	}
	if res.Jobs != int64(total) {
		out.failed += abs64(res.Jobs - int64(total))
	}
	out.sojourn = make([]int64, bursts*perBurst)
	for i := range out.sojourn {
		j := warmBursts*perBurst + i
		due := first + time.Duration(j/perBurst)*every
		out.sojourn[i] = executedAt[j].Load() - int64(due)
	}
	return out, nil
}

func allExecuted(slots []atomic.Int64) bool {
	for i := range slots {
		if slots[i].Load() == 0 {
			return false
		}
	}
	return true
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// capacitySample is one saturation run: the producer pushes jobs as fast as
// it can and the stream drains them.
type capacitySample struct {
	wall       time.Duration // first Push -> last job executed
	jobs       int64
	popped     int64
	failed     int64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// runCapacity measures the stream's saturated drain rate — the rate the
// open-loop schedule's 200k jobs/s is a small part of. It is what
// tasks_per_s means on the open-loop workload, where the offered rate is
// fixed.
func runCapacity(T, jobs int, seed uint64, tr *tracer) (capacitySample, error) {
	hits := make([]atomic.Int32, jobs)
	done := make([]paddedCount, T)
	s, err := relaxsched.NewTopKStream(streamOptions(T, seed, func(worker int, job, _ int64) {
		hits[job].Add(1)
		done[worker].n.Add(1)
	}))
	if err != nil {
		return capacitySample{}, fmt.Errorf("stream: %w", err)
	}
	prod := s.NewProducer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("sched.saturate", -1)
	t0 := time.Now()
	for j := 0; j < jobs; j++ {
		prod.Push(int64(j), int64(j))
	}
	prod.Close()
	executed := func() (n int64) {
		for w := range done {
			n += done[w].n.Load()
		}
		return n
	}
	deadline := t0.Add(30 * time.Second)
	for executed() < int64(jobs) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	wall := time.Since(t0)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	res := s.Wait()
	out := capacitySample{
		wall: wall, jobs: res.Jobs, popped: res.Popped, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	for j := range hits {
		if hits[j].Load() != 1 {
			out.failed++
		}
	}
	return out, nil
}

// streamState is the open-loop workload after warm-up and set-up.
type streamState struct {
	setup   []float64
	heapMB  float64
	warmupS float64
	slots   []atomic.Int64 // one repetition's preallocated per-job slots
}

// setupBatch is how many stream constructions make one set-up sample: one
// construction takes ~2 us, far too short to time on its own.
const setupBatch = 256

// streamBatch builds n streams with their producers — what must exist
// before the first job can be pushed: worker pool, queue, termination
// counter, producer handle — and returns the function that tears them down.
func streamBatch(T, n int, seed uint64) (build func() error, teardown func()) {
	streams := make([]*relaxsched.TopKStream, 0, n)
	prods := make([]*relaxsched.JobProducer, 0, n)
	build = func() error {
		for len(streams) < n {
			s, err := relaxsched.NewTopKStream(streamOptions(T, seed, nil))
			if err != nil {
				return err
			}
			streams, prods = append(streams, s), append(prods, s.NewProducer())
		}
		return nil
	}
	teardown = func() {
		for i, s := range streams {
			prods[i].Close()
			s.Wait()
		}
		streams, prods = streams[:0], prods[:0]
	}
	return build, teardown
}

// prepareStream runs protocol steps 2 and 3 for the open-loop workload.
// setup_s is one stream construction (tear-down is not part of it);
// setup_heap_mb is the live heap with one stream up and one repetition's
// per-job slots allocated.
func prepareStream(sz sizes, p protocol, seed uint64, jobsPerRep int) (*streamState, error) {
	warm, err := warmHost(streamWorkload, sz, p, seed)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	T := benchThreads()
	st := &streamState{warmupS: warm.Seconds()}
	build, teardown := streamBatch(T, setupBatch, seed)
	st.setup, err = sampleSetup(p, teardown, build)
	teardown()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for i := range st.setup {
		st.setup[i] /= setupBatch
	}
	one, teardownOne := streamBatch(T, 1, seed)
	if err := one(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	st.slots = make([]atomic.Int64, jobsPerRep)
	st.heapMB = liveHeapMB()
	teardownOne()
	return st, nil
}

// openWindow cuts the open-loop phase of p.Measure into repetitions of
// sz.StreamWindowS each (at least one, none longer than the phase) and
// returns their number and one repetition's warm-up and measured burst
// counts. Each repetition is a fresh stream: how a stream's workers settle
// (who is parked, who is still backing off when a burst lands) differs from
// one stream to the next and moves its burst-drain quantiles and its CPU per
// job by 20%, so one long stream would carry one draw of that into every
// number of the run. Windows are not made shorter to get more of them: 1 s
// windows read 0.29-0.79 us of CPU per job where 2 s ones read 0.29-0.43.
func openWindow(sz sizes, p protocol) (reps, warmBursts, bursts int) {
	every := sz.burstEvery()
	window := min(time.Duration(sz.StreamWindowS*float64(time.Second)), p.Measure)
	reps = max(int(p.Measure/window), 1)
	warmBursts = int(time.Duration(sz.StreamWarmS*float64(time.Second)) / every)
	bursts = max(int(window/every), 1)
	return reps, warmBursts, bursts
}

// openLoopReps runs the open-loop repetitions.
func openLoopReps(st *streamState, sz sizes, p protocol, seed uint64, tr *tracer) (runs []openRun, err error) {
	reps, warmBursts, bursts := openWindow(sz, p)
	for rep := 0; rep < reps; rep++ {
		for i := range st.slots {
			st.slots[i].Store(0)
		}
		tr.setRun(rep)
		run, err := runOpenLoop(benchThreads(), sz, warmBursts, bursts, seed+uint64(rep), tr, st.slots)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// pooled concatenates a per-run slice over all runs.
func pooled(runs []openRun, pick func(openRun) []int64) []int64 {
	var all []int64
	for _, r := range runs {
		all = append(all, pick(r)...)
	}
	return all
}

// streamEndToEnd turns the open-loop repetitions and the saturation runs
// into the eight end-to-end metrics. The latency quantiles are exact, over
// the jobs (or bursts) of all repetitions pooled: a burst drains in one of
// two modes (~430 us when the second worker joins in time, ~600 us when it
// does not), the share of each differs from stream to stream, and only the
// pooled mixture repeats. CPU per job is the fast quartile of the windows'
// values, like every other time a repetition measures (closedEndToEnd): one
// window in ten spends half as much again, and over all windows summed that
// window decided the run's figure (0.31-0.57 us over ten runs, spread 37%).
// q1/q3 are those of the per-repetition values.
func streamEndToEnd(st *streamState, runs []openRun, caps []capacitySample, perBurst int) map[string]metric {
	var p50, p75, cpu, tps, ovh, alloc []float64
	for _, r := range runs {
		_, last := burstFirstLast(r.sojourn, perBurst)
		p50 = append(p50, quantileUs(r.sojourn, 0.50))
		p75 = append(p75, quantileUs(last, 0.75))
		cpu = append(cpu, r.cpuS*1e6/float64(len(r.sojourn)))
	}
	for _, c := range caps {
		tps = append(tps, float64(c.jobs)/c.wall.Seconds())
		ovh = append(ovh, float64(c.popped)/float64(c.jobs))
		alloc = append(alloc, float64(c.allocBytes)/float64(c.jobs))
	}
	soj := pooled(runs, func(r openRun) []int64 { return r.sojourn })
	_, last := burstFirstLast(soj, perBurst)
	over := func(v float64, per []float64, n int, est string) metric {
		m := estimate(per, "us", "median")
		m.Value, m.N, m.Estimator = v, n, est
		return m
	}
	return map[string]metric{
		"setup_s":         estimate(st.setup, "s", "min"),
		"setup_heap_mb":   plain(st.heapMB, "MB"),
		"tasks_per_s":     estimate(tps, "1/s", "midmean"),
		"cpu_us_per_task": estimate(cpu, "us", "q1"),
		"overhead_ratio":  estimate(ovh, "ratio", "median"),
		// Several per-worker slices grow by steps here, not one: the
		// midmean over the saturation runs smooths what a quantile of so
		// few values would jump between.
		"alloc_b_per_task":   estimate(alloc, "B", "midmean"),
		"sojourn_p50_us":     over(quantileUs(soj, 0.50), p50, len(soj), "p50 over jobs"),
		"burst_drain_p75_us": over(quantileUs(last, 0.75), p75, len(last), "p75 over bursts"),
	}
}

// streamUngated are the open-loop numbers that are printed but carry no
// bound: they inherit host steal (see README). Quantiles are exact, over
// the jobs or bursts of all repetitions pooled.
func streamUngated(runs []openRun, perBurst int) map[string]metric {
	soj := pooled(runs, func(r openRun) []int64 { return r.sojourn })
	late := pooled(runs, func(r openRun) []int64 { return r.late })
	first, _ := burstFirstLast(soj, perBurst)
	var push int64
	var rankErr []float64
	for _, r := range runs {
		push += r.pushNs
		rankErr = append(rankErr, r.rankErr)
	}
	return map[string]metric{
		"sched.push_ns":                plain(float64(push)/float64(len(soj)), "ns"),
		"sched.wake_first_exec_p50_us": plain(quantileUs(first, 0.50), "us"),
		"sched.sojourn_p99_us":         plain(quantileUs(soj, 0.99), "us"),
		"sched.rank_err_mean":          plain(median(rankErr), "ranks"),
		"gen.late_p50_us":              plain(quantileUs(late, 0.50), "us"),
		"gen.late_p99_us":              plain(quantileUs(late, 0.99), "us"),
	}
}

// streamInvalid lists the reasons an open-loop run does not count.
func streamInvalid(runs []openRun) []string {
	var why []string
	late := pooled(runs, func(r openRun) []int64 { return r.late })
	if p50 := quantileUs(late, 0.50); p50 > lateLimitUs {
		why = append(why, fmt.Sprintf("gen.late_p50_us = %.1f > %d: the run measured the generator", p50, lateLimitUs))
	}
	for _, r := range runs {
		if r.backlog {
			why = append(why, fmt.Sprintf("jobs still queued %v after the last burst: growing backlog", backlogGrace))
			break
		}
	}
	return why
}

// saturate runs the saturation repetitions.
func saturate(p protocol, sz sizes, seed uint64, tr *tracer) (caps []capacitySample, err error) {
	for rep := 0; rep < p.SaturateReps; rep++ {
		runtime.GC()
		tr.setRun(rep)
		c, err := runCapacity(benchThreads(), sz.CapacityJobs, seed+uint64(rep), tr)
		if err != nil {
			return nil, err
		}
		caps = append(caps, c)
	}
	return caps, nil
}

// streamOps sums the jobs pushed and the jobs not executed exactly once.
func streamOps(runs []openRun, caps []capacitySample, sz sizes) (attempted, failed int64) {
	for _, r := range runs {
		attempted += r.jobs
		failed += r.failed
	}
	for _, c := range caps {
		attempted += int64(sz.CapacityJobs)
		failed += c.failed
	}
	return attempted, failed
}

// runStream performs one untraced run of the open-loop workload.
func runStream(sz sizes, p protocol, seed uint64) (*report, error) {
	begin := time.Now()
	rep := &report{Workload: streamWorkload, Loop: "open", Seed: seed, Host: readHost(), Sizes: sz}
	_, warmBursts, bursts := openWindow(sz, p)
	st, err := prepareStream(sz, p, seed, (warmBursts+bursts)*sz.BurstJobs)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	// Saturation first: with the warm-up it makes ~9 s of full load, after
	// which the host is in its sustained state whatever ran before this
	// process, and the open-loop repetitions that follow see the same
	// relaxation from it in every run.
	caps, err := saturate(p, sz, seed, nil)
	if err != nil {
		return nil, err
	}
	runs, err := openLoopReps(st, sz, p, seed, nil)
	if err != nil {
		return nil, err
	}
	rep.OpsAttempted, rep.OpsFailed = streamOps(runs, caps, sz)
	rep.Invalid = streamInvalid(runs)
	rep.EndToEnd = streamEndToEnd(st, runs, caps, sz.BurstJobs)
	rep.Ungated = streamUngated(runs, sz.BurstJobs)
	rep.Protocol = protocolBlock{
		WarmupS: st.warmupS, SetupSamples: len(st.setup),
		SetupRule:   fmt.Sprintf("min of samples (each the mean of %d constructions), each after runtime.GC(), after warm-up", setupBatch),
		Repetitions: len(runs), MeasureS: time.Since(t0).Seconds(), WallS: time.Since(begin).Seconds(),
	}
	return rep, nil
}
