package main

import (
	"fmt"
	"time"

	"relaxsched"
)

// endToEndUnits and perLayerUnits are the metric names this benchmark
// prints, with their units; BENCHMARK.json lists the same names (a test
// keeps the two in step) and later issues cite them verbatim.
var endToEndUnits = map[string]string{
	"setup_s": "s", "setup_heap_mb": "MB", "tasks_per_s": "1/s", "cpu_us_per_task": "us",
	"overhead_ratio": "ratio", "alloc_b_per_task": "B", "sojourn_p50_us": "us", "burst_drain_p75_us": "us",
}

var perLayerUnits = map[string]string{
	"cq.multiqueue.push_ns": "ns", "cq.multiqueue.pop_ns": "ns", "cq.multiqueue.batch16_ns_per_elem": "ns",
	"cq.multiqueue.empty_pop_ns": "ns", "cq.lockfree.push_ns": "ns", "cq.lockfree.pop_ns": "ns",
	"cq.lockfree.pop_miss_frac": "ratio", "cq.lockfree.empty_pop_ns": "ns", "cq.exact.pushpop_ns": "ns",
	"inflight.produce_complete_ns": "ns", "inflight.quiescent_ns": "ns",
	"park.roundtrip_us": "us", "park.wake_idle_ns": "ns",
	"epoch.enter_exit_ns": "ns", "epoch.alloc_retire_ns": "ns",
	"engine.noop_ns_per_task": "ns", "engine.noop_b16_ns_per_task": "ns", "engine.spawn_ns_per_task": "ns",
	"engine.noop_t1_ns_per_task": "ns", "engine.spawn_t1_ns_per_task": "ns",
	"engine.startstop_us": "us", "engine.producer_push_ns": "ns",
	"graph.build_ns_per_edge": "ns", "sssp.seq_tasks_per_s": "1/s", "delaunay.seq_tasks_per_s": "1/s",
	"sssp.run_s": "s", "sssp.pops_per_task": "ratio", "sssp.stale_pop_frac": "ratio",
	"txn.new_workload_s": "s", "txn.run_s": "s", "txn.certify_s": "s", "txn.tryexecute_ns": "ns",
	"txn.abort_ratio": "ratio", "txn.promotions": "count", "txn.reconciles": "count", "txn.split_deposit_frac": "ratio",
	"delaunay.run_s": "s", "delaunay.pops_per_task": "ratio", "delaunay.blocked_frac": "ratio",
	"sched.push_ns": "ns", "sched.wake_first_exec_p50_us": "us", "sched.sojourn_p99_us": "us",
	"sched.rank_err_mean": "ranks", "gen.late_p50_us": "us", "gen.late_p99_us": "us",
	"gc.cycles": "count", "gc.pause_total_ms": "ms",
	"budget.cq_frac": "ratio", "budget.engine_frac": "ratio", "budget.workload_frac": "ratio",
	"budget.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
}

// medianSpanS is the median duration, in seconds, of the spans called name.
func medianSpanS(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	return median(d)
}

// budget splits the thread-time one useful task costs (T x wall / tasks)
// into layers: the queue (pops per task times the isolated push+pop cost of
// the workload's backend and batch size), the engine (its no-op cost per
// pop minus the queue share of that), the workload's own compute
// (workloadNs, measured independently of the other two), and whatever those
// three do not explain. The four fractions sum to 1 by construction; the
// last one is the honest part — it may be negative when the isolated
// figures overstate what the layers cost inside a real run.
func budget(perTaskNs, popsPerTask, cqNs, engineNs, engineCqNs, workloadNs float64) map[string]metric {
	cqFrac := popsPerTask * cqNs / perTaskNs
	engFrac := popsPerTask * (engineNs - engineCqNs) / perTaskNs
	wlFrac := workloadNs / perTaskNs
	return map[string]metric{
		"budget.cq_frac":           plain(cqFrac, "ratio"),
		"budget.engine_frac":       plain(engFrac, "ratio"),
		"budget.workload_frac":     plain(wlFrac, "ratio"),
		"budget.unattributed_frac": plain(1-cqFrac-engFrac-wlFrac, "ratio"),
	}
}

// traceClosed performs the traced run of a closed-loop workload: part 1
// (layer microbenchmarks), then repetitions that alternate untraced and
// traced, so that the two are compared in the same host state.
func traceClosed(name string, sz sizes, p protocol, seed uint64, outDir string) (*report, error) {
	begin := time.Now()
	rep := &report{Workload: name, Loop: "closed", Seed: seed, Trace: true, Host: readHost(), Sizes: sz}
	st, err := prepareClosed(name, sz, protocol{Warmup: p.Warmup, WarmDiv: p.WarmDiv, SetupK: 1, SetupMax: 1}, seed)
	if err != nil {
		return nil, err
	}
	layers, err := layerMicrobenchmarks(p, seed)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	T := benchThreads()
	var plainReps, tracedReps []repSample
	var failed int64
	t0 := time.Now()
	for i := 0; i < p.TraceReps; i++ {
		for _, t := range []*tracer{nil, tr} {
			s, f, err := st.oneRep(sz, seed, i, st.w.perRepBuild() && (i > 0 || t != nil), t)
			if err != nil {
				return nil, err
			}
			failed += f
			if t == nil {
				plainReps = append(plainReps, s)
			} else {
				tracedReps = append(tracedReps, s)
			}
		}
	}
	spans := tr.snapshot()

	rate := func(reps []repSample) float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, float64(r.counts.useful)/r.wall.Seconds())
		}
		return midmean(v)
	}
	var perTask, pops, stale, blockedFrac, abort []float64
	var gcCycles, gcPause float64
	for _, r := range tracedReps {
		useful := float64(r.counts.useful)
		perTask = append(perTask, float64(T)*float64(r.wall)/useful)
		pops = append(pops, float64(r.counts.pops)/useful)
		stale = append(stale, float64(r.counts.pops-r.counts.attempts)/float64(r.counts.pops))
		blockedFrac = append(blockedFrac, float64(r.counts.blocked)/float64(r.counts.pops))
		abort = append(abort, float64(r.counts.blocked)/useful)
		gcCycles += float64(r.gcCycles)
		gcPause += float64(r.gcPauseNs) / 1e6
	}
	m := layers
	m["gc.cycles"] = plain(gcCycles, "count")
	m["gc.pause_total_ms"] = plain(gcPause, "ms")
	m["trace.overhead_frac"] = plain(1-rate(tracedReps)/rate(plainReps), "ratio")

	w := st.w
	cqNs := m["cq."+string(w.backend())+".push_ns"].Value + m["cq."+string(w.backend())+".pop_ns"].Value
	engineCqNs := m["cq.multiqueue.push_ns"].Value + m["cq.multiqueue.pop_ns"].Value
	engineNs := m["engine.noop_ns_per_task"].Value
	if w.batch() == 16 {
		cqNs = m["cq.multiqueue.batch16_ns_per_elem"].Value
		engineCqNs, engineNs = cqNs, m["engine.noop_b16_ns_per_task"].Value
	}
	engineT1Ns := m["engine.noop_t1_ns_per_task"].Value
	if _, ok := w.(*ssspRoad); ok {
		// Tasks reach the queue through Ctx.Spawn, not the frontier.
		engineNs = m["engine.spawn_ns_per_task"].Value
		engineT1Ns = m["engine.spawn_t1_ns_per_task"].Value
	}
	var workloadNs float64
	if !w.perRepBuild() {
		// No way to time TryExecute from outside these two algorithms, so
		// the workload's own compute is estimated from the same algorithm
		// on one worker: its time per task minus the one-worker engine's
		// no-op cost for the pops that task took. What T workers add beyond
		// that and the isolated layer costs lands in
		// budget.unattributed_frac.
		id := tr.begin("single_thread", -1)
		one, err := timedRun(w, 1, seed, nil, -1)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		useful := float64(one.counts.useful)
		workloadNs = max(float64(one.wall)/useful-float64(one.counts.pops)/useful*engineT1Ns, 0)
		spans = tr.snapshot()
	}
	switch w := w.(type) {
	case *ssspRoad:
		m["graph.build_ns_per_edge"] = plain(minOf(st.setup)*1e9/float64(w.g.NumEdges()), "ns")
		m["sssp.seq_tasks_per_s"] = plain(float64(st.refN)/st.refS, "1/s")
		m["sssp.run_s"] = plain(medianSpanS(spans, "sssp.parallel"), "s")
		m["sssp.pops_per_task"] = plain(median(pops), "ratio")
		m["sssp.stale_pop_frac"] = plain(median(stale), "ratio")
	case *delaunayUniform:
		m["delaunay.seq_tasks_per_s"] = plain(float64(st.refN)/st.refS, "1/s")
		m["delaunay.run_s"] = plain(medianSpanS(spans, "delaunay.parallel"), "s")
		m["delaunay.pops_per_task"] = plain(median(pops), "ratio")
		m["delaunay.blocked_frac"] = plain(median(blockedFrac), "ratio")
	case *txnZipf:
		ns, count := totalNs(spans, "txn.tryexecute")
		tryNs := float64(ns) / float64(count)
		workloadNs = tryNs * (1 + median(abort)) // attempts per committed txn
		m["txn.new_workload_s"] = plain(medianSpanS(spans, "txn.new_workload"), "s")
		m["txn.run_s"] = plain(medianSpanS(spans, "txn.run"), "s")
		m["txn.certify_s"] = plain(medianSpanS(spans, st.verifySpan), "s")
		m["txn.tryexecute_ns"] = plain(tryNs, "ns")
		m["txn.abort_ratio"] = plain(median(abort), "ratio")
		// The phase-splitting counters are only exposed by ParallelRun.
		id := tr.begin("txn.parallel_run", -1)
		spec := w.spec
		res, err := relaxsched.ParallelTransactions(spec, relaxsched.ParallelTxnOptions{
			ExecOptions: execOptions(T, w.batch(), w.backend(), seed),
		})
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("txn: %w", err)
		}
		m["txn.promotions"] = plain(float64(res.Promotions), "count")
		m["txn.reconciles"] = plain(float64(res.Reconciles), "count")
		m["txn.split_deposit_frac"] = plain(float64(res.SplitDeposits)/float64(spec.Txns*spec.OpsPerTxn), "ratio")
		spans = tr.snapshot()
	}
	for k, v := range budget(median(perTask), median(pops), cqNs, engineNs, engineCqNs, workloadNs) {
		m[k] = v
	}

	rep.PerLayer = m
	rep.Layers = rollup(spans)
	rep.OpsAttempted = st.w.expected() * int64(len(plainReps)+len(tracedReps))
	rep.OpsFailed = failed
	if rep.TraceFile, err = writeTrace(outDir, name, seed, spans); err != nil {
		return nil, err
	}
	rep.Protocol = protocolBlock{
		WarmupS: st.warmupS, SetupSamples: len(st.setup), SetupRule: "one build (set-up is not measured in a traced run)",
		Repetitions: len(plainReps) + len(tracedReps), MeasureS: time.Since(t0).Seconds(), WallS: time.Since(begin).Seconds(),
	}
	return rep, nil
}

// traceStream performs the traced run of the open-loop workload.
func traceStream(sz sizes, p protocol, seed uint64, outDir string) (*report, error) {
	begin := time.Now()
	rep := &report{Workload: streamWorkload, Loop: "open", Seed: seed, Trace: true, Host: readHost(), Sizes: sz}
	_, warmBursts, bursts := openWindow(sz, p)
	st, err := prepareStream(sz, protocol{Warmup: p.Warmup, WarmDiv: p.WarmDiv, SetupK: 1, SetupMax: 1}, seed, (warmBursts+bursts)*sz.BurstJobs)
	if err != nil {
		return nil, err
	}
	m, err := layerMicrobenchmarks(p, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	t0 := time.Now()
	p.SaturateReps = p.TraceReps
	plainCaps, err := saturate(p, sz, seed, nil)
	if err != nil {
		return nil, err
	}
	tracedCaps, err := saturate(p, sz, seed, tr)
	if err != nil {
		return nil, err
	}
	runs, err := openLoopReps(st, sz, p, seed, tr)
	if err != nil {
		return nil, err
	}
	rate := func(caps []capacitySample) float64 {
		var v []float64
		for _, c := range caps {
			v = append(v, float64(c.jobs)/c.wall.Seconds())
		}
		return midmean(v)
	}
	for k, v := range streamUngated(runs, sz.BurstJobs) {
		m[k] = v
	}
	// The collector is off during the schedule; these are the traced
	// saturation runs'.
	var gcCycles, gcPauseMs float64
	for _, c := range tracedCaps {
		gcCycles += float64(c.gcCycles)
		gcPauseMs += float64(c.gcPauseNs) / 1e6
	}
	m["gc.cycles"] = plain(gcCycles, "count")
	m["gc.pause_total_ms"] = plain(gcPauseMs, "ms")
	m["trace.overhead_frac"] = plain(1-rate(tracedCaps)/rate(plainCaps), "ratio")

	spans := tr.snapshot()
	rep.PerLayer = m
	rep.Layers = rollup(spans)
	rep.Invalid = streamInvalid(runs)
	rep.OpsAttempted, rep.OpsFailed = streamOps(runs, append(plainCaps, tracedCaps...), sz)
	if rep.TraceFile, err = writeTrace(outDir, streamWorkload, seed, spans); err != nil {
		return nil, err
	}
	rep.Protocol = protocolBlock{
		WarmupS: st.warmupS, SetupRule: "set-up is not measured in a traced run",
		Repetitions: len(runs), MeasureS: time.Since(t0).Seconds(), WallS: time.Since(begin).Seconds(),
	}
	return rep, nil
}
