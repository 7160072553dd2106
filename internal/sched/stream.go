package sched

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"relaxsched/internal/engine"
	"relaxsched/internal/rng"
	"relaxsched/internal/stats"
)

// This file is the streaming top-k job scheduler: the first open-system
// workload on the relaxed-execution engine. Where every other workload
// seeds its frontier up front (closed world), here producer goroutines
// stream prioritized jobs into the queue *while* workers drain it in
// relaxed priority order — the serving scenario the MultiQueue and
// SprayList designs target. The sequential model in this package bounds
// the rank of each ApproxGetMin; the streaming scheduler measures the
// end-to-end analogue, the rank error of the executed order against the
// true priority order of all jobs.

// StreamOptions configure a streaming execution (NewTopKStream).
type StreamOptions struct {
	// ExecOptions are the shared engine knobs: queue backend and relaxation
	// multiplier, worker count, batching (here on both sides: workers pop
	// job batches, and producer pushes buffer until BatchSize jobs
	// accumulate, flushed on Close), seeding, and Deadline — at expiry the
	// workers drain gracefully (exactly as TopKStream.Stop), producer
	// pushes are absorbed, and the result is marked Interrupted.
	engine.ExecOptions
	// Producers is the number of JobProducer handles that will be created
	// with NewProducer (>= 1). The stream terminates only after every
	// declared producer has been created and closed.
	Producers int
	// LatencyJobs, when positive, enables per-job sojourn-latency tracking
	// for jobs with ids in [0, LatencyJobs): JobProducer.Push timestamps
	// the arrival, the executing worker records push-to-execute time in a
	// fixed-bucket histogram (no per-job allocation), and the result
	// carries the p50/p99/p999 quantiles. Jobs with ids outside the range
	// execute normally but are not measured.
	LatencyJobs int
	// Execute, if non-nil, is the job body run by the executing worker.
	// It must be safe for concurrent calls from Threads workers.
	Execute func(worker int, job, priority int64)
}

// StreamResult summarizes a finished streaming execution.
type StreamResult struct {
	// Jobs is the number of jobs executed (every pushed job exactly once).
	Jobs int64
	// Popped is the total number of queue pops across all workers; for this
	// workload it equals Jobs (no job is ever blocked or discarded).
	Popped int64
	// ExecutedPriorities lists job priorities in global execution order.
	ExecutedPriorities []int64
	// Interrupted reports that the stream was stopped (TopKStream.Stop or
	// StreamOptions.Deadline) before every streamed job executed: the
	// result is a valid account of the jobs served so far, at-most-once
	// instead of exactly-once.
	Interrupted bool
	// MeanRankError and MaxRankError measure how far the executed order
	// strays from the true priority order of the full job set: job-wise
	// |executed position - priority-sorted position|, averaged and maxed.
	// Under streaming this folds two effects together — the queue's
	// relaxation and the arrival order (a top-priority job arriving last
	// cannot execute first, whatever the queue does) — which is exactly the
	// open-system quantity the scheduler is judged on.
	MeanRankError float64
	MaxRankError  int64
	// LatencyP50, LatencyP99 and LatencyP999 are quantiles of the push-to-
	// execute sojourn time over the jobs StreamOptions.LatencyJobs tracked
	// (zero when tracking was off or no tracked job executed). Quantiles
	// come from a log-bucketed histogram, accurate to ~±12.5%.
	LatencyP50, LatencyP99, LatencyP999 time.Duration
}

// topkWorkload records the global execution order of streamed jobs. Each
// worker appends to its own padded log; the global position comes from one
// atomic ticket, claimed at execution time.
type topkWorkload struct {
	execute func(worker int, job, priority int64)
	logs    []execLog
	// Latency tracking, nil when StreamOptions.LatencyJobs == 0: arrivals[j]
	// holds job j's push timestamp (ns since base, atomically stored by its
	// producer before the push becomes queue-visible, so the executing
	// worker always reads it populated), and lats[w] is worker w's private
	// latency histogram — fixed-size, allocation-free Add on the hot path.
	base     time.Time
	arrivals []atomic.Int64
	lats     []latHist
	_        [24]byte // close out the read-only fields' two lines
	// next is the execution ticket. Every job claims it, from whichever
	// worker runs the job, so its line moves between cores on every claim.
	// It has a line of its own because, sharing one with the read-only
	// fields above, it made every job's loads of those miss as well.
	next atomic.Int64
	_    [56]byte
}

// latHist pads a worker's histogram to a cache-line multiple so adjacent
// workers' bucket increments never false-share.
type latHist struct {
	h stats.Hist
	_ [56]byte // Hist is 2056 bytes; round up to 33 64-byte lines
}

// execRecord is one executed job: its global execution ticket and priority.
type execRecord struct {
	pos      int64
	priority int64
}

// execLogChunk is how many records one chunk of an execLog holds. Chunks
// are allocated as the log fills, so an idle stream holds none and a busy
// one never copies a record: bytes allocated per job are the record plus
// its share of a chunk pointer, whatever share of the jobs each worker
// runs. One slice grown by append would re-copy itself at every doubling
// and make that figure a step function of worker balance.
const execLogChunk = 1024

// execLog is one worker's private execution log, a list of fixed-size
// chunks, padded so neighbouring workers' append bookkeeping never
// false-shares.
type execLog struct {
	chunks [][]execRecord
	_      [104]byte // pad the 24-byte slice header to two 64-byte lines
}

// add appends one record, opening a new chunk when the last one is full.
func (l *execLog) add(rec execRecord) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == execLogChunk {
		l.chunks = append(l.chunks, make([]execRecord, 0, execLogChunk))
		last++
	}
	l.chunks[last] = append(l.chunks[last], rec)
}

func (w *topkWorkload) Frontier(func(value, priority int64)) {
	// Open system: every job arrives through a producer.
}

func (w *topkWorkload) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	if w.arrivals != nil && value >= 0 && value < int64(len(w.arrivals)) {
		if at := w.arrivals[value].Load(); at != 0 {
			w.lats[ctx.Worker].h.Add(int64(time.Since(w.base)) - at)
		}
	}
	if w.execute != nil {
		w.execute(ctx.Worker, value, priority)
	}
	pos := w.next.Add(1) - 1
	w.logs[ctx.Worker].add(execRecord{pos: pos, priority: priority})
	return engine.Executed
}

// TopKStream is a live streaming execution: workers are draining jobs in
// relaxed priority order while the holder streams more in through
// JobProducer handles. Obtain one with NewTopKStream, create and close all
// declared producers, then Wait for the result.
type TopKStream struct {
	exec *engine.Execution
	wl   *topkWorkload
}

// NewTopKStream launches the worker pool of a streaming top-k execution.
// Lower priority values are served first, approximately: workers pop from a
// concurrent relaxed queue, so each pop returns one of the smallest-priority
// pending jobs rather than the exact minimum.
func NewTopKStream(opts StreamOptions) (*TopKStream, error) {
	if opts.Producers < 1 {
		return nil, fmt.Errorf("sched: streaming needs Producers >= 1, got %d", opts.Producers)
	}
	// Validated again by engine.Start, but the per-worker logs are
	// allocated first — check here so bad options error instead of
	// panicking in makeslice.
	if opts.Threads < 1 {
		return nil, fmt.Errorf("sched: streaming needs Threads >= 1, got %d", opts.Threads)
	}
	wl := &topkWorkload{execute: opts.Execute, logs: make([]execLog, opts.Threads)}
	if opts.LatencyJobs > 0 {
		wl.base = time.Now()
		wl.arrivals = make([]atomic.Int64, opts.LatencyJobs)
		wl.lats = make([]latHist, opts.Threads)
	}
	exec, err := engine.Start(wl, engine.Options{
		ExecOptions: opts.ExecOptions,
		Producers:   opts.Producers,
	})
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	return &TopKStream{exec: exec, wl: wl}, nil
}

// NewProducer returns the next declared producer handle (panics beyond
// StreamOptions.Producers). Each handle must be used by one goroutine at a
// time; create one per arrival stream.
func (s *TopKStream) NewProducer() *JobProducer {
	return &JobProducer{p: s.exec.NewProducer(), wl: s.wl}
}

// Stop requests a graceful drain of the stream: workers stop popping and
// exit, further producer pushes are absorbed (not panics — producers may
// keep streaming and Close normally), and Wait returns the jobs served so
// far, marked Interrupted. Safe from any goroutine; idempotent.
func (s *TopKStream) Stop() { s.exec.Stop() }

// Wait blocks until every declared producer has closed and every streamed
// job has executed — or until a Stop/Deadline drain finishes — then
// returns the merged execution order and its rank-error summary.
func (s *TopKStream) Wait() StreamResult {
	st := s.exec.Wait()
	exec := make([]int64, s.wl.next.Load())
	for i := range s.wl.logs {
		for _, chunk := range s.wl.logs[i].chunks {
			for _, rec := range chunk {
				exec[rec.pos] = rec.priority
			}
		}
	}
	mean, maxErr := rankErrors(exec)
	res := StreamResult{
		Jobs:               st.Executed,
		Popped:             st.Popped,
		Interrupted:        st.Interrupted,
		ExecutedPriorities: exec,
		MeanRankError:      mean,
		MaxRankError:       maxErr,
	}
	if s.wl.lats != nil {
		// Workers have exited (engine Wait returned), so the per-worker
		// histograms are quiescent; merge and extract the SLO quantiles.
		var h stats.Hist
		for i := range s.wl.lats {
			h.Merge(&s.wl.lats[i].h)
		}
		res.LatencyP50 = time.Duration(h.Quantile(0.50))
		res.LatencyP99 = time.Duration(h.Quantile(0.99))
		res.LatencyP999 = time.Duration(h.Quantile(0.999))
	}
	return res
}

// JobProducer streams prioritized jobs into a TopKStream from one
// goroutine. Push after Close panics; Close is idempotent.
type JobProducer struct {
	p  *engine.Producer
	wl *topkWorkload
}

// Push streams one job. Lower priorities are executed first (approximately).
// When the job id is latency-tracked (StreamOptions.LatencyJobs) the
// arrival is timestamped here, before the push — sojourn time includes any
// producer-side batching delay, which is part of the latency a client sees.
func (p *JobProducer) Push(job, priority int64) {
	if p.wl.arrivals != nil && job >= 0 && job < int64(len(p.wl.arrivals)) {
		at := int64(time.Since(p.wl.base))
		if at == 0 {
			at = 1 // 0 means "never pushed" to the reader; 1ns skew is noise
		}
		p.wl.arrivals[job].Store(at)
	}
	p.p.Push(job, priority)
}

// Flush makes any batched-but-buffered jobs visible to the workers without
// closing the producer.
func (p *JobProducer) Flush() { p.p.Flush() }

// Close marks this arrival stream finished; once all producers close and
// the queue drains, Wait returns.
func (p *JobProducer) Close() { p.p.Close() }

// rankErrors computes the displacement of an executed priority sequence
// from its sorted order: idx[ideal] is the execution position of the job
// that should have run ideal-th (ties broken by execution order, which is
// the kindest consistent assignment), and each job contributes
// |ideal - idx[ideal]|.
func rankErrors(exec []int64) (mean float64, max int64) {
	n := len(exec)
	if n == 0 {
		return 0, 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return exec[idx[a]] < exec[idx[b]] })
	var sum int64
	for ideal, pos := range idx {
		d := int64(ideal) - int64(pos)
		if d < 0 {
			d = -d
		}
		sum += d
		if d > max {
			max = d
		}
	}
	return float64(sum) / float64(n), max
}

// TopKRunOptions configure ParallelTopK, the self-driving streaming
// benchmark: StreamOptions.Producers arrival goroutines each emit
// JobsPerProducer jobs at Rate jobs per second.
type TopKRunOptions struct {
	// StreamOptions configure the underlying stream. Execute must be nil —
	// the harness owns it for exactly-once verification.
	StreamOptions
	// JobsPerProducer is the number of jobs each producer emits (>= 1).
	JobsPerProducer int
	// Rate is each producer's arrival rate in jobs per second; 0 streams
	// unthrottled. Rate-limited producers follow an absolute schedule
	// (job i of a producer is released at start + i/Rate), so pacing does
	// not drift with sleep overshoot.
	Rate int
}

// ParallelTopK runs the streaming top-k job scheduler end to end: producer
// goroutines emit jobs with uniformly random distinct priorities at the
// configured arrival rate, workers execute them in relaxed priority order,
// and the result reports the rank error of the executed order against the
// true priority order. Every job is verified to execute exactly once; a
// lost or duplicated job is an error, not a statistic.
func ParallelTopK(opts TopKRunOptions) (StreamResult, error) {
	if opts.Execute != nil {
		return StreamResult{}, fmt.Errorf("sched: ParallelTopK owns Execute; found non-nil")
	}
	if opts.JobsPerProducer < 1 {
		return StreamResult{}, fmt.Errorf("sched: need JobsPerProducer >= 1, got %d", opts.JobsPerProducer)
	}
	if opts.Rate < 0 {
		return StreamResult{}, fmt.Errorf("sched: need Rate >= 0, got %d", opts.Rate)
	}
	// NewTopKStream re-checks this, but the hits array is sized from it
	// first — reject here so bad options error instead of panicking.
	if opts.Producers < 1 {
		return StreamResult{}, fmt.Errorf("sched: streaming needs Producers >= 1, got %d", opts.Producers)
	}
	total := opts.Producers * opts.JobsPerProducer
	hits := make([]atomic.Int32, total)
	so := opts.StreamOptions
	so.Execute = func(_ int, job, _ int64) { hits[job].Add(1) }
	// Job ids are dense in [0, total), so every job is latency-tracked and
	// the result's SLO quantiles cover the whole run.
	so.LatencyJobs = total
	s, err := NewTopKStream(so)
	if err != nil {
		return StreamResult{}, err
	}
	// Distinct priorities via a random permutation of [0, total): the
	// priority value doubles as the job's position in the true priority
	// order, so the rank-error accounting is exact.
	priorities := rng.New(rng.Mix64(opts.Seed) ^ 0x73747265616d).Perm(total)
	var interval time.Duration
	if opts.Rate > 0 {
		interval = time.Second / time.Duration(opts.Rate)
	}
	for p := 0; p < opts.Producers; p++ {
		go func(p int, prod *JobProducer) {
			defer prod.Close()
			start := time.Now()
			base := p * opts.JobsPerProducer
			for i := 0; i < opts.JobsPerProducer; i++ {
				if interval > 0 {
					if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
						time.Sleep(d)
					}
				}
				job := base + i
				prod.Push(int64(job), int64(priorities[job]))
			}
		}(p, s.NewProducer())
	}
	res := s.Wait()
	if res.Interrupted {
		// A Deadline drain relaxes exactly-once to at-most-once: the jobs
		// that did run must still be unique, but the tail may be unserved.
		for job := range hits {
			if got := hits[job].Load(); got > 1 {
				return res, fmt.Errorf("sched: job %d executed %d times", job, got)
			}
		}
		return res, nil
	}
	if res.Jobs != int64(total) {
		return res, fmt.Errorf("sched: executed %d of %d streamed jobs", res.Jobs, total)
	}
	for job := range hits {
		if got := hits[job].Load(); got != 1 {
			return res, fmt.Errorf("sched: job %d executed %d times", job, got)
		}
	}
	return res, nil
}
