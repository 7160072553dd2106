package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
)

func TestRankErrors(t *testing.T) {
	cases := []struct {
		name string
		exec []int64
		mean float64
		max  int64
	}{
		{"empty", nil, 0, 0},
		{"sorted", []int64{0, 1, 2, 3}, 0, 0},
		{"swapped pairs", []int64{1, 0, 3, 2}, 1, 1},
		{"reversed", []int64{3, 2, 1, 0}, 2, 3},
		{"ties cost nothing", []int64{5, 5, 5}, 0, 0},
		{"one straggler", []int64{1, 2, 3, 0}, 1.5, 3},
	}
	for _, c := range cases {
		mean, max := rankErrors(c.exec)
		if mean != c.mean || max != c.max {
			t.Errorf("%s: rankErrors = (%v, %d), want (%v, %d)", c.name, mean, max, c.mean, c.max)
		}
	}
}

func TestParallelTopKExecutesEveryJobOnce(t *testing.T) {
	for _, backend := range cq.Backends() {
		for _, batch := range []int{0, 16} {
			res, err := ParallelTopK(TopKRunOptions{
				StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, Backend: backend, BatchSize: batch, Seed: 31}, Producers: 3},
				JobsPerProducer: 400,
			})
			if err != nil {
				t.Fatalf("%s/batch%d: %v", backend, batch, err)
			}
			total := int64(3 * 400)
			if res.Jobs != total || res.Popped != total {
				t.Fatalf("%s/batch%d: jobs %d popped %d, want %d", backend, batch, res.Jobs, res.Popped, total)
			}
			// The executed priorities must be a permutation of [0, total).
			seen := make([]bool, total)
			for _, p := range res.ExecutedPriorities {
				if p < 0 || p >= total || seen[p] {
					t.Fatalf("%s/batch%d: executed priorities are not a permutation (saw %d)", backend, batch, p)
				}
				seen[p] = true
			}
			if res.MeanRankError < 0 || float64(res.MaxRankError) < res.MeanRankError || res.MaxRankError >= total {
				t.Fatalf("%s/batch%d: implausible rank error %v/%d", backend, batch, res.MeanRankError, res.MaxRankError)
			}
		}
	}
}

// One worker over one exact internal queue, with the producer buffering the
// whole stream until Close: every job is visible before the first pop, so
// the executed order must be exactly the priority order — rank error zero.
// This pins the metric to the closed-world ground truth.
func TestParallelTopKExactBaseline(t *testing.T) {
	const jobs = 600
	res, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1, Backend: cq.MultiQueueBackend, BatchSize: jobs + 8, Seed: 5}, Producers: 1},
		JobsPerProducer: jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanRankError != 0 || res.MaxRankError != 0 {
		t.Fatalf("exact single-queue drain has rank error %v/%d", res.MeanRankError, res.MaxRankError)
	}
}

func TestParallelTopKRateLimited(t *testing.T) {
	const jobs, rate = 120, 20000
	startedAt := time.Now()
	res, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Seed: 9}, Producers: 2},
		JobsPerProducer: jobs,
		Rate:            rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2*jobs {
		t.Fatalf("jobs = %d, want %d", res.Jobs, 2*jobs)
	}
	// Each producer's last job is released no earlier than (jobs-1)/rate
	// seconds after its start; allow generous slack below that floor.
	if floor := time.Duration(jobs-1) * time.Second / rate; time.Since(startedAt) < floor/2 {
		t.Fatalf("rate-limited stream finished in %v, impossibly under the %v pacing floor", time.Since(startedAt), floor)
	}
}

func TestStreamOptionValidation(t *testing.T) {
	if _, err := NewTopKStream(StreamOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}}); err == nil {
		t.Fatal("zero producers accepted")
	}
	if _, err := NewTopKStream(StreamOptions{ExecOptions: engine.ExecOptions{Threads: 0, QueueMultiplier: 1}, Producers: 1}); err == nil {
		t.Fatal("zero threads accepted")
	}
	// Negative counts must come back as errors, not makeslice panics from
	// the allocations the options size.
	if _, err := NewTopKStream(StreamOptions{ExecOptions: engine.ExecOptions{Threads: -1, QueueMultiplier: 1}, Producers: 1}); err == nil {
		t.Fatal("negative threads accepted")
	}
	if _, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}, Producers: -2},
		JobsPerProducer: 1,
	}); err == nil {
		t.Fatal("negative producer count accepted")
	}
	if _, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}, Producers: 1},
		JobsPerProducer: 0,
	}); err == nil {
		t.Fatal("zero jobs per producer accepted")
	}
	if _, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}, Producers: 1},
		JobsPerProducer: 1,
		Rate:            -1,
	}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}, Producers: 1, Execute: func(int, int64, int64) {}},
		JobsPerProducer: 1,
	}); err == nil {
		t.Fatal("caller-supplied Execute accepted by ParallelTopK")
	}
}

// The stream facade proper: a caller-held producer handle feeding a live
// executor with its own Execute body.
func TestTopKStreamManualProducer(t *testing.T) {
	const jobs = 300
	got := make([]atomic.Int32, jobs)
	s, err := NewTopKStream(StreamOptions{ExecOptions: engine.ExecOptions{Threads: 3, QueueMultiplier: 2, Seed: 2}, Producers: 1, Execute: func(_ int, job, _ int64) { got[job].Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewProducer()
	for i := 0; i < jobs; i++ {
		p.Push(int64(i), int64(jobs-i)) // reversed priorities
	}
	p.Close()
	res := s.Wait()
	if res.Jobs != jobs {
		t.Fatalf("jobs = %d, want %d", res.Jobs, jobs)
	}
	for i := range got {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("job %d executed %d times", i, n)
		}
	}
}

// TestTopKStreamStop: stopping a live stream mid-arrival must drain
// gracefully — the producer's remaining pushes are absorbed without
// panicking, Wait returns the jobs served so far marked Interrupted, and
// nothing executes twice.
func TestTopKStreamStop(t *testing.T) {
	const jobs = 50000
	got := make([]atomic.Int32, jobs)
	s, err := NewTopKStream(StreamOptions{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Seed: 3}, Producers: 1, Execute: func(_ int, job, _ int64) {
		time.Sleep(20 * time.Microsecond)
		got[job].Add(1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewProducer()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		for i := 0; i < jobs; i++ {
			p.Push(int64(i), int64(i))
		}
		p.Close()
	}()
	time.Sleep(2 * time.Millisecond)
	s.Stop()
	res := s.Wait()
	<-closed
	if !res.Interrupted {
		t.Fatalf("mid-stream Stop not marked Interrupted (%d jobs served)", res.Jobs)
	}
	if res.Jobs >= jobs {
		t.Fatalf("all %d jobs served despite the Stop; shorten the fuse", jobs)
	}
	var served int64
	for i := range got {
		switch n := got[i].Load(); n {
		case 0:
		case 1:
			served++
		default:
			t.Fatalf("job %d executed %d times", i, n)
		}
	}
	if served != res.Jobs {
		t.Fatalf("%d jobs ran but result says %d", served, res.Jobs)
	}
}

// Latency SLO quantiles: every tracked job has a positive sojourn time
// (the 0-means-untracked sentinel never leaks through as a zero latency)
// and the quantiles are ordered p50 <= p99 <= p999.
func TestParallelTopKLatencyQuantiles(t *testing.T) {
	res, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Seed: 41}, Producers: 2},
		JobsPerProducer: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyP50 <= 0 || res.LatencyP99 <= 0 || res.LatencyP999 <= 0 {
		t.Fatalf("latency quantiles not populated: p50=%v p99=%v p999=%v",
			res.LatencyP50, res.LatencyP99, res.LatencyP999)
	}
	if res.LatencyP50 > res.LatencyP99 || res.LatencyP99 > res.LatencyP999 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v",
			res.LatencyP50, res.LatencyP99, res.LatencyP999)
	}
}

// More producers than workers: worker indices range over Threads alone, so
// the per-worker logs and latency histograms sized by Threads hold every
// record (an undersized slice panics the run).
func TestTopKStreamMoreProducersThanWorkers(t *testing.T) {
	res, err := ParallelTopK(TopKRunOptions{
		StreamOptions:   StreamOptions{ExecOptions: engine.ExecOptions{Threads: 2, QueueMultiplier: 2, Seed: 43}, Producers: 4},
		JobsPerProducer: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 8000 {
		t.Fatalf("executed %d of 8000 jobs", res.Jobs)
	}
	if res.LatencyP50 <= 0 {
		t.Fatalf("latency tracking dead with 4 producers on 2 workers: p50=%v", res.LatencyP50)
	}
}
