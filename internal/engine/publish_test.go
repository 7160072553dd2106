package engine_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/engine"
)

// These tests pin the publication protocol: a worker keeps its pop counts
// and completions in a private tally and publishes them every 64 pops,
// before every termination scan and when its loop exits.

// flatNoop seeds n independent no-op tasks.
type flatNoop struct{ n int }

func (w flatNoop) Frontier(emit func(value, priority int64)) {
	for i := 0; i < w.n; i++ {
		emit(int64(i), int64(i))
	}
}

func (flatNoop) TryExecute(*engine.Ctx, int64, int64) engine.Status { return engine.Executed }

// TestPublishBeforeQuiescent runs 100 tasks on 4 workers, so no worker
// reaches its 64th pop twice and every worker ends holding completions it
// has not published on the pop count. Only the publish in front of each
// termination scan makes them visible: without it every worker parks with
// the in-flight counter out of balance, and the run ends only when the
// deadline stops it. So each run must end by quiescence, with the deadline
// never having fired.
func TestPublishBeforeQuiescent(t *testing.T) {
	const n, runs = 100, 200
	for _, batch := range []int{1, 16} {
		for run := 0; run < runs; run++ {
			e, err := engine.Start(flatNoop{n}, engine.Options{ExecOptions: engine.ExecOptions{
				Threads: 4, QueueMultiplier: 2, BatchSize: batch, Seed: uint64(run + 1),
				Deadline: 10 * time.Second,
			}})
			if err != nil {
				t.Fatal(err)
			}
			st := e.Wait()
			if e.Stopped() || st.Interrupted {
				t.Fatalf("batch %d run %d: the deadline ended the run (Interrupted %v): completions held back from the termination scan",
					batch, run, st.Interrupted)
			}
			if st.Popped != n || st.Executed != n {
				t.Fatalf("batch %d run %d: popped %d, executed %d, want %d", batch, run, st.Popped, st.Executed, n)
			}
		}
	}
}

// mixedWorkload never ends on its own: width chains, each task spawning its
// successor, with every outcome represented. Every fifth attempt is Blocked
// (and spawns nothing); of the rest, values divisible by 97 panic after
// spawning, odd multiples of 3 are Discarded, the others Executed. It
// counts what it returned, so the engine's Stats can be checked against it
// exactly.
type mixedWorkload struct {
	width                                        int
	attempts                                     atomic.Int64
	executed, discarded, blocked, panicked, seen atomic.Int64
}

func (w *mixedWorkload) Frontier(emit func(value, priority int64)) {
	for i := 0; i < w.width; i++ {
		emit(int64(i), 0)
	}
}

func (w *mixedWorkload) TryExecute(ctx *engine.Ctx, value, priority int64) engine.Status {
	w.seen.Add(1)
	if w.attempts.Add(1)%5 == 0 {
		w.blocked.Add(1)
		return engine.Blocked
	}
	ctx.Spawn(value+int64(w.width), priority+1)
	switch {
	case value%97 == 0:
		w.panicked.Add(1)
		panic("mixedWorkload: poison")
	case value%3 == 0 && value%2 == 1:
		w.discarded.Add(1)
		return engine.Discarded
	}
	w.executed.Add(1)
	return engine.Executed
}

// TestStopKeepsStatsIdentity stops a run that cannot finish, at a point
// where workers hold unpublished tallies, and checks that the final Stats
// account for every attempt exactly, outcome by outcome: a worker publishes
// on its way out of the drain, so nothing it counted is lost.
func TestStopKeepsStatsIdentity(t *testing.T) {
	for _, batch := range []int{1, 16} {
		w := &mixedWorkload{width: 32}
		e, err := engine.Start(w, engine.Options{ExecOptions: engine.ExecOptions{
			Threads: 4, QueueMultiplier: 2, BatchSize: batch, Seed: 5,
		}})
		if err != nil {
			t.Fatal(err)
		}
		// Stop by count, not by time: 1000 attempts is well past the first
		// publications, whatever the scheduler did meanwhile.
		for w.seen.Load() < 1000 {
			time.Sleep(100 * time.Microsecond)
		}
		e.Stop()
		st := e.Wait()
		if !st.Interrupted {
			t.Fatalf("batch %d: Stop of a perpetual run not marked Interrupted", batch)
		}
		if st.Popped != st.Executed+st.Discarded+st.Reinserted+st.Failed {
			t.Fatalf("batch %d: stats do not sum: %+v", batch, st.Stats)
		}
		if int64(len(st.Failures)) != st.Failed {
			t.Fatalf("batch %d: Failed = %d but len(Failures) = %d", batch, st.Failed, len(st.Failures))
		}
		want := engine.Stats{
			Popped:     w.seen.Load(),
			Executed:   w.executed.Load(),
			Discarded:  w.discarded.Load(),
			Reinserted: w.blocked.Load(),
			Failed:     w.panicked.Load(),
		}
		if st.Stats != want {
			t.Fatalf("batch %d: Stats %+v, but the workload saw %+v", batch, st.Stats, want)
		}
	}
}

// stuckAfter executes n flat tasks, then blocks forever on task n.
type stuckAfter struct{ n int }

func (w stuckAfter) Frontier(emit func(value, priority int64)) {
	for i := 0; i <= w.n; i++ {
		emit(int64(i), int64(i))
	}
}

func (w stuckAfter) TryExecute(_ *engine.Ctx, value, _ int64) engine.Status {
	if value == int64(w.n) {
		return engine.Blocked
	}
	return engine.Executed
}

// TestStallReportWithinStats collects stall reports from a run wedged on
// one task after real work, then stops it: each report's per-worker counts
// are published tallies, monotone, so their sums never exceed the final
// Stats.
func TestStallReportWithinStats(t *testing.T) {
	for _, batch := range []int{1, 16} {
		var (
			mu      sync.Mutex
			reports []*engine.StallReport
		)
		got := make(chan struct{}, 1)
		e, err := engine.Start(stuckAfter{n: 2000}, engine.Options{ExecOptions: engine.ExecOptions{
			Threads: 4, QueueMultiplier: 2, BatchSize: batch, Seed: 9,
			StallTimeout: 20 * time.Millisecond,
			OnStall: func(rep *engine.StallReport) {
				mu.Lock()
				reports = append(reports, rep)
				mu.Unlock()
				select {
				case got <- struct{}{}:
				default:
				}
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(30 * time.Second):
			t.Fatalf("batch %d: no stall report from a wedged run", batch)
		}
		e.Stop()
		st := e.Wait()
		mu.Lock()
		defer mu.Unlock()
		for i, rep := range reports {
			var sum engine.Stats
			for _, ws := range rep.Workers {
				sum.Popped += ws.Popped
				sum.Executed += ws.Executed
				sum.Discarded += ws.Discarded
				sum.Reinserted += ws.Reinserted
				sum.Failed += ws.Failed
			}
			if sum.Popped > st.Popped || sum.Executed > st.Executed || sum.Discarded > st.Discarded ||
				sum.Reinserted > st.Reinserted || sum.Failed > st.Failed {
				t.Fatalf("batch %d: report %d sums to %+v, above the final %+v", batch, i, sum, st.Stats)
			}
		}
	}
}
