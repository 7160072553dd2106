package engine

import (
	"sync/atomic"
	"time"
)

// The stall watchdog is the engine's answer to a wedged worker or a
// starved backend: a monitor goroutine samples the global progress tally
// (tasks produced + tasks completed, the same monotone counters the
// termination protocol scans), and when it does not move for
// Options.StallTimeout the watchdog captures a diagnostic snapshot —
// per-worker state and tallies, queue-empty observations, an inflight scan
// — and either hands it to Options.OnStall or aborts the run with the
// report attached to the Result. Re-insertion churn (blocked tasks cycling
// through the queue) deliberately does not count as progress: a run where
// every pop comes back Blocked is exactly the livelock the watchdog exists
// to diagnose. Conversely, flat progress with zero live tasks is not a
// stall at all — it is an idle service whose workers are parked waiting
// for arrivals — so a stall additionally requires live unfinished work.
// Workers normally publish completions every 64 pops; with the watchdog
// armed they publish on every pop, so a run of slow tasks that completes
// one at a time still moves the tally with each one.

// WorkerPhase is a worker's last published state, sampled by the watchdog.
type WorkerPhase int32

const (
	// PhaseRunning: the worker popped a task since it last went idle.
	PhaseRunning WorkerPhase = iota
	// PhaseIdle: the worker is in empty-queue backoff.
	PhaseIdle
	// PhaseExited: the worker's loop has returned.
	PhaseExited
	// PhaseParked: the worker is parked on the idle lot, consuming nothing
	// until a wake. Parked is the healthy idle state, not a stall: the
	// watchdog only reports when live tasks exist that nobody is finishing.
	PhaseParked
)

// String names the phase for reports.
func (p WorkerPhase) String() string {
	switch p {
	case PhaseRunning:
		return "running"
	case PhaseIdle:
		return "idle"
	case PhaseExited:
		return "exited"
	case PhaseParked:
		return "parked"
	default:
		return "unknown"
	}
}

// WorkerSnapshot is one worker's state in a stall report.
type WorkerSnapshot struct {
	Worker int
	Phase  WorkerPhase
	// Popped..Failed mirror Stats for this worker alone, as of the worker's
	// last publication. Workers publish after every pop while the watchdog
	// is armed, so a snapshot lags by at most the pop in progress.
	Popped, Executed, Discarded, Reinserted, Failed int64
	// EmptyPops counts pops that found the queue apparently empty — a
	// worker with a huge EmptyPops share while tasks are live points at a
	// starved or wedged backend rather than a livelocked workload.
	EmptyPops int64
}

// StallReport is the diagnostic snapshot the watchdog captures when global
// progress stops.
type StallReport struct {
	// NoProgressFor is how long the progress tally had been flat when the
	// snapshot was taken (at least Options.StallTimeout).
	NoProgressFor time.Duration
	// Produced and Completed are the global monotone tallies at capture;
	// Live is their difference — tasks produced but never completed, the
	// work the run is stuck on.
	Produced, Completed, Live int64
	// OpenProducers counts declared external producers not yet closed; a
	// stall with open producers and zero live tasks is a producer that
	// went silent without closing.
	OpenProducers int64
	// QueueLen is a racy scan of the queue's stored-pair count. Live pairs
	// missing from the queue are held in worker buffers or mid-flight.
	QueueLen int
	// ParkedWorkers counts workers parked on the idle lot at capture.
	// Parked workers with Live > 0 and QueueLen == 0 point at work held by
	// a wedged peer or a batching producer that went quiet without Flush —
	// the parked ones have nothing visible to pop and are healthy.
	ParkedWorkers int
	// Workers snapshots every worker's phase and published tallies. Each
	// count is monotone, so every per-worker sum is at most the final Stats.
	Workers []WorkerSnapshot
}

// workerState is one worker's shared stat block: written only by its
// worker, which stores its running totals here when it publishes (every 64
// pops, or every pop with the watchdog armed, and before every termination
// scan, so last before it exits), and read by the watchdog and by Wait's
// final accumulation. A reader sees the counts as of the last publication,
// at most 63 pops behind. Padded so neighbouring workers never false-share.
type workerState struct {
	_          [64]byte
	popped     atomic.Int64
	executed   atomic.Int64
	discarded  atomic.Int64
	reinserted atomic.Int64
	failed     atomic.Int64
	emptyPops  atomic.Int64
	phase      atomic.Int32
	_          [76]byte // pad the 52-byte payload to two 64-byte lines
}

// snapshot reads one worker's published state. Racy by design — the
// watchdog wants a cheap consistent-enough view, not a barrier.
func (ws *workerState) snapshot(w int) WorkerSnapshot {
	return WorkerSnapshot{
		Worker:     w,
		Phase:      WorkerPhase(ws.phase.Load()),
		Popped:     ws.popped.Load(),
		Executed:   ws.executed.Load(),
		Discarded:  ws.discarded.Load(),
		Reinserted: ws.reinserted.Load(),
		Failed:     ws.failed.Load(),
		EmptyPops:  ws.emptyPops.Load(),
	}
}

// stallReport captures the full diagnostic snapshot.
func (e *Execution) stallReport(flatFor time.Duration) *StallReport {
	rep := &StallReport{
		NoProgressFor: flatFor,
		Live:          e.counters.Live(),
		OpenProducers: e.counters.Open(),
		QueueLen:      e.mq.Len(),
		ParkedWorkers: e.lot.Parked(),
	}
	rep.Produced, rep.Completed = e.counters.Tallies()
	rep.Workers = make([]WorkerSnapshot, len(e.workers))
	for w := range e.workers {
		rep.Workers[w] = e.workers[w].snapshot(w)
	}
	return rep
}

// watchdog is the monitor loop, launched by Start when Options.StallTimeout
// is set. It samples progress at a fraction of the timeout, and on a flat
// stretch of at least StallTimeout captures a report: with OnStall set the
// report is delivered (repeatedly, once per further flat stretch) and the
// run continues — the callback owns the policy and may call Stop; without
// OnStall the watchdog aborts the run itself. The loop exits when the
// workers do (donec) or after an abort.
func (e *Execution) watchdog(timeout time.Duration, onStall func(*StallReport)) {
	interval := timeout / 8
	if interval < 100*time.Microsecond {
		interval = 100 * time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := e.counters.Progress()
	flatSince := time.Now()
	for {
		select {
		case <-e.donec:
			return
		case <-ticker.C:
		}
		cur := e.counters.Progress()
		if cur != last {
			last, flatSince = cur, time.Now()
			continue
		}
		// Flat progress alone is not a stall: an idle open system — all
		// arrivals served, producers quiet, workers parked — is flat and
		// healthy, and must not trip the watchdog (parked != stalled). A
		// stall requires live unfinished work going nowhere. Live here is
		// exact, not racy: any concurrent produce or complete would have
		// moved Progress, contradicting the flat stretch that got us here.
		// (A closed-or-closing system with Live == 0 is quiescent and about
		// to terminate on its own — also not a stall.)
		if e.counters.Live() == 0 {
			continue
		}
		if flat := time.Since(flatSince); flat >= timeout {
			rep := e.stallReport(flat)
			e.stall.Store(rep)
			if onStall == nil {
				e.Stop()
				return
			}
			onStall(rep)
			// Re-arm: another full flat timeout before the next report.
			flatSince = time.Now()
		}
	}
}
