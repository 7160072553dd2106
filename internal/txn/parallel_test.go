package txn

import (
	"testing"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
)

func execOpts(backend cq.Backend, threads, batch int, seed uint64) engine.ExecOptions {
	return engine.ExecOptions{
		Threads:         threads,
		QueueMultiplier: 2,
		Backend:         backend,
		BatchSize:       batch,
		Seed:            seed,
	}
}

// TestParallelRunAllBackends commits the full stream and certifies it on
// every registered backend, batched and unbatched, at a contended skew.
func TestParallelRunAllBackends(t *testing.T) {
	spec := WorkloadSpec{Txns: 4000, Keys: 128, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0.5, Seed: 9}
	for _, backend := range cq.Backends() {
		for _, batch := range []int{0, 16} {
			res, err := ParallelRun(spec, ParallelOptions{ExecOptions: execOpts(backend, 4, batch, 21)})
			if err != nil {
				t.Fatalf("%s/batch%d: %v", backend, batch, err)
			}
			if res.Commits != int64(spec.Txns) {
				t.Fatalf("%s/batch%d: commits = %d, want %d", backend, batch, res.Commits, spec.Txns)
			}
			if res.Starts != res.Commits+res.Aborts {
				t.Fatalf("%s/batch%d: starts identity broken: %+v", backend, batch, res.Counts)
			}
		}
	}
}

// TestParallelRunProducers streams the transactions through engine
// producers (the open-system arrival mode) instead of the frontier.
func TestParallelRunProducers(t *testing.T) {
	spec := WorkloadSpec{Txns: 3000, Keys: 64, Skew: 0.99, OpsPerTxn: 3, ReadFrac: 0.4, Seed: 5}
	res, err := ParallelRun(spec, ParallelOptions{
		ExecOptions: execOpts(cq.MultiQueueBackend, 4, 8, 33),
		Producers:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != int64(spec.Txns) {
		t.Fatalf("commits = %d, want %d", res.Commits, spec.Txns)
	}
}

// TestSplitPathCertifies forces a hot record into split mode up front and
// runs an all-write stream over it: the commutative deltas must take the
// split path (deposits observed) and the ticket-order replay must still
// certify — the phase-fence reconciliation cannot lose or reorder deltas
// in any observable way.
func TestSplitPathCertifies(t *testing.T) {
	spec := WorkloadSpec{Txns: 6000, Keys: 16, Skew: 1.2, OpsPerTxn: 2, ReadFrac: 0, Seed: 17}
	wl, err := NewWorkload(spec, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if !wl.st.rec(0).tryPromote(OpAdd, 4) {
		t.Fatal("could not promote the hot record")
	}
	st, err := engine.Run(wl, engine.Options{ExecOptions: execOpts(cq.MultiQueueBackend, 4, 0, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Certify(); err != nil {
		t.Fatal(err)
	}
	if wl.deposits.n.Load() == 0 {
		t.Error("no split deposits despite a promoted hot record under an all-write stream")
	}
	if st.Executed != int64(spec.Txns) {
		t.Fatalf("executed %d of %d", st.Executed, spec.Txns)
	}
}

// TestContentionPromotes drives the detector through its own seams, so no
// assertion depends on how attempts interleave. The hot record's
// contention integrator is charged to the threshold (as a burst of
// conflicts would); then, from this goroutine alone, the first transaction
// that writes the record must flip it to split mode (that attempt reports
// Blocked), and the same transaction's retry must deposit its delta on the
// split path. The rest of the stream then runs on the engine: the split
// record must be fenced, mid-run or by the end-of-run sweep, every
// transaction must commit exactly once, and the run must certify. (Organic
// conflicts can't be relied on in a unit test — on a single-core runner
// the OCC windows essentially never overlap.)
func TestContentionPromotes(t *testing.T) {
	spec := WorkloadSpec{Txns: 20000, Keys: 4, Skew: 1.2, OpsPerTxn: 1, ReadFrac: 0, Seed: 29}
	wl, err := NewWorkload(spec, 4, false) // the stream arrives through a producer
	if err != nil {
		t.Fatal(err)
	}
	hot := int64(-1)
	for id := int64(0); id < int64(spec.Txns); id++ {
		if op := wl.opsOf(id)[0]; op.Key == 0 && op.Kind != OpRead {
			hot = id
			break
		}
	}
	if hot < 0 {
		t.Fatal("no transaction writes record 0")
	}
	kind := wl.opsOf(hot)[0].Kind
	r := wl.st.rec(0)
	for i := 0; i < promoteHeat/heatConflict; i++ {
		r.conflictHeat()
	}
	ctx := &engine.Ctx{Worker: 0}
	if st := wl.TryExecute(ctx, hot, hot); st != engine.Blocked {
		t.Fatalf("the promoting attempt reported %v, want Blocked", st)
	}
	if got := wl.promotions.n.Load(); got != 1 || r.mode.Load() != modeSplit || OpKind(r.splitKind.Load()) != kind {
		t.Fatalf("a write of kind %d on a record at threshold heat left promotions %d, mode %d, split kind %d",
			kind, got, r.mode.Load(), r.splitKind.Load())
	}
	if st := wl.TryExecute(ctx, hot, hot); st != engine.Executed {
		t.Fatalf("the retry on the split record reported %v, want Executed", st)
	}
	if got := wl.deposits.n.Load(); got != 1 {
		t.Fatalf("split deposits = %d after the retry, want 1", got)
	}

	e, err := engine.Start(wl, engine.Options{ExecOptions: execOpts(cq.MultiQueueBackend, 4, 0, 3), Producers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := e.NewProducer()
	for id := int64(0); id < int64(spec.Txns); id++ {
		if id != hot {
			p.Push(id, id)
		}
	}
	p.Close()
	st := e.Wait()
	if err := wl.Certify(); err != nil {
		t.Fatal(err)
	}
	if st.Interrupted || st.Executed != int64(spec.Txns)-1 || wl.Commits() != int64(spec.Txns) {
		t.Fatalf("engine executed %d of the other %d, %d commits logged in all (interrupted %v)",
			st.Executed, spec.Txns-1, wl.Commits(), st.Interrupted)
	}
	if wl.reconciles.n.Load() == 0 {
		t.Error("split record never fenced — the end-of-run sweep is broken")
	}
	if mode := r.mode.Load(); mode != modeMerged {
		t.Errorf("hot record left in mode %d after certification", mode)
	}
}

// TestPressureForcesFence promotes a record, then runs a read-bearing
// stream: blocked readers must drive the pressure counter to the fence
// threshold and reconcile the record inline — mid-run, not just at the
// end-of-run sweep — and everything must still certify.
func TestPressureForcesFence(t *testing.T) {
	spec := WorkloadSpec{Txns: 10000, Keys: 4, Skew: 1.2, OpsPerTxn: 1, ReadFrac: 0.5, Seed: 31}
	wl, err := NewWorkload(spec, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if !wl.st.rec(0).tryPromote(OpAdd, 4) {
		t.Fatal("could not promote the hot record")
	}
	if _, err := engine.Run(wl, engine.Options{ExecOptions: execOpts(cq.MultiQueueBackend, 4, 0, 13)}); err != nil {
		t.Fatal(err)
	}
	// Snapshot the fence count before Certify runs the end-of-run sweep:
	// the mid-run, reader-driven fences are what this test is about.
	midRun := wl.reconciles.n.Load()
	if err := wl.Certify(); err != nil {
		t.Fatal(err)
	}
	if midRun == 0 {
		t.Error("readers never forced a phase fence: every read of the split record would have blocked to the end of the run")
	}
}

// TestQuarantineAccounting caps OCC retries low under heavy contention:
// whatever the engine gives up on must be counted, the rest must commit,
// and the commit log must still certify.
func TestQuarantineAccounting(t *testing.T) {
	spec := WorkloadSpec{Txns: 5000, Keys: 4, Skew: 1.2, OpsPerTxn: 2, ReadFrac: 0.5, Seed: 41}
	opts := ParallelOptions{ExecOptions: execOpts(cq.MultiQueueBackend, 4, 0, 19)}
	opts.MaxBlockedRetries = 1
	res, err := ParallelRun(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits+res.Quarantined != int64(spec.Txns) {
		t.Fatalf("commits %d + quarantined %d != %d", res.Commits, res.Quarantined, spec.Txns)
	}
}

// TestExactBackendBaseline runs the strict-order control arm: the exact
// backend must produce a correct, certified run too (it is the k = 1
// scheduler, not a special case).
func TestExactBackendBaseline(t *testing.T) {
	spec := WorkloadSpec{Txns: 3000, Keys: 64, Skew: 1.2, OpsPerTxn: 3, ReadFrac: 0.3, Seed: 55}
	res, err := ParallelRun(spec, ParallelOptions{ExecOptions: execOpts(cq.ExactBackend, 4, 0, 61)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != int64(spec.Txns) {
		t.Fatalf("commits = %d, want %d", res.Commits, spec.Txns)
	}
}

// TestParallelRunValidation covers the option guards.
func TestParallelRunValidation(t *testing.T) {
	spec := WorkloadSpec{Txns: 10, Keys: 10, OpsPerTxn: 1, ReadFrac: 0.5}
	if _, err := ParallelRun(spec, ParallelOptions{}); err == nil {
		t.Error("Threads = 0 accepted")
	}
	bad := ParallelOptions{ExecOptions: execOpts(cq.MultiQueueBackend, 2, 0, 1)}
	bad.Producers = -1
	if _, err := ParallelRun(spec, bad); err == nil {
		t.Error("negative Producers accepted")
	}
	if _, err := ParallelRun(WorkloadSpec{}, ParallelOptions{ExecOptions: execOpts(cq.MultiQueueBackend, 2, 0, 1)}); err == nil {
		t.Error("invalid spec accepted")
	}
}
