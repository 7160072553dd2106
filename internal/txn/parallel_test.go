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
// every registered backend, batched and unbatched, at a contended skew and
// on a hot pair of records that nearly every transaction writes.
func TestParallelRunAllBackends(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec WorkloadSpec
	}{
		{"zipf", WorkloadSpec{Txns: 4000, Keys: 128, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0.5, Seed: 9}},
		{"hot", WorkloadSpec{Txns: 4000, Keys: 2, Skew: 0.99, OpsPerTxn: 2, ReadFrac: 0.1, Seed: 11}},
	} {
		name, spec := tc.name, tc.spec
		for _, backend := range cq.Backends() {
			for _, batch := range []int{0, 16} {
				res, err := ParallelRun(spec, ParallelOptions{ExecOptions: execOpts(backend, 4, batch, 21)})
				if err != nil {
					t.Fatalf("%s/%s/batch%d: %v", name, backend, batch, err)
				}
				if res.Commits != int64(spec.Txns) {
					t.Fatalf("%s/%s/batch%d: commits = %d, want %d", name, backend, batch, res.Commits, spec.Txns)
				}
				if res.Starts != res.Commits+res.Aborts {
					t.Fatalf("%s/%s/batch%d: starts identity broken: %+v", name, backend, batch, res.Counts)
				}
			}
		}
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
	if _, err := ParallelRun(WorkloadSpec{}, ParallelOptions{ExecOptions: execOpts(cq.MultiQueueBackend, 2, 0, 1)}); err == nil {
		t.Error("invalid spec accepted")
	}
}
