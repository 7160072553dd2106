package txn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"relaxsched/internal/rng"
)

// TestZipfChiSquared draws a large sample from the key generator at each
// benchmark skew and runs a chi-squared goodness-of-fit test against the
// analytic Zipf masses. Keys in the tail are pooled into one bin once the
// expected count per key drops below 5 (the standard applicability rule).
// The generator is deterministic, so this is a fixed computation with a
// generous quantile bound, not a flaky statistical test.
func TestZipfChiSquared(t *testing.T) {
	const keys, draws = 512, 200000
	for _, skew := range []float64{0.6, 0.99, 1.2} {
		g, err := NewGen(WorkloadSpec{
			Txns: draws, Keys: keys, Skew: skew, OpsPerTxn: 1, ReadFrac: 0.5,
			Seed: uint64(math.Float64bits(skew)),
		})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, keys)
		var buf [MaxOps]Op
		for id := 0; id < draws; id++ {
			ops := g.Ops(int64(id), buf[:])
			counts[ops[0].Key]++
		}
		// Expected per-key mass from the same cumulative table the
		// generator samples; the test checks the sampler (Float64 + binary
		// search) against its own target distribution.
		expect := make([]float64, keys)
		prev := 0.0
		for i := 0; i < keys; i++ {
			expect[i] = (g.cum[i] - prev) * draws
			prev = g.cum[i]
		}
		var chi2 float64
		df := -1 // bins - 1
		var poolObs int64
		var poolExp float64
		for i := 0; i < keys; i++ {
			if expect[i] >= 5 {
				d := float64(counts[i]) - expect[i]
				chi2 += d * d / expect[i]
				df++
				continue
			}
			poolObs += counts[i]
			poolExp += expect[i]
		}
		if poolExp > 0 {
			d := float64(poolObs) - poolExp
			chi2 += d * d / poolExp
			df++
		}
		if df < 10 {
			t.Fatalf("skew %v: only %d degrees of freedom, binning broken", skew, df+1)
		}
		// Far-tail bound: chi-squared mean is df, variance 2·df; df + 6
		// standard deviations is far beyond the 99.9th percentile for the
		// df here, so a failure means a generator bug, not bad luck.
		limit := float64(df) + 6*math.Sqrt(2*float64(df))
		if chi2 > limit {
			t.Errorf("skew %v: chi2 = %.1f over %d df exceeds %.1f — key distribution is off", skew, chi2, df, limit)
		}
	}
}

// TestGenDeterministicAndDistinctKeys checks the random-access contract
// (same id, same ops) and the per-transaction distinct-key invariant under
// heavy skew, where redraw collisions are the common case.
func TestGenDeterministicAndDistinctKeys(t *testing.T) {
	g, err := NewGen(WorkloadSpec{Txns: 5000, Keys: 32, Skew: 1.2, OpsPerTxn: 8, ReadFrac: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var a, b [MaxOps]Op
	for id := int64(0); id < 5000; id++ {
		ops := g.Ops(id, a[:])
		again := g.Ops(id, b[:])
		if len(ops) != 8 || len(again) != 8 {
			t.Fatalf("txn %d: got %d/%d ops, want 8", id, len(ops), len(again))
		}
		seen := map[int32]bool{}
		for i, op := range ops {
			if op != again[i] {
				t.Fatalf("txn %d: op %d not deterministic: %+v vs %+v", id, i, op, again[i])
			}
			if seen[op.Key] {
				t.Fatalf("txn %d: duplicate key %d", id, op.Key)
			}
			seen[op.Key] = true
			if op.Key < 0 || op.Key >= 32 {
				t.Fatalf("txn %d: key %d out of range", id, op.Key)
			}
		}
	}
}

func TestWorkloadSpecValidate(t *testing.T) {
	good := WorkloadSpec{Txns: 10, Keys: 10, Skew: 0.5, OpsPerTxn: 2, ReadFrac: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []WorkloadSpec{
		{Txns: 0, Keys: 10, OpsPerTxn: 1},
		{Txns: 1, Keys: 0, OpsPerTxn: 1},
		{Txns: 1, Keys: 10, OpsPerTxn: 0},
		{Txns: 1, Keys: 10, OpsPerTxn: MaxOps + 1},
		{Txns: 1, Keys: 2, OpsPerTxn: 3},
		{Txns: 1, Keys: 10, OpsPerTxn: 1, ReadFrac: 1.5},
		{Txns: 1, Keys: 10, OpsPerTxn: 1, Skew: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, s)
		}
	}
}

// TestSimulateSpecOracle runs the model over generated conflict DAGs: all
// transactions must commit, and raising the skew (more conflicts through
// the hot keys) must not lower the model's abort count at fixed scheduler
// parameters.
func TestSimulateSpecOracle(t *testing.T) {
	cfg := Config{K: 8, Workers: 4, MaxDuration: 3, Seed: 7}
	prev := int64(-1)
	for _, skew := range []float64{0, 0.99} {
		spec := WorkloadSpec{Txns: 2000, Keys: 64, Skew: skew, OpsPerTxn: 4, ReadFrac: 0.5, Seed: 11}
		res, err := SimulateSpec(spec, cfg)
		if err != nil {
			t.Fatalf("skew %v: %v", skew, err)
		}
		if res.Commits != 2000 {
			t.Fatalf("skew %v: commits = %d", skew, res.Commits)
		}
		if res.Starts != res.Commits+res.Aborts {
			t.Fatalf("skew %v: starts identity broken: %+v", skew, res.Counts)
		}
		if prev >= 0 && res.Aborts < prev {
			t.Errorf("skew %v: aborts %d fell below uniform's %d — conflict DAG is not denser under skew", skew, res.Aborts, prev)
		}
		prev = res.Aborts
	}
}

// TestConflictDAGEdges spot-checks the conflict rule on a hand-built
// two-key stream via a tiny spec: with one key and all writes, the DAG is
// a chain (each txn depends on the previous writer).
func TestConflictDAGEdges(t *testing.T) {
	dag, err := ConflictDAG(WorkloadSpec{Txns: 50, Keys: 1, Skew: 0, OpsPerTxn: 1, ReadFrac: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < 50; j++ {
		if len(dag.Preds[j]) != 1 || int(dag.Preds[j][0]) != j-1 {
			t.Fatalf("txn %d preds = %v, want [%d]", j, dag.Preds[j], j-1)
		}
	}
}

// TestGuideTableMatchesBinarySearch pins the guide table to the search it
// replaced: keyOf must return the key sort.SearchFloat64s returns over the
// whole cumulative table for every draw — random ones, and every table
// entry with the floats on either side of it, where an off-by-one in the
// guide or an inexact u·G would show first.
func TestGuideTableMatchesBinarySearch(t *testing.T) {
	for _, skew := range []float64{0, 0.5, 0.99, 1.5, 3} {
		// 5000 keys is not a power of two, so the guide has more slots
		// than keys; 4096 is one, so it has exactly as many.
		for _, keys := range []int{1, 5000, 4096} {
			g, err := NewGen(WorkloadSpec{Txns: 1, Keys: keys, Skew: skew, OpsPerTxn: 1, ReadFrac: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := g.keyOf(u), int32(sort.SearchFloat64s(g.cum, u)); got != want {
					t.Fatalf("skew %v, %d keys: keyOf(%v) = %d, binary search gives %d", skew, keys, u, got, want)
				}
			}
			r := rng.New(uint64(keys) ^ math.Float64bits(skew))
			for i := 0; i < 500000; i++ {
				check(r.Float64())
			}
			check(0)
			for _, c := range g.cum {
				check(math.Nextafter(c, 0))
				check(c)
				check(math.Nextafter(c, 2))
			}
		}
	}
}

// TestGenStreamGolden pins the transaction stream itself: the hashes were
// computed before the guide table and the flat descriptor arena existed, so
// a change to Gen that alters what txn-zipf executes — by one key of one
// transaction — fails here. The first spec is the benchmark's shape; the
// second draws 16 distinct keys out of 64 at a heavy skew, where most draws
// collide and the linear-probe fallback runs.
func TestGenStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		spec WorkloadSpec
		want string
	}{
		{WorkloadSpec{Txns: 200000, Keys: 150000, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0.5, Seed: 1},
			"e5779b536b452664055e372ae21ed6efe20e36360f4906d4be54724bc5b034c8"},
		{WorkloadSpec{Txns: 20000, Keys: 64, Skew: 1.5, OpsPerTxn: 16, ReadFrac: 0.3, Seed: 20190622},
			"20639bbabc5914f2e1c8c86c982ab362cbe1bed39bf189e02c9dc23b6c26a0da"},
	} {
		g, err := NewGen(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [MaxOps]Op
		var w [16]byte
		for id := 0; id < tc.spec.Txns; id++ {
			for _, op := range g.Ops(int64(id), buf[:]) {
				binary.LittleEndian.PutUint32(w[0:], uint32(op.Key))
				w[4] = byte(op.Kind)
				binary.LittleEndian.PutUint64(w[8:], uint64(op.Arg))
				h.Write(w[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%+v: stream hash %s, want %s", tc.spec, got, tc.want)
		}
	}
}
