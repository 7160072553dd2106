package txn

import (
	"fmt"
	"math"

	"relaxsched/internal/core"
	"relaxsched/internal/rng"
)

// MaxOps is the per-transaction operation cap. Keeping it small lets the
// executor carry an attempt's observations and lock order in fixed inline
// arrays (no per-attempt allocation on the OCC hot path) and bounds a
// commit-log record at MaxOps + 2 words.
const MaxOps = 16

// WorkloadSpec describes a transactional workload: the key space, the
// access skew and the operation mix. It is shared by the model-level
// simulator (SimulateSpec builds the conflict DAG and runs Simulate as the
// oracle) and the real executor (ParallelRun), so both sides of a
// model-vs-measured comparison draw the exact same transaction stream.
type WorkloadSpec struct {
	// Txns is the number of transactions (labels 0..Txns-1; the label is
	// the priority, so lower labels are scheduled first).
	Txns int
	// Keys is the key-space size; records are dense int32 keys [0, Keys).
	Keys int
	// Skew is the Zipf exponent s of the key-popularity distribution:
	// P(key i) ∝ 1/(i+1)^s. 0 is uniform; ~0.99 is the classic hot-key
	// benchmark setting; higher concentrates almost all traffic on a few
	// records (the regime phase splitting exists for).
	Skew float64
	// OpsPerTxn is the number of operations per transaction, all on
	// distinct keys (1..MaxOps, and at most Keys).
	OpsPerTxn int
	// ReadFrac is the probability an operation is a read; the rest are
	// commutative writes (increment-heavy, with occasional max and
	// set-union writes, the Doppel-style splittable mix).
	ReadFrac float64
	// Seed makes the stream deterministic. Transaction i's operations are
	// a pure function of (Seed, i), so producers, the executor and the
	// certification replay can all regenerate them independently.
	Seed uint64
}

// Validate reports the first invalid field.
func (s WorkloadSpec) Validate() error {
	switch {
	case s.Txns < 1:
		return fmt.Errorf("txn: WorkloadSpec.Txns = %d, want >= 1", s.Txns)
	case s.Keys < 1:
		return fmt.Errorf("txn: WorkloadSpec.Keys = %d, want >= 1", s.Keys)
	case s.OpsPerTxn < 1 || s.OpsPerTxn > MaxOps:
		return fmt.Errorf("txn: WorkloadSpec.OpsPerTxn = %d, want 1..%d", s.OpsPerTxn, MaxOps)
	case s.OpsPerTxn > s.Keys:
		return fmt.Errorf("txn: OpsPerTxn %d exceeds key space %d", s.OpsPerTxn, s.Keys)
	case s.ReadFrac < 0 || s.ReadFrac > 1:
		return fmt.Errorf("txn: WorkloadSpec.ReadFrac = %v, want [0, 1]", s.ReadFrac)
	case s.Skew < 0:
		return fmt.Errorf("txn: WorkloadSpec.Skew = %v, want >= 0", s.Skew)
	}
	return nil
}

// OpKind is a transaction operation's type. All write kinds are commutative
// read-modify-writes, which is what makes hot records splittable into
// per-worker delta cells (Doppel's phased reconciliation).
type OpKind uint8

const (
	// OpRead observes the record's value (logged for certification).
	OpRead OpKind = iota
	// OpAdd increments the record by Arg.
	OpAdd
	// OpMax raises the record to max(value, Arg).
	OpMax
	// OpUnion ors Arg's bits into the record — the bounded-set analogue
	// (membership bitmap union).
	OpUnion
)

// Op is one operation of a transaction.
type Op struct {
	Key  int32
	Kind OpKind
	Arg  int64
}

// apply returns the record value after op runs against v.
func (op Op) apply(v int64) int64 {
	switch op.Kind {
	case OpAdd:
		return v + op.Arg
	case OpMax:
		if op.Arg > v {
			return op.Arg
		}
		return v
	case OpUnion:
		return v | op.Arg
	default:
		return v
	}
}

// Gen generates the deterministic transaction stream of a WorkloadSpec.
// Key draws invert a cumulative-mass table over the Zipf distribution: a
// guide table narrows each draw to a few candidates and a binary search
// picks among them. Each transaction derives its own rng stream from the
// spec seed and its label, so generation is random-access.
type Gen struct {
	spec WorkloadSpec
	cum  []float64 // cum[i] = P(key <= i), cum[Keys-1] = 1
	// guide[j] is the first i with cum[i] >= j/G, for j = 0..G, where
	// G = len(guide)-1 is a power of two — so u*G and j/G are exact and
	// the key of a draw u lies in [guide[⌊u·G⌋], guide[⌊u·G⌋+1]].
	guide []int32
}

// NewGen validates the spec and builds the key-distribution table.
func NewGen(spec WorkloadSpec) (*Gen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cum := make([]float64, spec.Keys)
	var total float64
	for i := range cum {
		total += zipfMass(i, spec.Skew)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1
	cells := 1
	for cells < spec.Keys {
		cells <<= 1
	}
	guide := make([]int32, cells+1)
	i := int32(0)
	for j := range guide {
		for cum[i] < float64(j)/float64(cells) {
			i++
		}
		guide[j] = i
	}
	return &Gen{spec: spec, cum: cum, guide: guide}, nil
}

func zipfMass(i int, s float64) float64 {
	return 1 / math.Pow(float64(i+1), s)
}

// Spec returns the generating spec.
func (g *Gen) Spec() WorkloadSpec { return g.spec }

// keyOf returns the first index with cum[i] >= u, for u in [0, 1) — the
// key sort.SearchFloat64s(g.cum, u) returns, found between two guide
// entries instead of over the whole table.
func (g *Gen) keyOf(u float64) int32 {
	j := int(u * float64(len(g.guide)-1))
	lo, hi := g.guide[j], g.guide[j+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if g.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Ops writes transaction id's operations into buf (cap >= OpsPerTxn, or
// they land in a fresh array) and returns them: always exactly OpsPerTxn.
// Keys within a transaction are distinct, so a transaction has at most one
// operation per record.
func (g *Gen) Ops(id int64, buf []Op) []Op {
	r := rng.New(g.spec.Seed ^ rng.Mix64(uint64(id)+0x74786e))
	n := g.spec.OpsPerTxn
	buf = buf[:0]
draw:
	for len(buf) < n {
		k := g.keyOf(r.Float64())
		for _, prev := range buf {
			if prev.Key == k {
				// Redraw on collision; with heavy skew the hot keys
				// collide often, so fall back to a linear probe after a
				// bounded number of redraws to guarantee termination.
				if r.Uint32()&1023 == 0 {
					k = g.probe(k, buf)
					break
				}
				continue draw
			}
		}
		op := Op{Key: k}
		if r.Float64() >= g.spec.ReadFrac {
			// Increment-heavy commutative write mix: mostly OpAdd with a
			// tail of max and union writes.
			switch r.Intn(10) {
			case 8:
				op.Kind = OpMax
				op.Arg = int64(r.Intn(1 << 20))
			case 9:
				op.Kind = OpUnion
				op.Arg = 1 << (r.Uint64() % 63)
			default:
				op.Kind = OpAdd
				op.Arg = int64(1 + r.Intn(100))
			}
		} else {
			op.Kind = OpRead
		}
		buf = append(buf, op)
	}
	return buf
}

// probe finds the first key at or after k not already in buf (wrapping).
func (g *Gen) probe(k int32, buf []Op) int32 {
	keys := int32(g.spec.Keys)
	for {
		k = (k + 1) % keys
		taken := false
		for _, prev := range buf {
			if prev.Key == k {
				taken = true
				break
			}
		}
		if !taken {
			return k
		}
	}
}

// ConflictDAG builds the transaction conflict graph of the spec's stream:
// transaction j depends on the most recent earlier transaction it conflicts
// with on each key (write-write, read-write or write-read on a shared key).
// Running Simulate over this DAG is the paper's model-level prediction for
// the workload — the oracle the measured OCC abort rates are compared to.
func ConflictDAG(spec WorkloadSpec) (*core.DAG, error) {
	g, err := NewGen(spec)
	if err != nil {
		return nil, err
	}
	dag := core.NewDAG(spec.Txns)
	lastWriter := make([]int32, spec.Keys)
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	readersSince := make([][]int32, spec.Keys)
	// depStamp dedupes predecessor edges per transaction: conflicts on two
	// different keys with the same predecessor yield one edge.
	depStamp := make([]int32, spec.Txns)
	for i := range depStamp {
		depStamp[i] = -1
	}
	var buf [MaxOps]Op
	for id := 0; id < spec.Txns; id++ {
		dep := func(pred int32) {
			if depStamp[pred] != int32(id) {
				depStamp[pred] = int32(id)
				dag.AddDep(int(pred), id)
			}
		}
		for _, op := range g.Ops(int64(id), buf[:]) {
			k := op.Key
			if op.Kind == OpRead {
				if lastWriter[k] >= 0 {
					dep(lastWriter[k])
				}
				readersSince[k] = append(readersSince[k], int32(id))
				continue
			}
			if lastWriter[k] >= 0 {
				dep(lastWriter[k])
			}
			for _, rd := range readersSince[k] {
				dep(rd)
			}
			lastWriter[k] = int32(id)
			readersSince[k] = readersSince[k][:0]
		}
	}
	return dag, nil
}

// SimulateSpec runs the sequential transactional model (Simulate) over the
// spec's conflict DAG: the model-level oracle for a workload the parallel
// executor runs for real. Result.AbortRatio has the same semantics on both
// sides — aborted execution attempts per commit.
func SimulateSpec(spec WorkloadSpec, cfg Config) (Result, error) {
	dag, err := ConflictDAG(spec)
	if err != nil {
		return Result{}, err
	}
	return Simulate(dag, cfg)
}
