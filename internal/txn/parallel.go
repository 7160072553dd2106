package txn

import (
	"fmt"
	"sync/atomic"

	"relaxsched/internal/engine"
)

// This file is the real transactional executor: the sequential model's
// workload run for keeps over the relaxed-execution engine. Transactions
// are the engine's tasks (value = label = priority), TryExecute is one OCC
// attempt, and a validation failure reports Blocked so the engine's
// re-insertion loop — bounded by ExecOptions.MaxBlockedRetries — is the
// retry policy, exactly the role the relaxed scheduler plays in the
// paper's Section 4 model.
//
// The concurrency protocol, in one place:
//
//  1. Read phase: observe (value, version word) per operation. A word
//     found locked is re-read up to lockedWait times first: the attempt
//     holds nothing yet, so the wait cannot deadlock, and the holder is
//     straight-line code away from releasing. A record still locked after
//     the wait, or a read whose word moved under it, aborts the attempt.
//  2. Lock the write set in key order. The lock CAS is anchored to the
//     observed word, so locking *is* write validation.
//  3. Claim the commit ticket. Because every lock is held across the
//     ticket claim and the install, and every read is re-validated after
//     the claim, ticket order is a valid serial order — the certification
//     replay below checks exactly that.
//  4. Validate reads (word unchanged).
//  5. Install writes and release locks with a version bump; log the
//     commit to the worker's commit log as the words ticket, label, then
//     the observed value of each OpRead in operation order.
//
// A conflict is never resolved inside the attempt: it aborts, and the
// engine re-inserts the transaction — the paper's Section 4 rule, whose
// abort count Theorem 4.3 bounds.

// observation is the validation anchor for one operation of one attempt.
type observation struct {
	word uint64
	val  int64
}

// lockedWait is how many times the read phase re-reads a locked word
// before it aborts the attempt — about a microsecond of loads, which is
// about what the abort itself costs (flush the batch, re-insert, re-pop,
// re-run), while a lock is held for a few hundred nanoseconds of
// straight-line code. It is the smallest value on the plateau of the sweep
// in README "Measuring" (aborts per commit fall threefold up to here and
// not at all beyond), and small on purpose: the bound is what an attempt
// pays per operation when the holder was descheduled, and what keeps Stop
// and the deadline prompt.
const lockedWait = 2048

// logRecHeader is the fixed head of a commit record: ticket, label.
const logRecHeader = 2

// logChunkWords is the capacity of one chunk of a commit log.
const logChunkWords = 8192

// workerLog is one worker's commit log: a list of fixed-capacity chunks of
// words, so a logged record is never copied again. A record is ticket,
// label, then one word per OpRead of the transaction in operation order —
// enough to replay the run in ticket order and re-check every read — and
// never straddles a chunk. Padded so append bookkeeping never shares a
// cache line across workers.
type workerLog struct {
	chunks     [][]int64
	recs       int64
	chunkWords int
	_          [24]byte
}

// open returns the chunk the next record goes to: the last one while it
// has room for words more, else a fresh one.
func (l *workerLog) open(words int) *[]int64 {
	last := len(l.chunks) - 1
	if last < 0 || cap(l.chunks[last])-len(l.chunks[last]) < words {
		l.chunks = append(l.chunks, make([]int64, 0, l.chunkWords))
		last++
	}
	return &l.chunks[last]
}

// padCounter is a cache-line-isolated atomic counter.
type padCounter struct {
	n atomic.Int64
	_ [56]byte
}

// Workload is the transactional engine workload: a sharded versioned KV
// store plus the deterministic transaction stream of a WorkloadSpec. It
// implements engine.Workload; run it through ParallelRun, or directly via
// engine.Run/engine.Start (the conformance and chaos suites do) and call
// Certify afterwards.
type Workload struct {
	gen *Gen
	st  *store
	// ops is every transaction's operations in one arena: transaction id
	// owns ops[id*stride : (id+1)*stride], stride = OpsPerTxn.
	ops    []Op
	stride int
	seeded bool

	logs []workerLog

	ticket padCounter
}

// NewWorkload pregenerates the spec's transaction stream and builds the
// store. workers must cover every engine worker index that will run the
// workload (the engine pool size); seeded selects the closed-world mode
// where Frontier emits every transaction up front — with seeded false the
// stream arrives through engine Producer handles instead.
func NewWorkload(spec WorkloadSpec, workers int, seeded bool) (*Workload, error) {
	g, err := NewGen(spec)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("txn: workers = %d, want >= 1", workers)
	}
	w := &Workload{
		gen:    g,
		st:     newStore(spec.Keys),
		ops:    make([]Op, spec.Txns*spec.OpsPerTxn),
		stride: spec.OpsPerTxn,
		seeded: seeded,
		logs:   make([]workerLog, workers),
	}
	for i := range w.logs {
		w.logs[i].chunkWords = logChunkWords
	}
	for id := 0; id < spec.Txns; id++ {
		lo, hi := id*w.stride, (id+1)*w.stride
		// Capacity is exactly the slot, so Ops fills it in place.
		g.Ops(int64(id), w.ops[lo:lo:hi])
	}
	return w, nil
}

// opsOf returns transaction id's operations.
func (w *Workload) opsOf(id int64) []Op {
	lo := int(id) * w.stride
	return w.ops[lo : lo+w.stride]
}

// reads counts transaction id's OpReads: the words its commit record
// carries after the header.
func (w *Workload) reads(id int64) int {
	n := 0
	for _, op := range w.opsOf(id) {
		if op.Kind == OpRead {
			n++
		}
	}
	return n
}

// Frontier seeds the closed world: every transaction at priority = label.
func (w *Workload) Frontier(emit func(value, priority int64)) {
	if !w.seeded {
		return
	}
	for id := 0; id < w.gen.spec.Txns; id++ {
		emit(int64(id), int64(id))
	}
}

// TryExecute runs one OCC attempt of transaction value. Executed means
// committed; Blocked means the attempt aborted on a conflict and the engine
// should retry it.
func (w *Workload) TryExecute(ctx *engine.Ctx, value, _ int64) engine.Status {
	ops := w.opsOf(value)
	n := len(ops)
	var ob [MaxOps]observation

	// 1: observe.
	for i := 0; i < n; i++ {
		r := w.st.rec(ops[i].Key)
		word := r.word.Load()
		for spin := 0; word&1 != 0 && spin < lockedWait; spin++ {
			word = r.word.Load()
		}
		if word&1 != 0 {
			return engine.Blocked
		}
		ob[i].word = word
		if ops[i].Kind == OpRead {
			ob[i].val = r.val.Load()
			if r.word.Load() != word {
				return engine.Blocked
			}
		}
	}

	// 2: lock writes in key order.
	var order [MaxOps]int8
	nw := 0
	for i := 0; i < n; i++ {
		if ops[i].Kind != OpRead {
			order[nw] = int8(i)
			nw++
		}
	}
	for a := 1; a < nw; a++ {
		for b := a; b > 0 && ops[order[b]].Key < ops[order[b-1]].Key; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	for li := 0; li < nw; li++ {
		i := order[li]
		if !w.st.rec(ops[i].Key).lock(ob[i].word) {
			w.unlockPrefix(ops, &ob, order[:li])
			return engine.Blocked
		}
	}

	// 3: ticket. Claimed after the locks and before validation, so the
	// lock spans of conflicting committers always order their tickets.
	ticket := w.ticket.n.Add(1) - 1

	// 4: validate reads.
	for i := 0; i < n; i++ {
		if ops[i].Kind == OpRead && w.st.rec(ops[i].Key).word.Load() != ob[i].word {
			w.unlockPrefix(ops, &ob, order[:nw])
			return engine.Blocked
		}
	}

	// 5: install writes, release locks, log the commit.
	for li := 0; li < nw; li++ {
		i := order[li]
		op := ops[i]
		r := w.st.rec(op.Key)
		r.val.Store(op.apply(r.val.Load()))
		r.unlockBump(ob[i].word)
	}
	lg := &w.logs[ctx.Worker]
	rec := lg.open(logRecHeader + n)
	*rec = append(*rec, ticket, value)
	for i := 0; i < n; i++ {
		if ops[i].Kind == OpRead {
			*rec = append(*rec, ob[i].val)
		}
	}
	lg.recs++
	return engine.Executed
}

// unlockPrefix releases already-claimed write locks on the abort path,
// restoring the pre-lock words (no version bump: nothing was installed).
func (w *Workload) unlockPrefix(ops []Op, ob *[MaxOps]observation, prefix []int8) {
	for _, i := range prefix {
		w.st.rec(ops[i].Key).unlockRestore(ob[i].word)
	}
}

// Certify replays the commit log in ticket order against a fresh store and
// fails on the first thing that is not a serial execution of the stream: a
// malformed log (a record naming a transaction or a ticket that does not
// exist, two records with one ticket, a record count that differs from the
// workers' own), a logged read that disagrees with the replay, a
// transaction committed twice, or a final store state that diverges from
// the replayed one. Call it only after the run has quiesced.
func (w *Workload) Certify() error {
	// Tickets are unique and below the ticket counter, so one pass places
	// every record at its ticket and the run is ordered without a sort:
	// at[t] is the chunk and the offset + 1 of ticket t's record, 0 where
	// the attempt that claimed t failed validation afterwards.
	var chunks [][]int64
	for i := range w.logs {
		chunks = append(chunks, w.logs[i].chunks...)
	}
	txns, tickets := int64(w.gen.spec.Txns), w.ticket.n.Load()
	at := make([]uint64, tickets)
	var recs int64
	for ci, c := range chunks {
		for off := 0; off < len(c); {
			if len(c)-off < logRecHeader {
				return fmt.Errorf("txn: commit log ends inside a record header")
			}
			ticket, id := c[off], c[off+1]
			if id < 0 || id >= txns {
				return fmt.Errorf("txn: commit log names transaction %d of a stream of %d", id, txns)
			}
			if ticket < 0 || ticket >= tickets {
				return fmt.Errorf("txn: commit log names ticket %d, only %d were claimed", ticket, tickets)
			}
			if at[ticket] != 0 {
				return fmt.Errorf("txn: ticket %d logged twice (second time by transaction %d)", ticket, id)
			}
			at[ticket] = uint64(ci)<<32 | uint64(off+1)
			off += logRecHeader + w.reads(id)
			if off > len(c) {
				return fmt.Errorf("txn: commit log ends inside the reads of transaction %d", id)
			}
			recs++
		}
	}
	if recs != w.Commits() {
		return fmt.Errorf("txn: commit log holds %d records, workers counted %d commits", recs, w.Commits())
	}

	seen := make([]bool, txns)
	replay := make([]int64, w.gen.spec.Keys)
	for ticket, loc := range at {
		if loc == 0 {
			continue
		}
		rec := chunks[loc>>32][uint32(loc)-1:]
		id, reads := rec[1], rec[logRecHeader:]
		if seen[id] {
			return fmt.Errorf("txn: transaction %d committed twice", id)
		}
		seen[id] = true
		for _, op := range w.opsOf(id) {
			if op.Kind == OpRead {
				if replay[op.Key] != reads[0] {
					return fmt.Errorf("txn: serializability violation: txn %d (ticket %d) observed key %d = %d, ticket-order replay gives %d",
						id, ticket, op.Key, reads[0], replay[op.Key])
				}
				reads = reads[1:]
				continue
			}
			replay[op.Key] = op.apply(replay[op.Key])
		}
	}
	final := w.st.snapshot()
	for k := range final {
		if final[k] != replay[k] {
			return fmt.Errorf("txn: final state diverges from ticket-order replay at key %d: store %d, replay %d",
				k, final[k], replay[k])
		}
	}
	return nil
}

// Commits reports the committed-transaction count (records logged).
func (w *Workload) Commits() int64 {
	var n int64
	for i := range w.logs {
		n += w.logs[i].recs
	}
	return n
}

// ParallelOptions configure ParallelRun.
type ParallelOptions struct {
	// ExecOptions are the shared engine knobs: queue backend and
	// relaxation multiplier, worker count, batching, seeding, deadline and
	// the Blocked-retry cap (which here bounds OCC retries per
	// transaction; 0 retries forever).
	engine.ExecOptions
	// Producers, when positive, streams the transactions in through that
	// many engine Producer handles (round-robin by label, paced only by
	// the queue) — the open-system arrival mode. 0 seeds the whole batch
	// through the frontier instead (closed world).
	Producers int
}

// ParallelResult is a finished parallel transactional run.
type ParallelResult struct {
	// Counts carries Commits/Aborts/Starts with the same semantics as the
	// sequential model's Result: Aborts counts failed OCC attempts
	// (engine re-insertions), Starts every attempt.
	Counts
	// Promotions, Reconciles and SplitDeposits always read 0. They remain
	// only because the benchmark module still reads them; the change that
	// drops them from the benchmark removes them.
	Promotions    int64
	Reconciles    int64
	SplitDeposits int64
	// Quarantined counts transactions the engine gave up on (poisoned, or
	// over the MaxBlockedRetries cap); Interrupted reports a deadline or
	// Stop cut the run short. Certification still covers whatever
	// committed.
	Quarantined int64
	Interrupted bool
}

// ParallelRun executes the spec's transaction stream for real — OCC over
// the relaxed engine, a conflicting attempt aborting and being
// re-inserted — and then certifies serializability by replaying the
// commit log in ticket order. A certification failure is returned as an
// error: a run that cannot prove its own serial order did not succeed.
func ParallelRun(spec WorkloadSpec, opts ParallelOptions) (ParallelResult, error) {
	if opts.Threads < 1 {
		return ParallelResult{}, fmt.Errorf("txn: Threads = %d, want >= 1", opts.Threads)
	}
	if opts.Producers < 0 {
		return ParallelResult{}, fmt.Errorf("txn: Producers = %d, want >= 0", opts.Producers)
	}
	wl, err := NewWorkload(spec, opts.Threads, opts.Producers == 0)
	if err != nil {
		return ParallelResult{}, err
	}

	var st engine.Result
	if opts.Producers == 0 {
		st, err = engine.Run(wl, engine.Options{ExecOptions: opts.ExecOptions})
	} else {
		var exec *engine.Execution
		exec, err = engine.Start(wl, engine.Options{ExecOptions: opts.ExecOptions, Producers: opts.Producers})
		if err == nil {
			for p := 0; p < opts.Producers; p++ {
				go func(prod *engine.Producer, lo int) {
					for id := lo; id < spec.Txns; id += opts.Producers {
						prod.Push(int64(id), int64(id))
					}
					prod.Close()
				}(exec.NewProducer(), p)
			}
			st = exec.Wait()
		}
	}
	if err != nil {
		return ParallelResult{}, fmt.Errorf("txn: %w", err)
	}

	res := ParallelResult{
		Counts: Counts{
			Commits: st.Executed,
			Aborts:  st.Reinserted,
			Starts:  st.Executed + st.Reinserted,
		},
		Quarantined: st.Failed,
		Interrupted: st.Interrupted,
	}
	if err := wl.Certify(); err != nil {
		return res, err
	}
	if !st.Interrupted && st.Failed == 0 && st.Executed != int64(spec.Txns) {
		return res, fmt.Errorf("txn: committed %d of %d transactions", st.Executed, spec.Txns)
	}
	return res, nil
}
