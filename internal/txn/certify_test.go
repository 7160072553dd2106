package txn

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
)

// certifiedRun commits spec's whole stream on four workers and certifies
// it, so whatever a test then breaks in the log is the only thing wrong
// with it. chunkWords > 0 shrinks the commit-log chunks.
func certifiedRun(t testing.TB, spec WorkloadSpec, chunkWords int) *Workload {
	t.Helper()
	wl, err := NewWorkload(spec, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if chunkWords > 0 {
		for i := range wl.logs {
			wl.logs[i].chunkWords = chunkWords
		}
	}
	st, err := engine.Run(wl, engine.Options{ExecOptions: execOpts(cq.MultiQueueBackend, 4, 16, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != int64(spec.Txns) {
		t.Fatalf("executed %d of %d", st.Executed, spec.Txns)
	}
	if err := wl.Certify(); err != nil {
		t.Fatalf("untampered run: %v", err)
	}
	return wl
}

// logRec is one record of a commit log, as a window onto its chunk: word 0
// is the ticket, word 1 the label, the rest the logged reads.
type logRec struct {
	log   *workerLog
	chunk int
	off   int
	words []int64
}

// logRecords walks the logs the way Certify frames them.
func logRecords(wl *Workload) []logRec {
	var out []logRec
	for i := range wl.logs {
		l := &wl.logs[i]
		for ci, c := range l.chunks {
			for off := 0; off < len(c); {
				n := logRecHeader + wl.reads(c[off+1])
				out = append(out, logRec{log: l, chunk: ci, off: off, words: c[off : off+n]})
				off += n
			}
		}
	}
	return out
}

// drop cuts the record out of its chunk.
func (r logRec) drop() {
	c := r.log.chunks[r.chunk]
	r.log.chunks[r.chunk] = append(c[:r.off], c[r.off+len(r.words):]...)
}

// TestCertifyRejects is the other half of "certified serializable": after
// a run that certifies, break one thing in the commit log and Certify must
// name it. A Certify that cannot fail certifies nothing.
func TestCertifyRejects(t *testing.T) {
	mixed := WorkloadSpec{Txns: 3000, Keys: 64, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0.5, Seed: 3}
	// All writes: a record carries no reads, so replaying the wrong
	// transaction is caught by the checks after the read-by-read one.
	writes := WorkloadSpec{Txns: 3000, Keys: 64, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0, Seed: 3}
	for _, tc := range []struct {
		name   string
		spec   WorkloadSpec
		tamper func(wl *Workload, recs []logRec)
		want   string
	}{
		{"read changed", mixed, func(_ *Workload, recs []logRec) {
			for _, r := range recs {
				if len(r.words) > logRecHeader {
					r.words[logRecHeader]++
					return
				}
			}
		}, "serializability violation"},
		{"id replaced", writes, func(_ *Workload, recs []logRec) {
			recs[0].words[1] = recs[len(recs)-1].words[1]
		}, "committed twice"},
		{"record dropped", writes, func(_ *Workload, recs []logRec) {
			recs[len(recs)/2].drop()
		}, "workers counted"},
		{"record and its count dropped", writes, func(wl *Workload, recs []logRec) {
			// One with an increment (Arg >= 1) on a key that nothing after
			// it in ticket order writes except more increments. Those
			// commute, so the replay without it ends exactly Arg short on
			// that key. A later max or union could hide the loss, so which
			// record to drop must not depend on the order the workers
			// logged in: walk the tickets down, marking the keys such
			// writes touch.
			sort.Slice(recs, func(i, j int) bool { return recs[i].words[0] > recs[j].words[0] })
			masked := make(map[int32]bool)
			for _, r := range recs {
				ops := wl.opsOf(r.words[1])
				for _, op := range ops {
					if op.Kind == OpAdd && !masked[op.Key] {
						r.drop()
						r.log.recs--
						return
					}
				}
				for _, op := range ops {
					if op.Kind != OpAdd {
						masked[op.Key] = true
					}
				}
			}
		}, "final state diverges"},
		{"one ticket twice", mixed, func(_ *Workload, recs []logRec) {
			recs[0].words[0] = recs[len(recs)-1].words[0]
		}, "logged twice"},
		{"ticket past the counter", mixed, func(wl *Workload, recs []logRec) {
			recs[7].words[0] = wl.ticket.n.Load()
		}, "names ticket"},
		{"negative ticket", mixed, func(_ *Workload, recs []logRec) {
			recs[7].words[0] = -1
		}, "names ticket"},
		{"id past the stream", mixed, func(wl *Workload, recs []logRec) {
			recs[7].words[1] = int64(wl.gen.spec.Txns)
		}, "names transaction"},
		{"negative id", mixed, func(_ *Workload, recs []logRec) {
			recs[7].words[1] = -1
		}, "names transaction"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := certifiedRun(t, tc.spec, 0)
			tc.tamper(wl, logRecords(wl))
			err := wl.Certify()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Certify() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCommitLogChunks runs with chunks barely larger than a record, so
// nearly every record meets a chunk boundary: the log must still certify,
// hold exactly one record per commit, and never have grown a chunk past
// its capacity (a grown chunk is a copied one).
func TestCommitLogChunks(t *testing.T) {
	spec := WorkloadSpec{Txns: 3000, Keys: 64, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0.5, Seed: 13}
	longest := logRecHeader + spec.OpsPerTxn
	for _, chunkWords := range []int{longest, longest + 1, 2*longest + 1, 64} {
		wl := certifiedRun(t, spec, chunkWords)
		chunks := 0
		for i := range wl.logs {
			for _, c := range wl.logs[i].chunks {
				chunks++
				if cap(c) != chunkWords {
					t.Fatalf("chunkWords %d: a chunk has capacity %d", chunkWords, cap(c))
				}
			}
		}
		if min := spec.Txns * logRecHeader / chunkWords; chunks < min {
			t.Errorf("chunkWords %d: %d chunks, want at least %d", chunkWords, chunks, min)
		}
		if got := int64(len(logRecords(wl))); got != wl.Commits() || got != int64(spec.Txns) {
			t.Errorf("chunkWords %d: %d records in the log, Commits() = %d, stream has %d", chunkWords, got, wl.Commits(), spec.Txns)
		}
	}
}

// TestCommitLogRecordShapes covers the shortest and the longest record a
// spec can produce: no reads at all and MaxOps reads, in default-size
// chunks and in chunks exactly one longest record long.
func TestCommitLogRecordShapes(t *testing.T) {
	for _, ops := range []int{1, MaxOps} {
		for _, readFrac := range []float64{0, 1} {
			for _, chunkWords := range []int{0, logRecHeader + ops} {
				t.Run(fmt.Sprintf("ops%d/read%v/chunk%d", ops, readFrac, chunkWords), func(t *testing.T) {
					spec := WorkloadSpec{Txns: 2000, Keys: 64, Skew: 0.99, OpsPerTxn: ops, ReadFrac: readFrac, Seed: 23}
					wl := certifiedRun(t, spec, chunkWords)
					recs := logRecords(wl)
					if int64(len(recs)) != wl.Commits() || len(recs) != spec.Txns {
						t.Fatalf("%d records in the log, Commits() = %d, stream has %d", len(recs), wl.Commits(), spec.Txns)
					}
					want := logRecHeader
					if readFrac == 1 {
						want += ops
					}
					for _, r := range recs {
						if len(r.words) != want {
							t.Fatalf("a record of %d words, want %d", len(r.words), want)
						}
					}
				})
			}
		}
	}
}

// FuzzCertifyRejects changes one word of one record of a certified log —
// the label, or a logged read — by a non-zero amount, and Certify must
// refuse the result: a complete run has committed every label once, so a
// different label is out of range, a duplicate, or reads what it never
// read; a different read value is one the replay never produces. (The
// ticket is left alone: moving a record to an unclaimed ticket between the
// same neighbours is still a serial order, and Certify is right to accept
// it.)
func FuzzCertifyRejects(f *testing.F) {
	f.Add(uint32(0), uint8(0), int64(1))
	f.Add(uint32(17), uint8(1), int64(-1))
	f.Add(uint32(1999), uint8(3), int64(1)<<40)
	f.Add(uint32(500), uint8(0), int64(-2000))
	wl := certifiedRun(f, WorkloadSpec{Txns: 2000, Keys: 64, Skew: 0.99, OpsPerTxn: 4, ReadFrac: 0.5, Seed: 43}, 0)
	recs := logRecords(wl)
	f.Fuzz(func(t *testing.T, rec uint32, word uint8, delta int64) {
		if delta == 0 {
			delta = 1
		}
		r := recs[int(rec)%len(recs)]
		w := &r.words[1+int(word)%(len(r.words)-1)]
		*w += delta
		err := wl.Certify()
		*w -= delta
		if err == nil {
			t.Fatalf("Certify accepted record %d with word %d changed by %d", int(rec)%len(recs), 1+int(word)%(len(r.words)-1), delta)
		}
	})
}
