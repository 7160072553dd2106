package cq_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"relaxsched/internal/cq"
	"relaxsched/internal/cq/cqtest"
	"relaxsched/internal/rng"
)

// Every registered backend must pass the shared conformance + race suite.
func TestBackendConformance(t *testing.T) {
	for _, b := range cq.Backends() {
		t.Run(string(b), func(t *testing.T) {
			cqtest.Run(t, cqtest.ForBackend(b))
		})
	}
}

// FuzzHandleVsExact feeds operation strings to cqtest.HandleVsExact for
// every backend: whatever the string, handles and queue-level calls move
// the same multiset as the exact backend and agree with it on emptiness.
// The seed corpus runs under plain go test; CI fuzzes for a few seconds.
func FuzzHandleVsExact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x04}) // push, pop
	// Push through one handle, pop through the other until empty, then
	// through the first: its sticky queue is gone.
	f.Add([]byte{0x10, 0x20, 0x30, 0x04, 0x0c, 0x0c, 0x0c, 0x04, 0x04})
	// Batches and queue-level calls between handle operations.
	f.Add([]byte{0x33, 0x02, 0x0b, 0x07, 0x06, 0x04, 0x3f, 0x06, 0x0e})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, b := range cq.Backends() {
			cqtest.HandleVsExact(t, cqtest.ForBackend(b), ops)
		}
	})
}

func TestNewDefaultsToMultiQueue(t *testing.T) {
	q, err := cq.New("", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mq, ok := q.(*cq.MultiQueue)
	if !ok {
		t.Fatalf("New(\"\") built %T, want *cq.MultiQueue", q)
	}
	if mq.NumQueues() != 6 {
		t.Fatalf("NumQueues = %d, want threads*multiplier = 6", mq.NumQueues())
	}
}

func TestNewSprayListSingleStructure(t *testing.T) {
	q, err := cq.New(cq.SprayListBackend, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The SprayList has no native batch operations, so New wraps it in the
	// generic fallback; the wrapper must still present the single shared
	// structure underneath. (Go through cq.Queue: *cq.SprayList cannot
	// satisfy New's BatchQueue return type directly.)
	if _, ok := cq.Queue(q).(*cq.SprayList); ok {
		t.Fatalf("spraylist was not wrapped in the batch fallback: %T", q)
	}
	if q.NumQueues() != 1 {
		t.Fatalf("NumQueues = %d, want 1", q.NumQueues())
	}
}

func TestNewAlwaysBatchCapable(t *testing.T) {
	// cq.New's BatchQueue return type enforces batch support at compile
	// time; what remains to test is the wrap policy: native batchers come
	// back unwrapped, and AsBatch never re-wraps an existing BatchQueue.
	for _, b := range cq.Backends() {
		q, err := cq.New(b, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cq.AsBatch(q) != q {
			t.Fatalf("%s: AsBatch re-wrapped a BatchQueue (%T)", b, q)
		}
	}
	// MultiQueue and LockFreeMQ batch natively: New must not wrap them.
	if q, _ := cq.New(cq.MultiQueueBackend, 2, 2); func() bool {
		_, ok := q.(*cq.MultiQueue)
		return !ok
	}() {
		t.Fatalf("multiqueue was wrapped: %T", q)
	}
	if q, _ := cq.New(cq.LockFreeBackend, 2, 2); func() bool {
		_, ok := q.(*cq.LockFreeMQ)
		return !ok
	}() {
		t.Fatalf("lockfree was wrapped: %T", q)
	}
}

func TestNewLockFreeSharding(t *testing.T) {
	q, err := cq.New(cq.LockFreeBackend, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.(*cq.LockFreeMQ); !ok {
		t.Fatalf("built %T, want *cq.LockFreeMQ", q)
	}
	if q.NumQueues() != 6 {
		t.Fatalf("NumQueues = %d, want threads*multiplier = 6", q.NumQueues())
	}
}

func TestNewRejectsBadArguments(t *testing.T) {
	if _, err := cq.New("fancy-lsm", 2, 2); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := cq.New(cq.MultiQueueBackend, 0, 2); err == nil {
		t.Fatal("threads = 0 accepted")
	}
	if _, err := cq.New(cq.SprayListBackend, 2, 0); err == nil {
		t.Fatal("queueMultiplier = 0 accepted")
	}
}

func TestBackendValid(t *testing.T) {
	for _, b := range cq.Backends() {
		if !b.Valid() {
			t.Fatalf("registered backend %q reported invalid", b)
		}
	}
	if !cq.Backend("").Valid() {
		t.Fatal("empty backend (default) reported invalid")
	}
	if cq.Backend("nope").Valid() {
		t.Fatal("unknown backend reported valid")
	}
}

// BenchmarkPushPop compares the backends head-to-head on the mixed
// push/pop hot path at NumCPU contention.
func BenchmarkPushPop(b *testing.B) {
	for _, backend := range cq.Backends() {
		b.Run(string(backend), func(b *testing.B) {
			q, err := cq.New(backend, 8, 2)
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Uint64 // distinct stream per goroutine, or the
			// shard choices collide in lockstep and measure fake contention
			b.RunParallel(func(pb *testing.PB) {
				r := rng.New(worker.Add(1) * 0x9e3779b97f4a7c15)
				i := int64(0)
				for pb.Next() {
					q.Push(r, i, i%1024)
					q.Pop(r)
					i++
				}
			})
		})
	}
}

// BenchmarkPushPopBatch measures the batch amortization directly: the same
// mixed workload as BenchmarkPushPop, but moving elements batch-at-a-time.
// Comparing (backend, batch=1) with larger batches isolates the per-element
// coordination cost each backend saves.
func BenchmarkPushPopBatch(b *testing.B) {
	for _, backend := range cq.Backends() {
		for _, batch := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/batch%d", backend, batch), func(b *testing.B) {
				q, err := cq.New(backend, 8, 2)
				if err != nil {
					b.Fatal(err)
				}
				bq := cq.AsBatch(q)
				var worker atomic.Uint64 // distinct stream per goroutine
				b.RunParallel(func(pb *testing.PB) {
					r := rng.New(worker.Add(1) * 0xd1342543de82ef95)
					out := make([]cq.Pair, 0, batch)
					dst := make([]cq.Pair, batch)
					i := int64(0)
					for pb.Next() {
						out = append(out, cq.Pair{Value: i, Priority: i % 1024})
						if len(out) == batch {
							bq.PushBatch(r, out)
							out = out[:0]
							bq.PopBatch(r, dst)
						}
						i++
					}
				})
			})
		}
	}
}
