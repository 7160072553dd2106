package engine_test

import (
	"sync/atomic"
	"testing"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
)

// recordWorkload counts executions per value; the streaming analogue of
// enginetest's flat workload, with an empty frontier (all tasks arrive from
// producers).
type recordWorkload struct {
	hits []atomic.Int32
}

func (w *recordWorkload) Frontier(func(value, priority int64)) {}

func (w *recordWorkload) TryExecute(_ *engine.Ctx, value, _ int64) engine.Status {
	w.hits[value].Add(1)
	return engine.Executed
}

func startRecording(t *testing.T, n, producers, batch int) (*engine.Execution, *recordWorkload) {
	t.Helper()
	wl := &recordWorkload{hits: make([]atomic.Int32, n)}
	e, err := engine.Start(wl, engine.Options{ExecOptions: engine.ExecOptions{Threads: 4, QueueMultiplier: 2, BatchSize: batch, Seed: 21}, Producers: producers})
	if err != nil {
		t.Fatal(err)
	}
	return e, wl
}

func TestProducerStreamsToCompletion(t *testing.T) {
	const n = 2000
	for _, batch := range []int{0, 8} {
		e, wl := startRecording(t, n, 2, batch)
		a, b := e.NewProducer(), e.NewProducer()
		for i := 0; i < n/2; i++ {
			a.Push(int64(i), int64(i))
			b.Push(int64(n/2+i), int64(n/2+i))
		}
		a.Close()
		b.Close()
		st := e.Wait()
		if st.Executed != n || st.Popped != n {
			t.Fatalf("batch %d: executed %d, popped %d, want %d", batch, st.Executed, st.Popped, n)
		}
		for i := range wl.hits {
			if got := wl.hits[i].Load(); got != 1 {
				t.Fatalf("batch %d: job %d executed %d times", batch, i, got)
			}
		}
	}
}

func TestProducerPushBatch(t *testing.T) {
	const n = 1200
	for _, batch := range []int{0, 16} {
		e, wl := startRecording(t, n, 1, batch)
		p := e.NewProducer()
		pairs := make([]cq.Pair, 0, 100)
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				p.Push(int64(i), int64(i)) // interleave singleton pushes
				continue
			}
			pairs = append(pairs, cq.Pair{Value: int64(i), Priority: int64(i)})
			if len(pairs) == cap(pairs) {
				p.PushBatch(pairs)
				pairs = pairs[:0]
			}
		}
		p.PushBatch(pairs)
		p.PushBatch(nil) // empty batch is a no-op
		p.Close()
		if st := e.Wait(); st.Executed != n {
			t.Fatalf("batch %d: executed %d, want %d", batch, st.Executed, n)
		}
		for i := range wl.hits {
			if got := wl.hits[i].Load(); got != 1 {
				t.Fatalf("batch %d: job %d executed %d times", batch, i, got)
			}
		}
	}
}

// Flush must make buffered pairs visible without closing the producer: the
// workers drain them while the producer stays open.
func TestProducerFlushReleasesBufferedPairs(t *testing.T) {
	const n = 64
	e, wl := startRecording(t, n, 1, 1024) // batch far larger than n: nothing auto-flushes
	p := e.NewProducer()
	for i := 0; i < n; i++ {
		p.Push(int64(i), int64(i))
	}
	p.Flush()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := 0
		for i := range wl.hits {
			done += int(wl.hits[i].Load())
		}
		if done == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d flushed jobs executed while producer open", done, n)
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	if st := e.Wait(); st.Executed != n {
		t.Fatalf("executed %d, want %d", st.Executed, n)
	}
}

func TestProducerPushAfterClosePanics(t *testing.T) {
	e, _ := startRecording(t, 1, 1, 0)
	p := e.NewProducer()
	p.Push(0, 0)
	p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Push on closed producer did not panic")
			}
		}()
		p.Push(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PushBatch on closed producer did not panic")
			}
		}()
		p.PushBatch([]cq.Pair{{Value: 0, Priority: 1}})
	}()
	e.Wait()
}

func TestProducerDoubleCloseSafe(t *testing.T) {
	for _, batch := range []int{0, 8} {
		e, _ := startRecording(t, 4, 1, batch)
		p := e.NewProducer()
		p.Push(0, 0)
		p.Close()
		p.Close() // idempotent: must not double-decrement the open count
		p.Flush() // flush after close is a no-op, not a panic
		if st := e.Wait(); st.Executed != 1 {
			t.Fatalf("batch %d: executed %d, want 1", batch, st.Executed)
		}
	}
}

// TestNewProducerBeyondDeclaredPanics: an execution hands out exactly
// Options.Producers producers. A third NewProducer on a 2-producer
// execution panics while the run is live — and changes nothing: the two
// declared streams are still served and the run still terminates — and
// panics again after termination.
func TestNewProducerBeyondDeclaredPanics(t *testing.T) {
	const n = 100
	e, wl := startRecording(t, n, 2, 0)
	a, b := e.NewProducer(), e.NewProducer()
	mustPanic := func(when string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("third NewProducer %s termination did not panic", when)
			}
		}()
		e.NewProducer()
	}
	mustPanic("before")
	for i := 0; i < n/2; i++ {
		a.Push(int64(i), int64(i))
		b.Push(int64(n/2+i), int64(n/2+i))
	}
	a.Close()
	b.Close()
	if st := e.Wait(); st.Executed != n {
		t.Fatalf("executed %d, want %d", st.Executed, n)
	}
	for i := range wl.hits {
		if got := wl.hits[i].Load(); got != 1 {
			t.Fatalf("job %d executed %d times", i, got)
		}
	}
	mustPanic("after")
}

func TestRunRejectsProducers(t *testing.T) {
	if _, err := engine.Run(&noopWorkload{}, engine.Options{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}, Producers: 1}); err == nil {
		t.Fatal("Run accepted a non-zero producer count")
	}
	if _, err := engine.Start(&noopWorkload{}, engine.Options{ExecOptions: engine.ExecOptions{Threads: 1, QueueMultiplier: 1}, Producers: -1}); err == nil {
		t.Fatal("Start accepted a negative producer count")
	}
}

// A declared-but-unused producer must hold termination open until closed,
// even though it never pushes: open count, not task count, gates the exit.
func TestUnusedProducerGatesTermination(t *testing.T) {
	e, _ := startRecording(t, 1, 1, 0)
	done := make(chan engine.Result)
	go func() { done <- e.Wait() }()
	select {
	case <-done:
		t.Fatal("execution terminated with a declared producer never closed")
	case <-time.After(50 * time.Millisecond):
	}
	p := e.NewProducer()
	p.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("execution did not terminate after the producer closed")
	}
}
