package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relaxsched/internal/cq"
	"relaxsched/internal/engine"
	"relaxsched/internal/epoch"
	"relaxsched/internal/inflight"
	"relaxsched/internal/park"
	"relaxsched/internal/rng"
)

// Part 1 of the traced run: each layer's exported API timed in isolation
// with T goroutines. A figure in ns is thread-time per operation — what one
// goroutine waits for one call while T of them hammer the layer — so it
// multiplies directly into the thread-ns-per-task budget.

// cqDepth is the steady queue depth the cq figures are taken at.
const cqDepth = 1 << 16

// onThreads runs fn(w) on T goroutines and waits for them.
func onThreads(T int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < T; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// perOp runs fn(w) on T goroutines, each returning the ns it spent and the
// operations it performed, and returns ns per operation over all of them.
func perOp(T int, fn func(w int) (ns int64, ops int64)) float64 {
	var ns, ops atomic.Int64
	onThreads(T, func(w int) {
		n, o := fn(w)
		ns.Add(n)
		ops.Add(o)
	})
	return float64(ns.Load()) / float64(ops.Load())
}

// medianOf repeats a measurement and returns the median of its results.
func medianOf(reps int, measure func() float64) float64 {
	samples := make([]float64, reps)
	for i := range samples {
		samples[i] = measure()
	}
	return median(samples)
}

// filledQueue returns a queue of the backend sized for T workers holding
// cqDepth pairs of random priority.
func filledQueue(b cq.Backend, T int, seed uint64) (cq.BatchQueue, error) {
	q, err := cq.New(b, T, queueMultiplier)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	for i := 0; i < cqDepth; i++ {
		q.Push(r, int64(i), r.Int63()>>16)
	}
	return q, nil
}

// cqPushPop alternates runs of n pushes and n pops per goroutine through
// per-worker handles, timing the two kinds of run separately. misses counts
// pops that reported empty although the queue held at least cqDepth pairs.
func cqPushPop(b cq.Backend, T, cycles, n int, seed uint64) (pushNs, popNs, missFrac float64, err error) {
	q, err := filledQueue(b, T, seed)
	if err != nil {
		return 0, 0, 0, err
	}
	var pushT, popT, misses atomic.Int64
	onThreads(T, func(w int) {
		h := cq.HandleFor(q)
		defer h.Close()
		r := rng.New(seed + uint64(w) + 1)
		var push, pop time.Duration
		var miss int64
		for c := 0; c < cycles; c++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				h.Push(r, int64(i), r.Int63()>>16)
			}
			t1 := time.Now()
			for i := 0; i < n; i++ {
				if _, _, ok := h.Pop(r); !ok {
					miss++
				}
			}
			push += t1.Sub(t0)
			pop += time.Since(t1)
		}
		pushT.Add(int64(push))
		popT.Add(int64(pop))
		misses.Add(miss)
	})
	ops := float64(T * cycles * n)
	return float64(pushT.Load()) / ops, float64(popT.Load()) / ops, float64(misses.Load()) / ops, nil
}

// cqBatch16 moves batches of 16 and returns ns per element for the push
// and the pop of that element together.
func cqBatch16(b cq.Backend, T, cycles int, seed uint64) (float64, error) {
	q, err := filledQueue(b, T, seed)
	if err != nil {
		return 0, err
	}
	const batch = 16
	return perOp(T, func(w int) (int64, int64) {
		h := cq.HandleFor(q)
		defer h.Close()
		r := rng.New(seed + uint64(w) + 1)
		buf := make([]cq.Pair, batch)
		var moved int64
		t0 := time.Now()
		for c := 0; c < cycles; c++ {
			for i := range buf {
				buf[i] = cq.Pair{Value: int64(i), Priority: r.Int63() >> 16}
			}
			h.PushBatch(r, buf)
			moved += int64(h.PopBatch(r, buf))
		}
		return int64(time.Since(t0)), moved
	}), nil
}

// cqEmptyPop times Pop on an empty queue: what an idle worker pays per poll.
func cqEmptyPop(b cq.Backend, T, n int, seed uint64) (float64, error) {
	q, err := cq.New(b, T, queueMultiplier)
	if err != nil {
		return 0, err
	}
	return perOp(T, func(w int) (int64, int64) {
		h := cq.HandleFor(q)
		defer h.Close()
		r := rng.New(seed + uint64(w) + 1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.Pop(r)
		}
		return int64(time.Since(t0)), int64(n)
	}), nil
}

// cqExactPushPop is the strict-order baseline: one heap behind one mutex,
// a push and a pop per operation.
func cqExactPushPop(T, n int, seed uint64) (float64, error) {
	q, err := filledQueue(cq.ExactBackend, T, seed)
	if err != nil {
		return 0, err
	}
	return perOp(T, func(w int) (int64, int64) {
		r := rng.New(seed + uint64(w) + 1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			q.Push(r, int64(i), r.Int63()>>16)
			q.Pop(r)
		}
		return int64(time.Since(t0)), int64(n)
	}), nil
}

func inflightProduceComplete(T, n int) float64 {
	c := inflight.New(T)
	return perOp(T, func(w int) (int64, int64) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.Produce(w)
			c.Complete(w)
		}
		return int64(time.Since(t0)), int64(n)
	})
}

// inflightQuiescent times the termination scan while one task is live, so
// it always scans and never seals.
func inflightQuiescent(T, n int) float64 {
	c := inflight.New(T)
	c.Produce(0)
	return perOp(T, func(int) (int64, int64) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.Quiescent()
		}
		return int64(time.Since(t0)), int64(n)
	})
}

// parkSettle is how long a goroutine that announced itself parked is left
// alone before it is woken, so that it (and the thread under it) is really
// asleep, as a worker between two bursts is. Woken any sooner it has not
// blocked yet and the round trip measures Park's fast path.
const parkSettle = 200 * time.Microsecond

// parkRoundTrip times Wake -> the parked goroutine running again, in us.
func parkRoundTrip(n int) float64 {
	lot := park.NewLot(1)
	var resumed atomic.Int64 // rounds the sleeper has come back from
	var resumedAt atomic.Int64
	base := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			tok := lot.Token(0)
			lot.Park(0, tok, func() bool { return false })
			resumedAt.Store(int64(time.Since(base)))
			resumed.Store(int64(i))
		}
	}()
	var total int64
	for i := 1; i <= n; i++ {
		for lot.Parked() == 0 {
			runtime.Gosched()
		}
		time.Sleep(parkSettle)
		t0 := int64(time.Since(base))
		for lot.Wake(1) == 0 {
			runtime.Gosched()
		}
		// Spin without yielding: if the waker gave up its P here the woken
		// goroutine would simply take it over, and the round trip would not
		// include waking a second thread — which is what a push pays for.
		for resumed.Load() < int64(i) {
		}
		total += resumedAt.Load() - t0
	}
	<-done
	return float64(total) / float64(n) / 1e3
}

// parkWakeIdle times Wake with nobody parked: paid on every push.
func parkWakeIdle(T, n int) float64 {
	lot := park.NewLot(T)
	return perOp(T, func(int) (int64, int64) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			lot.Wake(1)
		}
		return int64(time.Since(t0)), int64(n)
	})
}

type epochNode struct{ v [2]int64 }

func epochEnterExit(T, n int) float64 {
	d := epoch.NewDomain[epochNode]()
	return perOp(T, func(int) (int64, int64) {
		s := d.Register()
		defer s.Close()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Enter()
			s.Exit()
		}
		return int64(time.Since(t0)), int64(n)
	})
}

func epochAllocRetire(T, n int) float64 {
	d := epoch.NewDomain[epochNode]()
	return perOp(T, func(int) (int64, int64) {
		s := d.Register()
		defer s.Close()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Retire(s.Alloc())
		}
		return int64(time.Since(t0)), int64(n)
	})
}

// flatNoop is an engine workload of n independent tasks that do nothing:
// what is left is the engine's own cost per task (queue included).
type flatNoop struct{ n int }

func (f flatNoop) Frontier(emit func(value, priority int64)) {
	for i := 0; i < f.n; i++ {
		emit(int64(i), int64(i))
	}
}

func (flatNoop) TryExecute(*engine.Ctx, int64, int64) engine.Status { return engine.Executed }

// treeNoop starts from one task; task v spawns 2v+1 and 2v+2 while they are
// below n — the shape of SSSP, where all but the source arrive by Spawn.
type treeNoop struct{ n int64 }

func (treeNoop) Frontier(emit func(value, priority int64)) { emit(0, 0) }

func (t treeNoop) TryExecute(ctx *engine.Ctx, v, _ int64) engine.Status {
	for c := 2*v + 1; c <= 2*v+2 && c < t.n; c++ {
		ctx.Spawn(c, c)
	}
	return engine.Executed
}

// engineRun returns thread-ns per task of running wl to quiescence on T
// workers.
func engineRun(wl engine.Workload, tasks, T, batch int, seed uint64) (float64, error) {
	t0 := time.Now()
	res, err := engine.Run(wl, engine.Options{ExecOptions: execOptions(T, batch, cq.MultiQueueBackend, seed)})
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if res.Executed != int64(tasks) {
		return 0, fmt.Errorf("engine no-op run executed %d of %d tasks", res.Executed, tasks)
	}
	return float64(T) * float64(wall) / float64(tasks), nil
}

// engineStartStop times Start -> producer closed -> Wait on an empty
// frontier, in us: the fixed cost of bringing a pool up and down.
func engineStartStop(T, n int, seed uint64) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e, err := engine.Start(flatNoop{}, engine.Options{ExecOptions: execOptions(T, 1, cq.MultiQueueBackend, seed), Producers: 1})
		if err != nil {
			return 0, err
		}
		e.NewProducer().Close()
		e.Wait()
	}
	return float64(time.Since(t0)) / float64(n) / 1e3, nil
}

// engineProducerPush times Producer.Push while T workers drain.
func engineProducerPush(T, n int, seed uint64) (float64, error) {
	e, err := engine.Start(flatNoop{}, engine.Options{ExecOptions: execOptions(T, 1, cq.MultiQueueBackend, seed), Producers: 1})
	if err != nil {
		return 0, err
	}
	p := e.NewProducer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Push(int64(i), int64(i))
	}
	ns := float64(time.Since(t0)) / float64(n)
	p.Close()
	if res := e.Wait(); res.Executed != int64(n) {
		return 0, fmt.Errorf("engine producer run executed %d of %d tasks", res.Executed, n)
	}
	return ns, nil
}

// layerMicrobenchmarks runs part 1 and returns its metrics by name.
func layerMicrobenchmarks(p protocol, seed uint64) (map[string]metric, error) {
	T := benchThreads()
	div := p.LayerDiv
	out := make(map[string]metric)
	var firstErr error
	put := func(name, unit string, measure func() (float64, error)) {
		out[name] = plain(medianOf(p.LayerReps, func() float64 {
			v, err := measure()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
			return v
		}), unit)
	}
	ok := func(v float64) (float64, error) { return v, nil }

	for _, b := range []cq.Backend{cq.MultiQueueBackend, cq.LockFreeBackend} {
		prefix := "cq." + string(b)
		var push, pop, miss []float64
		for i := 0; i < p.LayerReps; i++ {
			pu, po, mi, err := cqPushPop(b, T, max(16/div, 1), 1<<14, seed+uint64(i))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", prefix, err)
			}
			push, pop, miss = append(push, pu), append(pop, po), append(miss, mi)
		}
		out[prefix+".push_ns"] = plain(median(push), "ns")
		out[prefix+".pop_ns"] = plain(median(pop), "ns")
		if b == cq.LockFreeBackend {
			out[prefix+".pop_miss_frac"] = plain(median(miss), "ratio")
		}
		put(prefix+".empty_pop_ns", "ns", func() (float64, error) { return cqEmptyPop(b, T, (1<<20)/div, seed) })
	}
	put("cq.multiqueue.batch16_ns_per_elem", "ns", func() (float64, error) {
		return cqBatch16(cq.MultiQueueBackend, T, (1<<16)/div, seed)
	})
	put("cq.exact.pushpop_ns", "ns", func() (float64, error) { return cqExactPushPop(T, (1<<18)/div, seed) })

	put("inflight.produce_complete_ns", "ns", func() (float64, error) { return ok(inflightProduceComplete(T, (1<<22)/div)) })
	put("inflight.quiescent_ns", "ns", func() (float64, error) { return ok(inflightQuiescent(T, (1<<20)/div)) })
	put("park.roundtrip_us", "us", func() (float64, error) { return ok(parkRoundTrip(max(512/div, 8))) })
	put("park.wake_idle_ns", "ns", func() (float64, error) { return ok(parkWakeIdle(T, (1<<22)/div)) })
	put("epoch.enter_exit_ns", "ns", func() (float64, error) { return ok(epochEnterExit(T, (1<<22)/div)) })
	put("epoch.alloc_retire_ns", "ns", func() (float64, error) { return ok(epochAllocRetire(T, (1<<21)/div)) })

	tasks := (1 << 20) / div
	put("engine.noop_ns_per_task", "ns", func() (float64, error) { return engineRun(flatNoop{tasks}, tasks, T, 1, seed) })
	put("engine.noop_b16_ns_per_task", "ns", func() (float64, error) { return engineRun(flatNoop{tasks}, tasks, T, 16, seed) })
	put("engine.spawn_ns_per_task", "ns", func() (float64, error) { return engineRun(treeNoop{int64(tasks)}, tasks, T, 1, seed) })
	// The same on one worker: what a task costs the engine with nobody to
	// contend with, the baseline the budget's workload estimate subtracts.
	put("engine.noop_t1_ns_per_task", "ns", func() (float64, error) { return engineRun(flatNoop{tasks}, tasks, 1, 1, seed) })
	put("engine.spawn_t1_ns_per_task", "ns", func() (float64, error) { return engineRun(treeNoop{int64(tasks)}, tasks, 1, 1, seed) })
	put("engine.startstop_us", "us", func() (float64, error) { return engineStartStop(T, max(512/div, 8), seed) })
	put("engine.producer_push_ns", "ns", func() (float64, error) { return engineProducerPush(T, tasks, seed) })
	return out, firstErr
}
