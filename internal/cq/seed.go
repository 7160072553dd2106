package cq

import (
	"fmt"
	"iter"

	"relaxsched/internal/rng"
)

// Seed inserts a run's frontier: every pair of every chunk, in order, in
// one call. The chunks are read, never kept.
//
// Every pair is checked for ReservedPriority before anything is inserted,
// so a frontier holding one is refused whole, with an error and the queue
// untouched. An empty frontier does nothing: no allocation, no lock.
//
// On a MultiQueue the frontier is dealt round-robin: pair i goes to queue
// i mod q, so adjacent labels land in different queues. Each queue that gets
// pairs is locked once, its run and heap are sized once at their final
// lengths, its pairs go where pairHeap's run rule sends them (a pair that
// breaks the queue's order goes to its heap), and its cached top is stored
// once. Every other backend takes one handle Push per pair, drawing from r.
func Seed(q BatchQueue, r *rng.Xoshiro, chunks [][]Pair) error {
	n := 0
	for _, c := range chunks {
		for _, p := range c {
			if p.Priority == ReservedPriority {
				return fmt.Errorf("cq: frontier pair %d has the reserved priority MaxInt64", n)
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if mq, ok := q.(*MultiQueue); ok {
		mq.deal(chunks, n)
		return nil
	}
	h := HandleFor(q)
	defer h.Close()
	for _, c := range chunks {
		for _, p := range c {
			h.Push(r, p.Value, p.Priority)
		}
	}
	return nil
}

// deal puts pair i of the n pairs in chunks into queue i mod q, one queue
// at a time. It walks a queue's share twice under its lock: once to count
// how many of its pairs the run takes, so the run and the heap each grow at
// most once, to their final lengths, and once to push them.
func (c *MultiQueue) deal(chunks [][]Pair, n int) {
	nq := len(c.queues)
	for j := 0; j < min(nq, n); j++ {
		q := &c.queues[j]
		q.mu.Lock()
		h := &q.h
		// The count replays pushRun's rule: a pair extends a live run if it
		// is no smaller than the run's last pair, starts one if the queue is
		// empty, and goes to the heap otherwise.
		runN, heapN := 0, 0
		live, heapLive := len(h.run) != 0, len(h.a) != 0
		var last int64
		if live {
			last = h.run[len(h.run)-1].prio
		}
		for p := range dealt(chunks, j, nq) {
			if live && p.Priority >= last || !live && !heapLive {
				runN++
				live, last = true, p.Priority
			} else {
				heapN++
				heapLive = true
			}
		}
		h.run, h.head = reserve(h.run[h.head:], runN), 0
		h.a = reserve(h.a, heapN)
		for p := range dealt(chunks, j, nq) {
			h.push(pair{prio: p.Priority, val: p.Value})
		}
		q.top.Store(h.min().prio)
		q.mu.Unlock()
	}
}

// dealt yields the pairs of chunks whose index in the whole frontier is
// j mod step, in order.
func dealt(chunks [][]Pair, j, step int) iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		off := 0 // frontier index of the chunk's first pair
		for _, c := range chunks {
			for k := (j - off%step + step) % step; k < len(c); k += step {
				if !yield(c[k]) {
					return
				}
			}
			off += len(c)
		}
	}
}

// reserve returns s with room for n more pairs, allocating a slice of
// exactly len(s)+n only when s has less.
func reserve(s []pair, n int) []pair {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]pair, 0, len(s)+n), s...)
}
