package cq

import (
	"cmp"
	"slices"
	"testing"

	"relaxsched/internal/rng"
)

// chunked splits pairs into chunks of first, then size, pairs: the shape
// the engine collects a frontier in.
func chunked(pairs []Pair, first, size int) [][]Pair {
	var out [][]Pair
	for len(pairs) > 0 {
		k := min(first, len(pairs))
		out = append(out, pairs[:k:k])
		pairs, first = pairs[k:], size
	}
	return out
}

// labels returns n pairs with value = priority = 0..n-1.
func labels(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Value: int64(i), Priority: int64(i)}
	}
	return out
}

// Seed deals a sorted frontier round-robin: queue j holds exactly the
// labels congruent to j mod q, every one of them in its run, and the run
// was allocated once at its final length. A pair that breaks its queue's
// order goes to that queue's heap, and the run stays exact.
func TestSeedDealsRoundRobin(t *testing.T) {
	const q, n = 4, 1003
	c := NewMultiQueue(q)
	if err := Seed(c, rng.New(1), chunked(labels(n), 7, 64)); err != nil {
		t.Fatal(err)
	}
	for j := range c.queues {
		h := &c.queues[j].h
		if len(h.a) != 0 {
			t.Fatalf("queue %d: %d pairs in the heap of a sorted frontier", j, len(h.a))
		}
		if cap(h.run) != len(h.run) {
			t.Fatalf("queue %d: run len %d, cap %d", j, len(h.run), cap(h.run))
		}
		want := int64(j)
		for _, p := range h.run {
			if p.prio != want || p.val != want {
				t.Fatalf("queue %d holds %+v, want label %d", j, p, want)
			}
			want += q
		}
		if want < n {
			t.Fatalf("queue %d stops before label %d", j, want)
		}
		if top := c.queues[j].top.Load(); top != int64(j) {
			t.Fatalf("queue %d: cached top %d, want %d", j, top, j)
		}
		if !c.queues[j].mu.TryLock() {
			t.Fatalf("queue %d left locked", j)
		}
		c.queues[j].mu.Unlock()
	}

	// Label 9 moved below label 5, its queue's previous pair: it breaks
	// queue 1's order and must land in its heap, the rest in the run.
	pairs := labels(16)
	pairs[9].Priority = 2
	c = NewMultiQueue(q)
	if err := Seed(c, rng.New(1), chunked(pairs, 3, 5)); err != nil {
		t.Fatal(err)
	}
	h := &c.queues[1].h
	if len(h.a) != 1 || h.a[0].val != 9 || cap(h.a) != 1 {
		t.Fatalf("queue 1 heap = %+v (cap %d), want label 9 alone", h.a, cap(h.a))
	}
	if len(h.run) != 3 || cap(h.run) != 3 {
		t.Fatalf("queue 1 run = %+v (cap %d), want labels 1, 5, 13", h.run, cap(h.run))
	}
	if top := c.queues[1].top.Load(); top != 1 {
		t.Fatalf("queue 1: cached top %d, want 1", top)
	}

	// One allocation per queue that gets pairs, and none for an empty
	// frontier.
	for _, tc := range []struct{ n, allocs int }{{n, q}, {3, 3}, {0, 0}} {
		chunks := chunked(labels(tc.n), 7, 64)
		c := NewMultiQueue(q)
		r := rng.New(1)
		got := testing.AllocsPerRun(20, func() {
			if err := Seed(c, r, chunks); err != nil {
				t.Fatal(err)
			}
			for j := range c.queues {
				c.queues[j].h = pairHeap{}
				c.queues[j].top.Store(emptyTop)
			}
		})
		if got != float64(tc.allocs) {
			t.Fatalf("seeding %d pairs into %d queues: %v allocations, want %d", tc.n, q, got, tc.allocs)
		}
	}
}

// seedFrontier decodes ops into a frontier and a queue count. Byte 0 picks
// q (1..8), byte 1 the chunk size (1..16), and each later byte b one pair
// whose priority is set by b>>6 from the previous pair's:
//
//	0: last + b&3 (in order; 0 is a tie)
//	1: last − 1 − b&15 (out of order)
//	2: last (a tie)
//	3: last − 16 − b&63 (a long step down: descending runs)
func seedFrontier(ops []byte) (q int, chunks [][]Pair, pairs []Pair) {
	q, size := 1, 1
	if len(ops) > 0 {
		q, ops = 1+int(ops[0]%8), ops[1:]
	}
	if len(ops) > 0 {
		size, ops = 1+int(ops[0]%16), ops[1:]
	}
	var last int64
	for i, b := range ops {
		switch arg := int64(b & 63); b >> 6 {
		case 0:
			last += arg & 3
		case 1:
			last -= 1 + arg&15
		case 3:
			last -= 16 + arg
		}
		pairs = append(pairs, Pair{Value: int64(i), Priority: last})
	}
	return q, chunked(pairs, size, 2*size+1), pairs
}

// seedThenDrain seeds the frontier ops encodes into a fresh MultiQueue.
// Each queue must hold exactly its dealt share, with its run and heap at
// their final lengths, and pop its exact minimum until empty, keeping the
// pairHeap's invariants after every pop. A second copy seeded the same way
// and drained through one handle must return every pair exactly once.
func seedThenDrain(t *testing.T, ops []byte) {
	t.Helper()
	q, chunks, pairs := seedFrontier(ops)
	c := NewMultiQueue(q)
	if err := Seed(c, rng.New(3), chunks); err != nil {
		t.Fatal(err)
	}
	for j := range c.queues {
		qu := &c.queues[j]
		h := &qu.h
		if cap(h.run) != len(h.run) || cap(h.a) != len(h.a) {
			t.Fatalf("queue %d: run %d/%d, heap %d/%d (len/cap)", j, len(h.run), cap(h.run), len(h.a), cap(h.a))
		}
		var ref []Pair // queue j's share, ascending by priority
		for i := j; i < len(pairs); i += q {
			ref = append(ref, pairs[i])
		}
		slices.SortStableFunc(ref, func(a, b Pair) int { return cmp.Compare(a.Priority, b.Priority) })
		if h.len() != len(ref) {
			t.Fatalf("queue %d holds %d pairs, dealt %d", j, h.len(), len(ref))
		}
		if len(ref) > 0 && qu.top.Load() != ref[0].Priority {
			t.Fatalf("queue %d: cached top %d, minimum %d", j, qu.top.Load(), ref[0].Priority)
		}
		checkPairHeap(t, h)
		for len(ref) > 0 {
			got := h.pop()
			end := 1
			for end < len(ref) && ref[end].Priority == ref[0].Priority {
				end++
			}
			i := slices.Index(ref[:end], Pair{Value: got.val, Priority: got.prio})
			if i < 0 {
				t.Fatalf("queue %d popped %+v; its minimum priority is %d", j, got, ref[0].Priority)
			}
			ref = slices.Delete(ref, i, i+1)
			checkPairHeap(t, h)
		}
	}

	c = NewMultiQueue(q)
	if err := Seed(c, rng.New(3), chunks); err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(pairs))
	hd, r := c.NewHandle(), rng.New(4)
	for {
		v, p, ok := hd.Pop(r)
		if !ok {
			break
		}
		if v < 0 || v >= int64(len(pairs)) || seen[v] || pairs[v].Priority != p {
			t.Fatalf("drain returned (%d, %d): unknown or repeated", v, p)
		}
		seen[v] = true
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("drain lost pair %d of %d", i, len(pairs))
	}
}

func TestSeedThenDrain(t *testing.T) {
	r := rng.New(2019)
	for _, length := range []int{0, 1, 2, 17, 256, 4096} {
		for rep := 0; rep < 8; rep++ {
			ops := make([]byte, length)
			for i := range ops {
				ops[i] = byte(r.Intn(256))
			}
			seedThenDrain(t, ops)
		}
	}
}

// FuzzSeedThenDrain searches for a frontier — ties, out-of-order and
// descending priorities, any queue count and chunk size — on which a
// seeded queue pops something other than its exact minimum, a run or heap
// is sized wrong, or a drain loses or repeats a pair. The seed corpus runs
// under plain go test; CI fuzzes for a few seconds.
func FuzzSeedThenDrain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0x01, 0x00, 0x02, 0x80, 0x03})    // 4 queues: in order, ties
	f.Add([]byte{1, 2, 0x01, 0x41, 0x02, 0x4f, 0x01})    // 2 queues: out of order
	f.Add([]byte{0, 0, 0xc0, 0xc1, 0xff, 0x00, 0xc0})    // 1 queue: descending
	f.Add([]byte{7, 15, 0x00, 0x01, 0xc2, 0x03, 0x80})   // 8 queues, fewer pairs
	f.Add([]byte{2, 1, 0x01, 0x02, 0x43, 0x01, 0x01, 1}) // 3 queues, chunks of 2
	f.Fuzz(seedThenDrain)
}

// A frontier holding the reserved priority is refused whole, wherever the
// pair sits: an error, and nothing inserted.
func TestSeedRejectsReservedPriority(t *testing.T) {
	for _, b := range Backends() {
		for _, at := range []int{0, 50, 99} {
			q, err := New(b, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			pairs := labels(100)
			pairs[at].Priority = ReservedPriority
			if err := Seed(q, rng.New(1), chunked(pairs, 7, 64)); err == nil {
				t.Fatalf("%s: Seed accepted the reserved priority at %d", b, at)
			}
			if n := q.Len(); n != 0 {
				t.Fatalf("%s: a refused frontier left %d pairs in the queue", b, n)
			}
		}
	}
}
