package cq

import (
	"sync"
	"sync/atomic"
	"testing"

	"relaxsched/internal/rng"
)

// buildHeap melds fresh singleton nodes for the given priorities.
func buildHeap(prios ...int64) *lfnode {
	var h *lfnode
	for _, p := range prios {
		h = lfMeld(h, &lfnode{prio: p, val: p})
	}
	return h
}

// The in-place pairing heap must deliver minima in order through repeated
// delete-min, with the detached root's links cleared for retirement.
func TestLockFreeHeapDeleteMinOrder(t *testing.T) {
	h := buildHeap(5, 1, 9, 3, 7)
	if h.prio != 1 {
		t.Fatalf("root prio = %d, want 1", h.prio)
	}
	for _, want := range []int64{1, 3, 5, 7, 9} {
		if h.prio != want {
			t.Fatalf("min %d, want %d", h.prio, want)
		}
		root := h
		h = lfDeleteMin(h)
		if root.child != nil || root.sibling != nil {
			t.Fatalf("detached root %d kept links (child=%v sibling=%v)", want, root.child, root.sibling)
		}
	}
	if h != nil {
		t.Fatal("heap not empty after 5 delete-mins")
	}
}

// lfMeld must keep roots sibling-free and handle nil on either side.
func TestLockFreeMeld(t *testing.T) {
	a := &lfnode{prio: 2}
	if lfMeld(nil, a) != a || lfMeld(a, nil) != a {
		t.Fatal("meld with nil must return the other heap")
	}
	b := &lfnode{prio: 1}
	m := lfMeld(a, b)
	if m != b || m.sibling != nil || m.child != a {
		t.Fatal("meld did not link the worse root as leftmost child")
	}
}

// Len must track sizes through interleaved singleton and batch traffic on
// the plain queue-level API.
func TestLockFreeLenTracksSize(t *testing.T) {
	q := NewLockFreeMQ(4)
	r := rng.New(3)
	q.PushBatch(r, []Pair{{1, 10}, {2, 20}, {3, 30}})
	q.Push(r, 4, 5)
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	if _, _, ok := q.Pop(r); !ok {
		t.Fatal("pop failed")
	}
	dst := make([]Pair, 2)
	n := q.PopBatch(r, dst)
	if got := q.Len(); got != 3-n {
		t.Fatalf("Len = %d after popping 1+%d of 4", got, n)
	}
}

// Handles must honour the same contract as the queue methods and
// interleave with them; home shards are advisory, so one handle's pushes
// must be poppable through another handle and through the plain API.
func TestLockFreeHandleInterleaving(t *testing.T) {
	q := NewLockFreeMQ(4)
	r := rng.New(11)
	h1 := q.NewHandle()
	h2 := q.NewHandle()
	defer h1.Close()
	defer h2.Close()

	h1.Push(r, 1, 10)
	h1.PushBatch(r, []Pair{{2, 20}, {3, 30}})
	q.Push(r, 4, 40)
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	seen := map[int64]bool{}
	if v, _, ok := h2.Pop(r); !ok {
		t.Fatal("h2.Pop failed with 4 elements present")
	} else {
		seen[v] = true
	}
	dst := make([]Pair, 8)
	n := h1.PopBatch(r, dst)
	for _, p := range dst[:n] {
		seen[p.Value] = true
	}
	if v, _, ok := q.Pop(r); ok {
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Fatalf("recovered %d distinct values, want 4 (%v)", len(seen), seen)
	}
	if _, _, ok := h2.Pop(r); ok {
		t.Fatal("pop succeeded on a drained queue")
	}
}

// Steady-state traffic through a handle must reuse retired nodes by
// pointer identity: after the epoch pipeline warms up, pops feed pushes.
func TestLockFreeNodeReuse(t *testing.T) {
	q := NewLockFreeMQ(1)
	r := rng.New(9)
	h := q.NewHandle().(*lfHandle)
	defer h.Close()

	// Warm up: cycle enough push/pop pairs for retirement bins to mature
	// into the free list (advance happens every 64 retires, grace is 2).
	for i := int64(0); i < 1024; i++ {
		h.Push(r, i, i)
		h.Pop(r)
	}
	// Now track identity: the node backing a push must eventually be one we
	// popped earlier.
	seen := make(map[*lfnode]bool)
	reused := 0
	for i := int64(0); i < 512; i++ {
		n := h.slot.Alloc()
		if seen[n] {
			reused++
		}
		h.slot.Retire(n)
		seen[n] = true
	}
	if reused == 0 {
		t.Fatal("no node was ever reused through the epoch free list")
	}
}

// A torn publish must never double-deliver or lose elements: hammer one
// shard so every operation contends on the same root pointer, mixing
// handle and queue-level traffic.
func TestLockFreeSingleShardContention(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
	)
	q := NewLockFreeMQ(1) // all traffic on one root
	seen := make([]atomic.Bool, goroutines*perG)
	var popped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 7)
			h := q.NewHandle()
			defer h.Close()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					h.Push(r, int64(g*perG+i), int64(r.Intn(1<<16)))
				} else {
					q.Push(r, int64(g*perG+i), int64(r.Intn(1<<16)))
				}
				if i%2 == 1 {
					if v, _, ok := h.Pop(r); ok {
						if seen[v].Swap(true) {
							t.Errorf("value %d popped twice", v)
						}
						popped.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	r := rng.New(1)
	for {
		v, _, ok := q.Pop(r)
		if !ok {
			break
		}
		if seen[v].Swap(true) {
			t.Errorf("value %d popped twice", v)
		}
		popped.Add(1)
	}
	if got := popped.Load(); got != goroutines*perG {
		t.Fatalf("drained %d of %d", got, goroutines*perG)
	}
}
