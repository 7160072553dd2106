package cq

import (
	"sync"
	"sync/atomic"

	"relaxsched/internal/epoch"
	"relaxsched/internal/rng"
)

// LockFreeMQ is a nonblocking MultiQueue over mutable, reusable
// pairing-heap nodes. Each shard publishes its heap through a single atomic
// root pointer, and every mutation follows the ownership-transfer pattern:
//
//   - take: one atomic Swap(nil) detaches the shard's entire heap, making
//     the caller its exclusive owner — the lock-free analogue of acquiring
//     the shard lock, except the Swap itself is wait-free and a preempted
//     owner can never block anyone (other operations simply see an
//     apparently empty shard and take their traffic elsewhere, exactly the
//     redirection the two-choice protocol performs anyway);
//   - mutate: the owner melds, deletes minima and reuses nodes with plain
//     in-place pointer surgery — no copying, no allocation on pop;
//   - publish: one CompareAndSwap(nil, heap) re-links the result; if a
//     concurrent publish got there first, the owner Swaps that heap out and
//     melds it in before retrying. Only nil-compare CASes and unconditional
//     Swaps touch the roots, so node reuse can never cause ABA.
//
// The predecessor of this design kept shards as *immutable* pairing heaps:
// safe to share, but every pop copied O(children) nodes to build the
// remainder and no node could ever be reused in place, so allocation could
// only be amortized through sync.Pool bump arenas (the gap ROADMAP tracked
// against the locked MultiQueue). Mutability removes the copies; what it
// needs in exchange is safe reclamation, because one read path still runs
// on shared nodes: the two-choice probe dereferences the prio of roots it
// does not own. internal/epoch provides it — probes run inside an epoch
// critical section, popped nodes are retired to the popper's epoch slot,
// and after the grace period they return through the slot's free list to be
// reinitialized by later pushes ("Are Lock-Free Concurrent Algorithms
// Practically Wait-Free?" gives the scheduling argument for why those
// critical sections stay short and reuse stays fast in practice).
//
// Epoch slots and free lists need a worker identity, so the backend hands
// out per-worker sessions: NewHandle returns a Handle carrying an epoch
// slot and a home shard. Handles are also where shard-affine placement
// lives: a handle's pushes always publish to its home shard and its pops
// probe home-first (home top vs one uniformly random top, preserving
// two-choice rank quality), so a worker's hot path keeps hitting cache
// lines it already owns instead of scattering across all shards — the
// per-core-data discipline of ddtxn applied to the MultiQueue. The plain
// Queue/BatchQueue methods still work for identity-less callers by
// borrowing an anonymous pooled handle per operation.
//
// Like the other backends it keeps no global element counter; Len sums
// per-shard atomic sizes and is exact only at quiescence.
type LockFreeMQ struct {
	queues []lfshard
	dom    *epoch.Domain[lfnode]
	// nextHome deals out home shards round-robin as handles are created, so
	// engine workers 0..T-1 land on distinct shards whenever there are at
	// least as many shards as workers (the registry builds threads *
	// multiplier >= threads of them).
	nextHome atomic.Uint64
	// anon pools single-operation handles for the plain Queue/BatchQueue
	// methods; sync.Pool's per-P caching gives even anonymous callers
	// stable epoch slots and home shards.
	anon sync.Pool
}

// lfshard is one shard: an atomic heap root plus an element count, padded
// so neighbouring shards never share a cache line.
type lfshard struct {
	_    [64]byte
	root atomic.Pointer[lfnode]
	size atomic.Int64
	_    [48]byte
}

// lfnode is a mutable pairing-heap node: child points at the leftmost
// child, sibling links the children of one parent. prio and val are
// written only while the node is unpublished (a fresh or epoch-matured
// reused node); child and sibling are only mutated by a shard owner, so
// the sole shared read — a probe loading root.prio — races nothing.
type lfnode struct {
	prio    int64
	val     int64
	child   *lfnode
	sibling *lfnode
}

// lfMeld links two owned heaps in place: the worse root becomes the better
// root's leftmost child. Either argument may be nil; the melded root's own
// sibling link is left untouched (callers keep roots sibling-free).
func lfMeld(a, b *lfnode) *lfnode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if b.prio < a.prio {
		a, b = b, a
	}
	b.sibling = a.child
	a.child = b
	return a
}

// lfDeleteMin removes the root of an owned heap in place: the classic
// two-pass pairing merge (meld children pairwise left to right, fold right
// to left), using the children's own sibling links as the pass-two stack —
// no allocation, no copying. The detached root's links are cleared; the
// caller retires it.
func lfDeleteMin(h *lfnode) *lfnode {
	c := h.child
	h.child = nil
	var stack *lfnode // melded pairs, chained by sibling, most recent first
	for c != nil {
		a := c
		b := a.sibling
		if b == nil {
			a.sibling = stack
			stack = a
			break
		}
		next := b.sibling
		a.sibling, b.sibling = nil, nil
		m := lfMeld(a, b)
		m.sibling = stack
		stack = m
		c = next
	}
	var merged *lfnode
	for stack != nil {
		next := stack.sibling
		stack.sibling = nil
		merged = lfMeld(merged, stack)
		stack = next
	}
	return merged
}

// NewLockFreeMQ returns a lock-free MultiQueue with q internal shards and
// shard-affine handle placement.
func NewLockFreeMQ(q int) *LockFreeMQ {
	if q < 1 {
		panic("cq: need at least one queue")
	}
	c := &LockFreeMQ{
		queues: make([]lfshard, q),
		dom:    epoch.NewDomain[lfnode](),
	}
	c.anon.New = func() any { return c.NewHandle() }
	return c
}

// NumQueues returns the number of internal shards.
func (c *LockFreeMQ) NumQueues() int { return len(c.queues) }

// RecyclesNodes reports that this backend reuses nodes in place — the
// cqtest allocation-regression suite gates steady-state allocations only on
// backends that claim so.
func (c *LockFreeMQ) RecyclesNodes() bool { return true }

// Len sums the per-shard element counts. Only meaningful at quiescence;
// tests and diagnostics only.
func (c *LockFreeMQ) Len() int {
	total := int64(0)
	for qi := range c.queues {
		total += c.queues[qi].size.Load()
	}
	return int(total)
}

// NewHandle returns a per-worker session: an epoch slot for reclamation
// and a round-robin home shard for affinity. Single-goroutine; Close when
// the worker exits.
func (c *LockFreeMQ) NewHandle() Handle {
	return &lfHandle{
		q:    c,
		slot: c.dom.Register(),
		home: int((c.nextHome.Add(1) - 1) % uint64(len(c.queues))),
	}
}

// borrow takes an anonymous pooled handle for one plain Queue/BatchQueue
// operation.
func (c *LockFreeMQ) borrow() *lfHandle {
	return c.anon.Get().(*lfHandle)
}

// Push inserts one pair through an anonymous handle.
func (c *LockFreeMQ) Push(r *rng.Xoshiro, value, priority int64) {
	h := c.borrow()
	h.Push(r, value, priority)
	c.anon.Put(h)
}

// Pop removes a small-rank pair through an anonymous handle.
func (c *LockFreeMQ) Pop(r *rng.Xoshiro) (value, priority int64, ok bool) {
	h := c.borrow()
	value, priority, ok = h.Pop(r)
	c.anon.Put(h)
	return
}

// PushBatch inserts the whole batch through an anonymous handle.
func (c *LockFreeMQ) PushBatch(r *rng.Xoshiro, pairs []Pair) {
	h := c.borrow()
	h.PushBatch(r, pairs)
	c.anon.Put(h)
}

// PopBatch removes up to len(dst) pairs through an anonymous handle.
func (c *LockFreeMQ) PopBatch(r *rng.Xoshiro, dst []Pair) int {
	h := c.borrow()
	n := h.PopBatch(r, dst)
	c.anon.Put(h)
	return n
}

// lfHandle is one worker's session: its epoch slot (reclamation identity)
// and home shard (placement identity). Single-goroutine.
type lfHandle struct {
	q    *LockFreeMQ
	slot *epoch.Slot[lfnode]
	home int
}

// Close releases the epoch slot for reuse by a future handle. The home
// shard needs no release — affinity is advisory, elements in it stay
// poppable by everyone.
func (h *lfHandle) Close() { h.slot.Close() }

// publish re-links an owned heap into a shard. The fast path is one CAS
// against an empty root; on interference the racing heap is swapped out
// and melded in, so no element is ever abandoned. Each retry certifies
// that another operation published in the meantime — system-wide progress.
func publish(s *lfshard, h *lfnode) {
	//relax:allow spinbound: lock-free by construction — each failed CAS certifies another operation published to this shard (see comment above)
	for {
		if s.root.CompareAndSwap(nil, h) {
			return
		}
		if old := s.root.Swap(nil); old != nil {
			h = lfMeld(old, h)
		}
	}
}

// newNode reinitializes a reused (or freshly allocated) node. Safe exactly
// because the epoch grace period has passed: no probe can still hold the
// node, so rewriting prio races nothing.
func (h *lfHandle) newNode(value, priority int64) *lfnode {
	n := h.slot.Alloc()
	n.prio, n.val, n.child, n.sibling = priority, value, nil, nil
	return n
}

// Push publishes a singleton node — reusing a reclaimed one when available
// — to the handle's home shard.
//
//relax:hotpath
func (h *lfHandle) Push(r *rng.Xoshiro, value, priority int64) {
	if priority == ReservedPriority {
		panic("cq: priority MaxInt64 is reserved")
	}
	s := &h.q.queues[h.home]
	publish(s, h.newNode(value, priority))
	s.size.Add(1)
}

// PushBatch melds the whole batch into one owned heap — no shared-memory
// traffic at all — and publishes it in one round: the strongest
// amortization any backend offers, now allocation-free in steady state.
//
//relax:hotpath
func (h *lfHandle) PushBatch(r *rng.Xoshiro, pairs []Pair) {
	if len(pairs) == 0 {
		return
	}
	var batch *lfnode
	for _, p := range pairs {
		if p.Priority == ReservedPriority {
			panic("cq: priority MaxInt64 is reserved")
		}
		batch = lfMeld(batch, h.newNode(p.Value, p.Priority))
	}
	s := &h.q.queues[h.home]
	publish(s, batch)
	s.size.Add(int64(len(pairs)))
}

// Pop is PopBatch with a batch of one: the probe policy and scan fallback
// live only there.
//
//relax:hotpath
func (h *lfHandle) Pop(r *rng.Xoshiro) (value, priority int64, ok bool) {
	var one [1]Pair
	if h.PopBatch(r, one[:]) == 0 {
		return 0, 0, false
	}
	return one[0].Value, one[0].Priority, true
}

// better compares the tops of two shards inside an epoch critical section
// — the one place a worker dereferences nodes it does not own, and exactly
// what the grace period protects — returning the shard with the smaller
// top, or nil if both appeared empty.
//
//relax:hotpath
func (h *lfHandle) better(a, b *lfshard) *lfshard {
	h.slot.Enter()
	ra, rb := a.root.Load(), b.root.Load()
	var s *lfshard
	switch {
	case ra == nil && rb == nil:
		s = nil
	case ra == nil:
		s = b
	case rb == nil:
		s = a
	case rb.prio < ra.prio:
		s = b
	default:
		s = a
	}
	h.slot.Exit()
	return s
}

// PopBatch detaches the better of two probed shards' heaps, takes up to
// len(dst) successive minima in place (each detached root is retired to
// the handle's epoch slot for eventual reuse), and republishes the
// remainder. The first probe pairs the home shard with one random shard —
// two-choice quality, cache-local on the common path; later probes draw
// both uniformly. After bounded probe
// attempts it falls back to a full scan, so 0 is returned only when every
// shard looked empty at inspection time.
//
//relax:hotpath
func (h *lfHandle) PopBatch(r *rng.Xoshiro, dst []Pair) int {
	if len(dst) == 0 {
		return 0
	}
	q := h.q
	nq := len(q.queues)
	for try := 0; try < contentionAttempts; try++ {
		var a *lfshard
		if try == 0 {
			a = &q.queues[h.home]
		} else {
			a = &q.queues[r.Intn(nq)]
		}
		s := h.better(a, &q.queues[r.Intn(nq)])
		if s == nil {
			// Both probes empty: go straight to the authoritative scan.
			// Retrying the random probes would just make apparent-empty pops
			// — the termination protocol's hot case — pay contentionAttempts
			// rounds for nothing; the attempts budget is for losing takes.
			break
		}
		if n := h.takeFrom(s, dst); n > 0 {
			return n
		}
	}
	// Probes kept missing or losing takes: scan every shard. takeFrom
	// returns 0 only if the Swap found the root nil, so a zero scan means
	// every shard looked empty at its inspection instant.
	for qi := range q.queues {
		if n := h.takeFrom(&q.queues[qi], dst); n > 0 {
			return n
		}
	}
	return 0
}

// takeFrom detaches s's heap, harvests up to len(dst) minima in place and
// republishes the remainder. The popped roots are retired — after the
// epoch grace period they come back through the slot's free list.
//
//relax:hotpath
func (h *lfHandle) takeFrom(s *lfshard, dst []Pair) int {
	// Load-only fast path: an apparently empty shard costs a read, not an
	// atomic RMW on its root cache line. This is what idle workers hammer
	// while the termination double scan converges.
	if s.root.Load() == nil {
		return 0
	}
	root := s.root.Swap(nil)
	if root == nil {
		return 0
	}
	n := 0
	for root != nil && n < len(dst) {
		dst[n] = Pair{Value: root.val, Priority: root.prio}
		n++
		rest := lfDeleteMin(root)
		h.slot.Retire(root)
		root = rest
	}
	if root != nil {
		publish(s, root)
	}
	s.size.Add(-int64(n))
	return n
}

var (
	_ Queue       = (*LockFreeMQ)(nil)
	_ BatchQueue  = (*LockFreeMQ)(nil)
	_ HandleQueue = (*LockFreeMQ)(nil)
	_ Handle      = (*lfHandle)(nil)
)

// Recycler is implemented by backends whose nodes are reused in place
// after safe-reclamation grace periods. cqtest uses it to decide whether
// steady-state allocations are gated (recycling backends must show reuse)
// or merely recorded as a baseline.
type Recycler interface {
	// RecyclesNodes reports whether steady-state push/pop traffic reuses
	// nodes instead of allocating.
	RecyclesNodes() bool
}
