// Package multiqueue implements the MultiQueue relaxed priority queue of
// Rihani, Sanders & Dementiev (SPAA 2015), analyzed by Alistarh et al.
// (PODC 2017): q sequential priority queues; insertions go to a random (or
// hashed) queue; deletions probe c queues uniformly at random and take the
// best top element. With q = O(p) queues the structure is k-relaxed with
// k = O(q log q) with high probability, which is the regime the paper's
// experiments run in.
//
// MultiQueue is the sequential-model variant: it implements sched.Scheduler
// (+ DecreaseKey via consistent hashing of task ids to queues) and is used
// by the incremental-algorithm framework and the lower-bound experiment of
// Section 5. The concurrent MultiQueue that the engine and the parallel
// workloads of Section 7 run on is cq.MultiQueue in internal/cq.
package multiqueue

import (
	"relaxsched/internal/pq"
	"relaxsched/internal/rng"
	"relaxsched/internal/sched"
)

// InsertPolicy selects how tasks are assigned to queues.
type InsertPolicy int

const (
	// RandomQueue inserts each task into a uniformly random queue. This is
	// the textbook MultiQueue and the variant used in the Section 5 lower
	// bound. DecreaseKey is not supported under this policy.
	RandomQueue InsertPolicy = iota
	// HashedQueue assigns each task to the queue determined by a hash of
	// its id, enabling DecreaseKey (the task can always be found again).
	// The paper notes this is how SprayList/MultiQueue support SSSP.
	HashedQueue
)

// MultiQueue is the sequential-model MultiQueue. It implements
// sched.Scheduler; with HashedQueue policy it also implements
// sched.DecreaseKeyer.
type MultiQueue struct {
	queues   []pq.Pairing
	nodes    []*pq.Node // task -> handle (nil when absent)
	qOf      []int32    // task -> queue index (valid while node non-nil)
	policy   InsertPolicy
	choices  int
	rand     *rng.Xoshiro
	size     int
	hashSalt uint64
}

// New returns a MultiQueue with q queues over task ids in [0, n), popping
// with c-choice probing (the classic structure uses c = 2).
func New(n, q, c int, policy InsertPolicy, seed uint64) *MultiQueue {
	if q < 1 {
		panic("multiqueue: need at least one queue")
	}
	if c < 1 {
		panic("multiqueue: need at least one choice")
	}
	return &MultiQueue{
		queues:   make([]pq.Pairing, q),
		nodes:    make([]*pq.Node, n),
		qOf:      make([]int32, n),
		policy:   policy,
		choices:  c,
		rand:     rng.New(seed),
		hashSalt: rng.Mix64(seed ^ 0x5eed),
	}
}

// NumQueues returns the number of internal queues.
func (m *MultiQueue) NumQueues() int { return len(m.queues) }

// Empty reports whether no tasks are pending.
func (m *MultiQueue) Empty() bool { return m.size == 0 }

// Len reports the number of pending tasks.
func (m *MultiQueue) Len() int { return m.size }

// queueFor picks the insertion queue for a task under the current policy.
func (m *MultiQueue) queueFor(task int) int {
	if m.policy == HashedQueue {
		return int(rng.Mix64(uint64(task)^m.hashSalt) % uint64(len(m.queues)))
	}
	return m.rand.Intn(len(m.queues))
}

// Insert adds a task with the given priority.
func (m *MultiQueue) Insert(task int, priority int64) {
	if m.nodes[task] != nil {
		panic("multiqueue: Insert of pending task")
	}
	q := m.queueFor(task)
	m.nodes[task] = m.queues[q].Insert(int64(task), priority)
	m.qOf[task] = int32(q)
	m.size++
}

// ApproxGetMin probes c random queues and returns the best top element
// without removing it. If all probed queues are empty it falls back to a
// linear scan, so ok is false only when the whole structure is empty.
func (m *MultiQueue) ApproxGetMin() (int, int64, bool) {
	if m.size == 0 {
		return 0, 0, false
	}
	var best *pq.Node
	for i := 0; i < m.choices; i++ {
		q := m.rand.Intn(len(m.queues))
		if top := m.queues[q].Min(); top != nil {
			if best == nil || top.Priority() < best.Priority() {
				best = top
			}
		}
	}
	if best == nil {
		// All probed queues were empty; scan for any non-empty queue.
		for q := range m.queues {
			if top := m.queues[q].Min(); top != nil {
				best = top
				break
			}
		}
	}
	if best == nil {
		return 0, 0, false
	}
	return int(best.Value), best.Priority(), true
}

// DeleteTask removes a pending task.
func (m *MultiQueue) DeleteTask(task int) {
	n := m.nodes[task]
	if n == nil {
		panic("multiqueue: DeleteTask of absent task")
	}
	m.queues[m.qOf[task]].Remove(n)
	m.nodes[task] = nil
	m.size--
}

// Contains reports whether the task is pending.
func (m *MultiQueue) Contains(task int) bool { return m.nodes[task] != nil }

// SupportsDecreaseKey reports whether this MultiQueue can locate elements
// for DecreaseKey (true only under the HashedQueue policy).
func (m *MultiQueue) SupportsDecreaseKey() bool { return m.policy == HashedQueue }

// DecreaseKey lowers a pending task's priority. It requires the HashedQueue
// policy (the paper's consistent-hashing construction); under RandomQueue it
// panics, because the classic MultiQueue cannot locate an element.
func (m *MultiQueue) DecreaseKey(task int, priority int64) {
	if m.policy != HashedQueue {
		panic("multiqueue: DecreaseKey requires HashedQueue policy")
	}
	n := m.nodes[task]
	if n == nil {
		panic("multiqueue: DecreaseKey of absent task")
	}
	m.queues[m.qOf[task]].DecreaseKey(n, priority)
}

var _ sched.Scheduler = (*MultiQueue)(nil)
var _ sched.DecreaseKeyer = (*MultiQueue)(nil)
