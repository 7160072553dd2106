package txn

import "sync/atomic"

// record is one versioned KV cell, padded to a cache line.
//
// word is the TL2-style version word: version<<1 | lockbit. Only a
// committing writer changes the value, and it does so under the lock bit
// and releases with a version bump. That single rule is what makes OCC
// validation sufficient: an observation (read value or lock anchor) is
// still valid iff word is unchanged, because any completed install changed
// it and any install in flight holds the lock bit.
type record struct {
	word atomic.Uint64
	val  atomic.Int64
	_    [48]byte
}

// store is the sharded in-memory KV table: dense int32 keys striped across
// storeShards shards (interleaved, so adjacent hot keys land on different
// shards and different cache-line neighborhoods).
const (
	storeShards    = 16
	storeShardBits = 4
)

type store struct {
	shards [storeShards][]record
	keys   int
}

func newStore(keys int) *store {
	st := &store{keys: keys}
	for s := 0; s < storeShards; s++ {
		n := keys / storeShards
		if s < keys%storeShards {
			n++
		}
		st.shards[s] = make([]record, n)
	}
	return st
}

func (st *store) rec(key int32) *record {
	return &st.shards[key&(storeShards-1)][key>>storeShardBits]
}

// lock claims the record iff its word still matches the observation —
// locking and write validation are the same CAS.
func (r *record) lock(word uint64) bool {
	return r.word.CompareAndSwap(word, word|1)
}

// unlockBump releases the lock, advancing the version.
func (r *record) unlockBump(word uint64) {
	r.word.Store(((word >> 1) + 1) << 1)
}

// unlockRestore releases the lock without a version bump (abort path: the
// value was not touched, so concurrent observations stay valid).
func (r *record) unlockRestore(word uint64) {
	r.word.Store(word)
}

// snapshot copies the final values; call only after the run has quiesced.
func (st *store) snapshot() []int64 {
	out := make([]int64, st.keys)
	for k := 0; k < st.keys; k++ {
		out[k] = st.rec(int32(k)).val.Load()
	}
	return out
}
