// Sharded store: one tier of a Tiered stack, split into shards. Chunk IDs
// are content hashes, so routing on the ID's leading bytes spreads entries
// uniformly across the shards, each with its own capacity slice and its
// own LRU order. The shards index through their stack's one index, so a
// lookup needs no shard: only an insert or a demotion picks one.
package kvstore

import (
	"encoding/binary"

	"repro/internal/chunk"
)

// Sharded is one capacity-bounded tier of a stack, split across shards,
// each evicting within its own budget.
type Sharded struct {
	shards []*Store
}

// newSharded builds tier i of stack t from tc: tc.Shards shards (≤ 0
// means one) on tc.Device with tc.Capacity split evenly (≤ 0 means
// unbounded). Shard 0 absorbs the capacity-division remainder so the
// shard budgets sum to exactly the capacity (each shard still gets at
// least 1 byte).
func newSharded(t *Tiered, i int, tc Tier, policy Policy) *Sharded {
	n := tc.Shards
	if n <= 0 {
		n = 1
	}
	s := &Sharded{shards: make([]*Store, n)}
	for j := range s.shards {
		per := int64(0)
		if tc.Capacity > 0 {
			per = tc.Capacity / int64(n)
			if j == 0 {
				per += tc.Capacity % int64(n)
			}
			if per <= 0 {
				per = 1
			}
		}
		s.shards[j] = &Store{dev: tc.Device, capacity: per, policy: policy,
			idx: &t.idx, stack: t, tier: i}
	}
	return s
}

// shard routes id to its shard. Chunk IDs are SHA-256 output, so the
// leading 8 bytes are already uniformly distributed.
func (s *Sharded) shard(id chunk.ID) *Store {
	return s.shards[binary.LittleEndian.Uint64(id[:8])%uint64(len(s.shards))]
}

// Used returns the total stored bytes across shards.
func (s *Sharded) Used() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Used()
	}
	return n
}

// Len returns the total entry count across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Each calls fn for every resident entry across shards (shard by shard,
// recency order within each). See Store.Each.
func (s *Sharded) Each(fn func(id chunk.ID, bytes int64)) {
	for _, sh := range s.shards {
		sh.Each(fn)
	}
}

// evictions sums the shards' eviction counts.
func (s *Sharded) evictions() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.stats.Evictions
	}
	return n
}
