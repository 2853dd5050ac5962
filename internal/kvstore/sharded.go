// Sharded store: one tier of the serving runtime's KV cache, split into
// shards. Chunk IDs are content hashes, so routing on the ID's leading
// bytes spreads entries uniformly across independent Stores, each with
// its own capacity slice and its own LRU order.
package kvstore

import (
	"encoding/binary"

	"repro/internal/chunk"
	"repro/internal/device"
)

// Sharded is a capacity-bounded KV store split across shards, each
// evicting within its own budget.
type Sharded struct {
	shards []*Store
}

// NewSharded creates a store of n shards on dev with the total capacity
// split evenly (capacity ≤ 0 means unbounded; n ≤ 0 means one shard).
// Shard 0 absorbs the capacity-division remainder so the shard budgets
// sum to exactly capacity (each shard still gets at least 1 byte).
func NewSharded(dev device.Device, capacity int64, policy Policy, n int) *Sharded {
	if n <= 0 {
		n = 1
	}
	s := &Sharded{shards: make([]*Store, n)}
	for i := range s.shards {
		per := int64(0)
		if capacity > 0 {
			per = capacity / int64(n)
			if i == 0 {
				per += capacity % int64(n)
			}
			if per <= 0 {
				per = 1
			}
		}
		s.shards[i] = New(dev, per, policy)
	}
	return s
}

// shard routes id to its shard. Chunk IDs are SHA-256 output, so the
// leading 8 bytes are already uniformly distributed.
func (s *Sharded) shard(id chunk.ID) *Store {
	return s.shards[binary.LittleEndian.Uint64(id[:8])%uint64(len(s.shards))]
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Device returns the backing device (shared by all shards).
func (s *Sharded) Device() device.Device { return s.shards[0].Device() }

// Capacity returns the summed shard byte budgets (0 = unbounded).
func (s *Sharded) Capacity() int64 {
	var n int64
	for _, sh := range s.shards {
		if sh.Capacity() <= 0 {
			return 0
		}
		n += sh.Capacity()
	}
	return n
}

// SetEvictHandler registers fn on every shard; see Store.SetEvictHandler.
func (s *Sharded) SetEvictHandler(fn func(chunk.ID, Sized)) {
	for _, sh := range s.shards {
		sh.SetEvictHandler(fn)
	}
}

// Remove deletes id from its shard without touching hit/miss/eviction
// counters, returning the payload if present.
func (s *Sharded) Remove(id chunk.ID) (Sized, bool) { return s.shard(id).Remove(id) }

// Get looks id up in its shard.
func (s *Sharded) Get(id chunk.ID) (Sized, bool) { return s.shard(id).Get(id) }

// Contains reports presence without touching recency or stats.
func (s *Sharded) Contains(id chunk.ID) bool { return s.shard(id).Contains(id) }

// Peek returns id's payload without touching recency or stats.
func (s *Sharded) Peek(id chunk.ID) (Sized, bool) { return s.shard(id).Peek(id) }

// Put inserts into id's shard, evicting within that shard as needed.
func (s *Sharded) Put(id chunk.ID, payload Sized) error { return s.shard(id).put(id, payload, nil) }

// LoadTime returns the simulated read time of id's payload (0 if absent).
func (s *Sharded) LoadTime(id chunk.ID) float64 { return s.shard(id).LoadTime(id) }

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

// Stats returns the summed counters of all shards.
func (s *Sharded) Stats() Stats {
	var t Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Puts += st.Puts
		t.Evictions += st.Evictions
		t.BytesStored += st.BytesStored
	}
	return t
}
