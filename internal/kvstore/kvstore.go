// Package kvstore implements the KV cache store of §5.1: a hash-addressed
// map from chunk IDs to stored KV caches with capacity accounting, LRU (or
// FIFO) eviction and hit/miss statistics. Each store sits on one simulated
// storage device; loading delay is the device's read time for the entry.
//
// Stores are owned by one simulation run. The serving runtime runs every
// simulated process on one goroutine, so no store takes a lock: none is
// safe for concurrent use, and each parallel sweep cell builds its own.
package kvstore

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/device"
)

// Sized is anything whose storage footprint is known. *kvcache.Cache
// implements it; the serving simulator stores plain byte sizes.
type Sized interface{ SizeBytes() int64 }

// Bytes is a payload that is just a size (used when only capacity
// behaviour matters, e.g. in the serving simulator).
type Bytes int64

// SizeBytes returns the payload size.
func (b Bytes) SizeBytes() int64 { return int64(b) }

// Policy selects the eviction policy.
type Policy int

const (
	// LRU evicts the least recently used entry (the paper's choice).
	LRU Policy = iota
	// FIFO evicts the oldest entry regardless of use (ablation).
	FIFO
)

// Stats counts store activity.
type Stats struct {
	Hits, Misses, Puts, Evictions int64
	BytesStored                   int64
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one resident chunk, threaded onto the store's intrusive
// recency list — no container/list element allocation per insert, and
// removed entries recycle through a freelist instead of churning the GC.
// An entry never moves between stores: each store recycles its own, so
// store names the one store an entry can ever be resident in.
type entry struct {
	id         chunk.ID
	payload    Sized
	bytes      int64
	store      *Store // the store e is resident in; nil once freed
	prev, next *entry // recency list when resident; next chains the freelist
}

// Store is a capacity-bounded KV cache store on one device.
type Store struct {
	dev      device.Device
	capacity int64
	used     int64
	policy   Policy
	head     *entry // most recently used
	tail     *entry // eviction end
	index    map[chunk.ID]*entry
	free     *entry // recycled entries, chained via next
	stats    Stats
	onEvict  func(chunk.ID, Sized)
}

// New creates a store on dev holding at most capacity bytes. A
// non-positive capacity means unbounded.
func New(dev device.Device, capacity int64, policy Policy) *Store {
	return &Store{
		dev:      dev,
		capacity: capacity,
		policy:   policy,
		index:    make(map[chunk.ID]*entry),
	}
}

// Device returns the store's backing device.
func (s *Store) Device() device.Device { return s.dev }

// Capacity returns the store's byte budget (≤ 0 = unbounded).
func (s *Store) Capacity() int64 { return s.capacity }

// pushFront links e at the recency head. e must be unlinked.
func (s *Store) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	} else {
		s.tail = e
	}
	s.head = e
}

// unlink detaches e from the recency list.
func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's recency.
func (s *Store) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// allocEntry takes an entry off the freelist, or heap-allocates one.
func (s *Store) allocEntry() *entry {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &entry{}
}

// freeEntry clears e (dropping its payload reference and its store) and
// recycles it.
func (s *Store) freeEntry(e *entry) {
	*e = entry{next: s.free}
	s.free = e
}

// SetEvictHandler registers fn to receive entries evicted under capacity
// pressure instead of dropping them silently — the hook the tiered store
// uses to demote victims to the next tier. fn runs once the victim has
// left the store, so it may insert into other stores (or even back into
// this one).
func (s *Store) SetEvictHandler(fn func(chunk.ID, Sized)) {
	s.onEvict = fn
}

// Get returns the payload for id if present, marking a hit and refreshing
// recency; otherwise it records a miss.
func (s *Store) Get(id chunk.ID) (Sized, bool) {
	e, ok := s.index[id]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	if s.policy == LRU {
		s.moveToFront(e)
	}
	return e.payload, true
}

// Contains reports presence without touching recency or stats.
func (s *Store) Contains(id chunk.ID) bool {
	_, ok := s.index[id]
	return ok
}

// Peek returns id's payload without touching recency, hit/miss statistics
// or placement — the read the tiered store's prefetch scheduler uses to
// size a transfer without perturbing LRU order.
func (s *Store) Peek(id chunk.ID) (Sized, bool) {
	e, ok := s.index[id]
	if !ok {
		return nil, false
	}
	return e.payload, true
}

// Put inserts or replaces the payload for id, evicting per policy until
// the entry fits. Payloads larger than the whole capacity are rejected.
func (s *Store) Put(id chunk.ID, payload Sized) error { return s.put(id, payload, nil) }

// put is Put for a caller that may already hold id's entry: e, when not
// nil, must be id's resident entry, and spares the index probe — the
// tiered store's write through a Slot. A resident entry is updated in
// place: recency refreshes and growth evicts per policy, exactly as for
// a reinsert. A new entry is linked at the recency head.
func (s *Store) put(id chunk.ID, payload Sized, e *entry) error {
	n := payload.SizeBytes()
	if s.capacity > 0 && n > s.capacity {
		return fmt.Errorf("kvstore: payload %d bytes exceeds capacity %d", n, s.capacity)
	}
	if e == nil {
		e = s.index[id]
	}
	if e != nil {
		s.used += n - e.bytes
		e.payload = payload
		e.bytes = n
		if s.policy == LRU {
			s.moveToFront(e)
		}
	} else {
		s.stats.Puts++
		e = s.allocEntry()
		e.id, e.payload, e.bytes, e.store = id, payload, n, s
		s.index[id] = e
		s.pushFront(e)
		s.used += n
	}
	s.evict()
	s.stats.BytesStored = s.used
	return nil
}

// Remove deletes id and returns its payload. It touches neither hit/miss
// nor eviction counters — the tiered store uses it to move entries
// between tiers without distorting placement statistics.
func (s *Store) Remove(id chunk.ID) (Sized, bool) {
	e, ok := s.index[id]
	if !ok {
		return nil, false
	}
	payload := e.payload
	s.unlink(e)
	delete(s.index, id)
	s.used -= e.bytes
	s.stats.BytesStored = s.used
	s.freeEntry(e)
	return payload, true
}

// evict evicts from the back until within capacity. Each victim goes to
// the evict handler, if one is registered, once it has left the store and
// its entry is recycled.
func (s *Store) evict() {
	if s.capacity <= 0 {
		return
	}
	for s.used > s.capacity {
		e := s.tail
		if e == nil {
			break
		}
		id, payload := e.id, e.payload
		s.unlink(e)
		delete(s.index, id)
		s.used -= e.bytes
		s.stats.Evictions++
		s.freeEntry(e)
		if s.onEvict != nil {
			s.onEvict(id, payload)
		}
	}
}

// Used returns the current stored bytes.
func (s *Store) Used() int64 {
	return s.used
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	return len(s.index)
}

// Each calls fn for every resident entry with its id and byte size, in
// recency order (most recently used first). It touches neither recency
// nor statistics; fn must not call back into the store.
func (s *Store) Each(fn func(id chunk.ID, bytes int64)) {
	for e := s.head; e != nil; e = e.next {
		fn(e.id, e.bytes)
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	st := s.stats
	st.BytesStored = s.used
	return st
}

// LoadTime returns the simulated seconds to read id's payload from the
// backing device (0 if absent). It does not count as a Get.
func (s *Store) LoadTime(id chunk.ID) float64 {
	e, ok := s.index[id]
	if !ok {
		return 0
	}
	return s.dev.ReadTime(e.bytes)
}
