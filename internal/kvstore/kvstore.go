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

// entry is one resident chunk, threaded onto its store's intrusive
// recency list — no container/list element allocation per insert, and
// removed entries recycle through their index's freelist instead of
// churning the GC. In a tier stack an entry moves between the stack's
// stores as it is promoted and demoted, and store always names the one it
// is resident in.
type entry struct {
	id         chunk.ID
	payload    Sized
	bytes      int64
	store      *Store // the store e is resident in; nil once freed
	prev, next *entry // recency list when resident; next chains the freelist
}

// index maps every resident id to its entry and recycles freed entries.
// A standalone Store owns one. A Tiered owns one that every store in its
// stack shares: an id has at most one entry in a stack, whichever tier
// holds it, so the index changes only when an id enters or leaves it.
type index struct {
	m    map[chunk.ID]*entry
	free *entry // recycled entries, chained via next
}

// enter indexes id with an entry off the freelist, or a new one.
func (x *index) enter(id chunk.ID) *entry {
	e := x.free
	if e != nil {
		x.free = e.next
		e.next = nil
	} else {
		e = new(entry)
	}
	e.id = id
	x.m[id] = e
	return e
}

// drop deletes e's id and recycles e, clearing its payload reference and
// its store. e must be on no recency list.
func (x *index) drop(e *entry) {
	delete(x.m, e.id)
	*e = entry{next: x.free}
	x.free = e
}

// Store is a capacity-bounded KV cache store on one device. It is either
// standalone, with an index of its own, or one shard of one tier of a
// Tiered stack, sharing the stack's index and demoting its victims.
type Store struct {
	dev        device.Device
	capacity   int64
	used       int64
	n          int // resident entries
	policy     Policy
	head, tail *entry // most recently used; eviction end
	idx        *index
	stack      *Tiered // the stack s is a tier of; nil when standalone
	tier       int     // s's tier in stack
	stats      Stats
}

// New creates a store on dev holding at most capacity bytes. A
// non-positive capacity means unbounded.
func New(dev device.Device, capacity int64, policy Policy) *Store {
	return &Store{
		dev:      dev,
		capacity: capacity,
		policy:   policy,
		idx:      &index{m: make(map[chunk.ID]*entry)},
	}
}

// Device returns the store's backing device.
func (s *Store) Device() device.Device { return s.dev }

// Capacity returns the store's byte budget (≤ 0 = unbounded).
func (s *Store) Capacity() int64 { return s.capacity }

// lookup returns id's entry if it is resident in s. Every Store method
// finds ids through it: a stacked store's index also holds the ids
// resident on the stack's other stores.
func (s *Store) lookup(id chunk.ID) *entry {
	if e := s.idx.m[id]; e != nil && e.store == s {
		return e
	}
	return nil
}

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

// add makes e resident in s at the recency head, as n bytes.
func (s *Store) add(e *entry, n int64) {
	e.store, e.bytes = s, n
	s.pushFront(e)
	s.used += n
	s.n++
}

// take makes e, resident in s, resident nowhere. It stays indexed.
func (s *Store) take(e *entry) {
	s.unlink(e)
	s.used -= e.bytes
	s.n--
}

// place makes e, an indexed entry resident nowhere, resident in s at the
// recency head, sized by its payload, then evicts. A payload larger than
// the whole capacity is refused, leaving e resident nowhere.
func (s *Store) place(e *entry) bool {
	n := e.payload.SizeBytes()
	if s.capacity > 0 && n > s.capacity {
		return false
	}
	s.add(e, n)
	s.evict()
	return true
}

// Get returns the payload for id if present, marking a hit and refreshing
// recency; otherwise it records a miss.
func (s *Store) Get(id chunk.ID) (Sized, bool) {
	e := s.lookup(id)
	if e == nil {
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
func (s *Store) Contains(id chunk.ID) bool { return s.lookup(id) != nil }

// Put inserts or replaces the payload for id, evicting per policy until
// the entry fits. Payloads larger than the whole capacity are rejected.
func (s *Store) Put(id chunk.ID, payload Sized) error { return s.put(id, payload, nil) }

// put is Put for a caller that may already hold id's entry: e, when not
// nil, must be id's entry resident in s, and spares the index probe — the
// tiered store's in-place write. A resident entry is updated in place:
// recency refreshes and growth evicts per policy, exactly as for a
// reinsert. A new entry is linked at the recency head.
func (s *Store) put(id chunk.ID, payload Sized, e *entry) error {
	n := payload.SizeBytes()
	if s.capacity > 0 && n > s.capacity {
		return fmt.Errorf("kvstore: payload %d bytes exceeds capacity %d", n, s.capacity)
	}
	if e == nil {
		e = s.lookup(id)
	}
	if e != nil {
		s.used += n - e.bytes
		e.bytes = n
		if s.policy == LRU {
			s.moveToFront(e)
		}
	} else {
		s.stats.Puts++
		e = s.idx.enter(id)
		s.add(e, n)
	}
	e.payload = payload
	s.evict()
	s.stats.BytesStored = s.used
	return nil
}

// Remove deletes id and returns its payload. It touches neither hit/miss
// nor eviction counters.
func (s *Store) Remove(id chunk.ID) (Sized, bool) {
	e := s.lookup(id)
	if e == nil {
		return nil, false
	}
	payload := e.payload
	s.take(e)
	s.idx.drop(e)
	s.stats.BytesStored = s.used
	return payload, true
}

// evict evicts from the back until within capacity. A standalone store
// drops each victim; a stacked store hands it to its stack, which demotes
// it a tier.
func (s *Store) evict() {
	for s.capacity > 0 && s.used > s.capacity {
		e := s.tail
		s.take(e)
		s.stats.Evictions++
		if s.stack != nil {
			s.stack.demote(s.tier, e)
		} else {
			s.idx.drop(e)
		}
	}
}

// Used returns the current stored bytes.
func (s *Store) Used() int64 {
	return s.used
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	return s.n
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
	e := s.lookup(id)
	if e == nil {
		return 0
	}
	return s.dev.ReadTime(e.bytes)
}
