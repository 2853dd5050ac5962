// Package kvstore implements the KV cache store of §5.1: KV caches stored
// under their chunks' content-hash IDs, with capacity accounting, LRU (or
// FIFO) eviction and hit/miss statistics. Every store is a tier stack
// (Tiered) over simulated storage devices, fastest first; a single device
// is the one-tier stack. Loading delay is the read time of the device a
// chunk is found on. A run names each chunk ID once with a dense Handle
// (Names), and the stacks and popularity views index their per-chunk
// state by handle; the chunk.ID methods are forwards that name the ID
// first.
//
// Stores are owned by one simulation run. The serving runtime runs every
// simulated process on one goroutine, so no store takes a lock: none is
// safe for concurrent use, and each parallel sweep cell builds its own.
package kvstore

import "repro/internal/device"

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

// Stats counts store activity. Puts counts successful writes, inserts and
// overwrites alike.
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
// churning the GC. An entry moves between its stack's stores as it is
// promoted and demoted, and store always names the one it is resident in.
// It holds its chunk's handle, not its 32-byte id, so it fits the 64-byte
// size class; the id is read through the stack's table where needed.
type entry struct {
	h          Handle
	payload    Sized
	bytes      int64
	store      *Store // the store e is resident in; nil once freed
	prev, next *entry // recency list when resident; next chains the freelist
}

// index maps every resident handle to its entry and recycles freed
// entries. A Tiered owns one that every store in its stack shares: a
// handle has at most one entry in a stack, whichever tier holds it, so
// the index changes only when a handle enters or leaves it.
type index struct {
	of   []*entry // handle → resident entry; nil where absent
	free *entry   // recycled entries, chained via next
}

// get returns h's entry, or nil.
func (x *index) get(h Handle) *entry {
	if int(h) < len(x.of) {
		return x.of[h]
	}
	return nil
}

// enter indexes h, a handle of table n, with an entry off the freelist,
// or a new one.
func (x *index) enter(h Handle, n *Names) *entry {
	e := x.free
	if e != nil {
		x.free = e.next
		e.next = nil
	} else {
		e = new(entry)
	}
	e.h = h
	x.of = covering(x.of, h, n)
	x.of[h] = e
	return e
}

// drop unindexes e's handle and recycles e, clearing its payload reference
// and its store. e must be on no recency list.
func (x *index) drop(e *entry) {
	x.of[e.h] = nil
	*e = entry{next: x.free}
	x.free = e
}

// Store is a capacity-bounded list of the entries resident on one device:
// one shard of one tier of a Tiered stack. It finds no chunks itself —
// the stack's index does — and hands each eviction victim to its stack,
// which demotes it a tier.
type Store struct {
	dev        device.Device
	capacity   int64 // ≤ 0: unbounded
	used       int64
	n          int // resident entries
	policy     Policy
	head, tail *entry  // most recently used; eviction end
	stack      *Tiered // the stack s is a tier of
	tier       int     // s's tier in stack
	evictions  int64   // victims handed to the stack
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
	e.store, e.bytes = s, n
	s.pushFront(e)
	s.used += n
	s.n++
	s.evict()
	return true
}

// put rewrites e, resident in s, with payload in place: recency
// refreshes and growth evicts per policy, exactly as a reinsert would. A
// payload larger than the whole capacity is refused, leaving e as it was.
func (s *Store) put(e *entry, payload Sized) bool {
	n := payload.SizeBytes()
	if s.capacity > 0 && n > s.capacity {
		return false
	}
	s.used += n - e.bytes
	e.bytes = n
	if s.policy == LRU {
		s.moveToFront(e)
	}
	e.payload = payload
	s.evict()
	return true
}

// evict evicts from the back until within capacity, handing each victim
// to the stack, which demotes it a tier.
func (s *Store) evict() {
	for s.capacity > 0 && s.used > s.capacity {
		e := s.tail
		s.take(e)
		s.evictions++
		s.stack.demote(s.tier, e)
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

// each calls fn for every resident entry with its handle and byte size,
// in recency order (most recently used first). It touches neither recency
// nor statistics; fn must not call back into the store.
func (s *Store) each(fn func(h Handle, bytes int64)) {
	for e := s.head; e != nil; e = e.next {
		fn(e.h, e.bytes)
	}
}
