package kvstore

// The tier stack as it stood before each stack got one index: a Store per
// shard with its own map and freelist, Sharded routing every call to a
// shard, and Tiered searching the tiers top-down and moving entries
// between them by Remove and Put through evict handlers. It is kept
// verbatim, with its types renamed, as the reference the fuzz targets
// replay every op on: the one-index stack must return the same values and
// leave the same tiers, recency order, statistics and transfers.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/chunk"
	"repro/internal/device"
)

// entry is one resident chunk, threaded onto the store's intrusive
// recency list — no container/list element allocation per insert, and
// removed entries recycle through a freelist instead of churning the GC.
// An entry never moves between stores: each store recycles its own, so
// store names the one store an entry can ever be resident in.
type refEntry struct {
	id         chunk.ID
	payload    Sized
	bytes      int64
	store      *refStore // the store e is resident in; nil once freed
	prev, next *refEntry // recency list when resident; next chains the freelist
}

// refStore is a capacity-bounded KV cache store on one device.
type refStore struct {
	dev      device.Device
	capacity int64
	used     int64
	policy   Policy
	head     *refEntry // most recently used
	tail     *refEntry // eviction end
	index    map[chunk.ID]*refEntry
	free     *refEntry // recycled entries, chained via next
	stats    Stats
	onEvict  func(chunk.ID, Sized)
}

// New creates a store on dev holding at most capacity bytes. A
// non-positive capacity means unbounded.
func newRefStore(dev device.Device, capacity int64, policy Policy) *refStore {
	return &refStore{
		dev:      dev,
		capacity: capacity,
		policy:   policy,
		index:    make(map[chunk.ID]*refEntry),
	}
}

// Device returns the store's backing device.
func (s *refStore) Device() device.Device { return s.dev }

// Capacity returns the store's byte budget (≤ 0 = unbounded).
func (s *refStore) Capacity() int64 { return s.capacity }

// pushFront links e at the recency head. e must be unlinked.
func (s *refStore) pushFront(e *refEntry) {
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
func (s *refStore) unlink(e *refEntry) {
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
func (s *refStore) moveToFront(e *refEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// allocEntry takes an entry off the freelist, or heap-allocates one.
func (s *refStore) allocEntry() *refEntry {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &refEntry{}
}

// freeEntry clears e (dropping its payload reference and its store) and
// recycles it.
func (s *refStore) freeEntry(e *refEntry) {
	*e = refEntry{next: s.free}
	s.free = e
}

// SetEvictHandler registers fn to receive entries evicted under capacity
// pressure instead of dropping them silently — the hook the tiered store
// uses to demote victims to the next tier. fn runs once the victim has
// left the store, so it may insert into other stores (or even back into
// this one).
func (s *refStore) SetEvictHandler(fn func(chunk.ID, Sized)) {
	s.onEvict = fn
}

// Get returns the payload for id if present, marking a hit and refreshing
// recency; otherwise it records a miss.
func (s *refStore) Get(id chunk.ID) (Sized, bool) {
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
func (s *refStore) Contains(id chunk.ID) bool {
	_, ok := s.index[id]
	return ok
}

// Peek returns id's payload without touching recency, hit/miss statistics
// or placement — the read the tiered store's prefetch scheduler uses to
// size a transfer without perturbing LRU order.
func (s *refStore) Peek(id chunk.ID) (Sized, bool) {
	e, ok := s.index[id]
	if !ok {
		return nil, false
	}
	return e.payload, true
}

// Put inserts or replaces the payload for id, evicting per policy until
// the entry fits. Payloads larger than the whole capacity are rejected.
func (s *refStore) Put(id chunk.ID, payload Sized) error { return s.put(id, payload, nil) }

// put is Put for a caller that may already hold id's entry: e, when not
// nil, must be id's resident entry, and spares the index probe — the
// tiered store's write through a refSlot. A resident entry is updated in
// place: recency refreshes and growth evicts per policy, exactly as for
// a reinsert. A new entry is linked at the recency head.
func (s *refStore) put(id chunk.ID, payload Sized, e *refEntry) error {
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
func (s *refStore) Remove(id chunk.ID) (Sized, bool) {
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
func (s *refStore) evict() {
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
func (s *refStore) Used() int64 {
	return s.used
}

// Len returns the number of stored entries.
func (s *refStore) Len() int {
	return len(s.index)
}

// Each calls fn for every resident entry with its id and byte size, in
// recency order (most recently used first). It touches neither recency
// nor statistics; fn must not call back into the store.
func (s *refStore) Each(fn func(id chunk.ID, bytes int64)) {
	for e := s.head; e != nil; e = e.next {
		fn(e.id, e.bytes)
	}
}

// Stats returns a snapshot of the counters.
func (s *refStore) Stats() Stats {
	st := s.stats
	st.BytesStored = s.used
	return st
}

// LoadTime returns the simulated seconds to read id's payload from the
// backing device (0 if absent). It does not count as a Get.
func (s *refStore) LoadTime(id chunk.ID) float64 {
	e, ok := s.index[id]
	if !ok {
		return 0
	}
	return s.dev.ReadTime(e.bytes)
}

// refSharded is a capacity-bounded KV store split across shards, each
// evicting within its own budget.
type refSharded struct {
	shards []*refStore
}

// newRefSharded creates a store of n shards on dev with the total capacity
// split evenly (capacity ≤ 0 means unbounded; n ≤ 0 means one shard).
// Shard 0 absorbs the capacity-division remainder so the shard budgets
// sum to exactly capacity (each shard still gets at least 1 byte).
func newRefSharded(dev device.Device, capacity int64, policy Policy, n int) *refSharded {
	if n <= 0 {
		n = 1
	}
	s := &refSharded{shards: make([]*refStore, n)}
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
		s.shards[i] = newRefStore(dev, per, policy)
	}
	return s
}

// shard routes id to its shard. Chunk IDs are SHA-256 output, so the
// leading 8 bytes are already uniformly distributed.
func (s *refSharded) shard(id chunk.ID) *refStore {
	return s.shards[binary.LittleEndian.Uint64(id[:8])%uint64(len(s.shards))]
}

// Shards returns the number of shards.
func (s *refSharded) Shards() int { return len(s.shards) }

// Device returns the backing device (shared by all shards).
func (s *refSharded) Device() device.Device { return s.shards[0].Device() }

// Capacity returns the summed shard byte budgets (0 = unbounded).
func (s *refSharded) Capacity() int64 {
	var n int64
	for _, sh := range s.shards {
		if sh.Capacity() <= 0 {
			return 0
		}
		n += sh.Capacity()
	}
	return n
}

// SetEvictHandler registers fn on every shard; see refStore.SetEvictHandler.
func (s *refSharded) SetEvictHandler(fn func(chunk.ID, Sized)) {
	for _, sh := range s.shards {
		sh.SetEvictHandler(fn)
	}
}

// Remove deletes id from its shard without touching hit/miss/eviction
// counters, returning the payload if present.
func (s *refSharded) Remove(id chunk.ID) (Sized, bool) { return s.shard(id).Remove(id) }

// Get looks id up in its shard.
func (s *refSharded) Get(id chunk.ID) (Sized, bool) { return s.shard(id).Get(id) }

// Contains reports presence without touching recency or stats.
func (s *refSharded) Contains(id chunk.ID) bool { return s.shard(id).Contains(id) }

// Peek returns id's payload without touching recency or stats.
func (s *refSharded) Peek(id chunk.ID) (Sized, bool) { return s.shard(id).Peek(id) }

// Put inserts into id's shard, evicting within that shard as needed.
func (s *refSharded) Put(id chunk.ID, payload Sized) error { return s.shard(id).put(id, payload, nil) }

// LoadTime returns the simulated read time of id's payload (0 if absent).
func (s *refSharded) LoadTime(id chunk.ID) float64 { return s.shard(id).LoadTime(id) }

// Used returns the total stored bytes across shards.
func (s *refSharded) Used() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Used()
	}
	return n
}

// Len returns the total entry count across shards.
func (s *refSharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Each calls fn for every resident entry across shards (shard by shard,
// recency order within each). See refStore.Each.
func (s *refSharded) Each(fn func(id chunk.ID, bytes int64)) {
	for _, sh := range s.shards {
		sh.Each(fn)
	}
}

// Stats returns the summed counters of all shards.
func (s *refSharded) Stats() Stats {
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

// refTiered is a multi-tier KV store in which a chunk lives on at most one
// tier. Like refStore, it is owned by one run and not safe for concurrent
// use.
type refTiered struct {
	tiers  []*refSharded
	cfg    []Tier
	hits   []int64 // lookups served per tier
	promos []int64 // promotions out of each tier
	demos  []int64 // demotions out of each tier
	drops  []int64 // demotions the next tier rejected (oversize payload)
	misses int64
	puts   int64

	// In-flight prefetch transfer model (prefetch.go).
	flights   map[chunk.ID]*refTransfer // keys currently being promoted
	flightQ   []*refTransfer            // issue-ordered queue advance drains
	flightSeq int
	unread    map[chunk.ID]int64 // completed prefetches no lookup has touched
	pf        PrefetchStats
}

// newRefTiered builds a tier stack, fastest tier first. Every tier above the
// bottom must be capacity-bounded (an unbounded upper tier would never
// demote, starving the tiers below it).
func newRefTiered(tiers []Tier, policy Policy) (*refTiered, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("kvstore: tiered store needs at least one tier")
	}
	t := &refTiered{
		tiers:   make([]*refSharded, len(tiers)),
		cfg:     append([]Tier(nil), tiers...),
		hits:    make([]int64, len(tiers)),
		promos:  make([]int64, len(tiers)),
		demos:   make([]int64, len(tiers)),
		drops:   make([]int64, len(tiers)),
		flights: make(map[chunk.ID]*refTransfer),
		unread:  make(map[chunk.ID]int64),
	}
	for i, tc := range tiers {
		if err := tc.Device.Validate(); err != nil {
			return nil, err
		}
		if tc.Capacity <= 0 && i < len(tiers)-1 {
			return nil, fmt.Errorf("kvstore: tier %d (%s) above the bottom must be bounded", i, tc.Device.Name)
		}
		n := tc.Shards
		if n <= 0 {
			n = 1
		}
		t.tiers[i] = newRefSharded(tc.Device, tc.Capacity, policy, n)
	}
	// Demotion cascade: tier i's LRU victims land on tier i+1 (which may
	// evict in turn, recursing at most len(tiers)-1 deep). The bottom
	// tier keeps the default drop-on-evict.
	for i := 0; i < len(t.tiers)-1; i++ {
		i, next := i, t.tiers[i+1]
		t.tiers[i].SetEvictHandler(func(id chunk.ID, payload Sized) {
			if i == 0 {
				// Demoted off the top before any lookup used it: an
				// unread prefetch promotion was undone.
				t.wasteUnread(id)
			}
			if err := next.Put(id, payload); err != nil {
				t.drops[i]++ // next tier's shard cannot hold it: drop
				return
			}
			t.demos[i]++
		})
	}
	return t, nil
}

// mustRefTiered is newRefTiered for static configurations known to be valid.
func mustRefTiered(tiers []Tier, policy Policy) *refTiered {
	t, err := newRefTiered(tiers, policy)
	if err != nil {
		panic(err)
	}
	return t
}

// Depth returns the number of tiers.
func (t *refTiered) Depth() int { return len(t.tiers) }

// TierDevice returns tier i's device.
func (t *refTiered) TierDevice(i int) device.Device { return t.cfg[i].Device }

// Get searches the tiers top-down. On a hit it returns the payload and
// the tier index it was found on (the tier whose loading delay the
// caller should charge), then promotes the chunk to the top tier — the
// promotion may cascade demotions downward. A chunk the top tier cannot
// hold stays where it is.
func (t *refTiered) Get(id chunk.ID) (Sized, int, bool) {
	for i, tier := range t.tiers {
		payload, ok := tier.Get(id)
		if !ok {
			continue
		}
		t.hits[i]++
		if i > 0 {
			// Remove before re-inserting at the top: the promotion's
			// demotion cascade could otherwise push another chunk into
			// tier i and evict this one to i+1, leaving it on two tiers.
			tier.Remove(id)
			if err := t.tiers[0].Put(id, payload); err != nil {
				// Top tier can never hold it: put it back where it was.
				tier.Put(id, payload) //nolint:errcheck // it fit before
			} else {
				t.promos[i]++
			}
		}
		return payload, i, true
	}
	t.misses++
	return nil, -1, false
}

// Contains reports presence on any tier without touching recency, stats
// or placement.
func (t *refTiered) Contains(id chunk.ID) bool {
	for _, tier := range t.tiers {
		if tier.Contains(id) {
			return true
		}
	}
	return false
}

// Put inserts or replaces id on the highest tier that accepts it (new
// chunks are presumed hot). A previous copy on another tier is removed
// first so the chunk never straddles tiers. If no tier can hold the
// payload an error is returned.
func (t *refTiered) Put(id chunk.ID, payload Sized) error { return t.PutSlot(nil, id, payload) }

// refSlot is a handle on the entry a refTiered store last wrote for one id,
// for a caller that rewrites that id over and over — the serving
// runtime's per-token decode-KV append. The zero refSlot names no entry.
// A refSlot never changes what a write does, only how fast it finds the
// entry: a handle whose entry was since freed, recycled, demoted or
// removed is detected and refreshed by the next write through it.
type refSlot struct{ e *refEntry }

// PutSlot is Put through s (nil: no handle). An id already resident on
// the top tier is updated in place — entry reused, recency refreshed,
// growth evicting exactly as a reinsert would. When s names that entry
// the write reaches it without probing the tier's index: an entry knows
// the store it is resident in, and only id's top-tier shard can hold it.
// Every other write takes the index, or the remove-and-reinsert path,
// and leaves s naming the entry it wrote.
func (t *refTiered) PutSlot(s *refSlot, id chunk.ID, payload Sized) error {
	if len(t.flights) > 0 {
		t.cancel(id) // the new payload supersedes any copy in flight
	}
	top := t.tiers[0].shard(id)
	var e *refEntry
	if s != nil && s.e != nil && s.e.store == top && s.e.id == id {
		e = s.e
	} else {
		e = top.index[id]
	}
	var err error
	if e != nil {
		// A payload the top tier cannot hold falls through to the tiers
		// below, with the store untouched.
		if err = top.put(id, payload, e); err == nil {
			t.puts++
			s.set(e)
			return nil
		}
	}
	for _, tier := range t.tiers {
		tier.Remove(id)
	}
	for _, tier := range t.tiers {
		st := tier.shard(id)
		if err = st.put(id, payload, nil); err == nil {
			t.puts++
			// id was on no tier, so put linked a new entry at st's head,
			// and its evictions only move other entries to lower tiers.
			s.set(st.head)
			return nil
		}
	}
	s.set(nil)
	return fmt.Errorf("kvstore: no tier can hold %d bytes: %w", payload.SizeBytes(), err)
}

// set points s at e; a nil s is the handle-less Put.
func (s *refSlot) set(e *refEntry) {
	if s != nil {
		s.e = e
	}
}

// Remove deletes id from whichever tier holds it, reporting whether it
// was present. Removal is a release, not an eviction: it fires no evict
// handler and touches no hit/miss statistics. The serving runtime uses
// it to free a retired request's generated KV.
func (t *refTiered) Remove(id chunk.ID) bool {
	t.cancel(id) // a removed key must never resurrect at arrival
	t.wasteUnread(id)
	removed := false
	for _, tier := range t.tiers {
		if _, ok := tier.Remove(id); ok {
			removed = true
		}
	}
	return removed
}

// LoadTime returns the simulated seconds to read id's payload from the
// tier it currently lives on (0 if absent). It does not count as a Get
// and does not promote.
func (t *refTiered) LoadTime(id chunk.ID) float64 {
	for _, tier := range t.tiers {
		if lt := tier.LoadTime(id); lt > 0 {
			return lt
		}
	}
	return 0
}

// Used returns the total resident bytes across tiers.
func (t *refTiered) Used() int64 {
	var n int64
	for _, tier := range t.tiers {
		n += tier.Used()
	}
	return n
}

// Len returns the total entry count across tiers.
func (t *refTiered) Len() int {
	n := 0
	for _, tier := range t.tiers {
		n += tier.Len()
	}
	return n
}

// Each calls fn for every entry resident in the hierarchy with its id and
// byte size, tier by tier from the top. A chunk lives on at most one tier,
// so ids are distinct. The affinity router's duplication accounting walks
// per-replica stores with it; fn must not call back into the store.
func (t *refTiered) Each(fn func(id chunk.ID, bytes int64)) {
	for _, tier := range t.tiers {
		tier.Each(fn)
	}
}

// TierStats snapshots per-tier placement telemetry, top tier first.
func (t *refTiered) TierStats() []TierStats {
	out := make([]TierStats, len(t.tiers))
	for i, tier := range t.tiers {
		out[i] = TierStats{
			Device:        t.cfg[i].Device.Name,
			Capacity:      t.cfg[i].Capacity,
			Hits:          t.hits[i],
			Promotions:    t.promos[i],
			Demotions:     t.demos[i],
			Evictions:     t.drops[i],
			BytesResident: tier.Used(),
		}
		if i == len(t.tiers)-1 {
			out[i].Evictions += tier.Stats().Evictions
		}
	}
	return out
}

// Stats aggregates the hierarchy into the flat Stats shape: hits and
// misses are whole-hierarchy lookups (per-tier probe noise excluded),
// evictions count only entries that left the hierarchy.
func (t *refTiered) Stats() Stats {
	st := Stats{Misses: t.misses, Puts: t.puts}
	for _, s := range t.TierStats() {
		st.Hits += s.Hits
		st.Evictions += s.Evictions
		st.BytesStored += s.BytesResident
	}
	return st
}

// Close is a no-op: a tiered store holds no goroutine or file to
// release. It is kept so callers that close their stores still build.
func (t *refTiered) Close() {}

// transfer is one in-flight prefetch promotion: id's payload is being
// copied from tier src to the top tier, completing at arrival.
type refTransfer struct {
	id        chunk.ID
	payload   Sized
	src       int
	bytes     int64
	arrival   float64
	seq       int  // issue order, breaking equal-arrival completion ties
	read      bool // a lookup joined the transfer in flight
	cancelled bool // superseded by Put or cancelled by Remove
}

// Prefetch schedules an asynchronous promotion of id from the cold tier
// it lives on to the top tier. The transfer is in flight until the
// returned arrival time: reads before then join it via GetAt and pay only
// the residual wait. bw is the loader's bandwidth budget as a fraction of
// the source tier's read bandwidth (0 or 1 = the full device). started is
// false when there is nothing to do — id absent, already on the top tier,
// or already in flight (arrival then reports the existing transfer's
// completion time).
func (t *refTiered) Prefetch(id chunk.ID, now, bw float64) (arrival float64, started bool) {
	t.advance(now)
	if tr, ok := t.flights[id]; ok {
		return tr.arrival, false
	}
	src := -1
	var payload Sized
	for i, tier := range t.tiers {
		if p, ok := tier.Peek(id); ok {
			src, payload = i, p
			break
		}
	}
	if src <= 0 {
		return 0, false // absent, or already hot
	}
	if bw <= 0 {
		bw = 1
	}
	bytes := payload.SizeBytes()
	t.flightSeq++
	tr := &refTransfer{
		id: id, payload: payload, src: src, bytes: bytes,
		arrival: now + t.cfg[src].Device.ReadTime(bytes)/bw,
		seq:     t.flightSeq,
	}
	t.flights[id] = tr
	t.flightQ = append(t.flightQ, tr)
	t.pf.Issued++
	t.pf.BytesMoved += bytes
	return tr.arrival, true
}

// GetAt is the prefetch-aware Get: it first applies every transfer due by
// now, then looks id up. A lookup that finds its chunk still in flight
// joins the transfer — it returns the residual wait (arrival − now), the
// only time the read should be charged, counts a hit on the source tier,
// and leaves the promotion to the transfer's completion. Any other lookup
// behaves exactly like Get.
func (t *refTiered) GetAt(id chunk.ID, now float64) (payload Sized, tier int, wait float64, ok bool) {
	t.advance(now)
	if tr, ok := t.flights[id]; ok {
		t.hits[tr.src]++
		t.pf.Hits++
		t.pf.InflightJoins++
		tr.read = true
		return tr.payload, tr.src, tr.arrival - now, true
	}
	payload, tier, ok = t.Get(id)
	if ok {
		if _, unread := t.unread[id]; unread {
			t.pf.Hits++ // first read of a completed prefetch: it paid off
			delete(t.unread, id)
		}
	}
	return payload, tier, 0, ok
}

// TierOf reports the tier index id currently lives on (-1 if absent)
// without touching recency, statistics or placement. The predictive
// prefetcher uses it to pick popular-but-cold candidates.
func (t *refTiered) TierOf(id chunk.ID) int {
	for i, tier := range t.tiers {
		if tier.Contains(id) {
			return i
		}
	}
	return -1
}

// Inflight reports how many transfers are currently in flight.
func (t *refTiered) Inflight() int {
	return len(t.flights)
}

// PrefetchStats snapshots the transfer-model counters.
func (t *refTiered) PrefetchStats() PrefetchStats {
	return t.pf
}

// advance applies every transfer due by now, in (arrival, issue)
// order so concurrent loaders complete deterministically.
func (t *refTiered) advance(now float64) {
	if len(t.flightQ) == 0 {
		return
	}
	var due []*refTransfer
	rest := t.flightQ[:0]
	for _, tr := range t.flightQ {
		switch {
		case tr.cancelled: // dropped from the queue
		case tr.arrival <= now:
			due = append(due, tr)
		default:
			rest = append(rest, tr)
		}
	}
	t.flightQ = rest
	sort.Slice(due, func(i, j int) bool {
		if due[i].arrival != due[j].arrival {
			return due[i].arrival < due[j].arrival
		}
		return due[i].seq < due[j].seq
	})
	for _, tr := range due {
		t.complete(tr)
	}
}

// complete lands one due transfer: the payload moves from wherever
// the chunk now lives to the top tier (the residence may have shifted
// under demotion cascades while in flight). A chunk that left the
// hierarchy mid-flight is NOT re-inserted — its bytes moved for nothing.
func (t *refTiered) complete(tr *refTransfer) {
	delete(t.flights, tr.id)
	src := -1
	for i, tier := range t.tiers {
		if tier.Contains(tr.id) {
			src = i
			break
		}
	}
	switch {
	case src < 0:
		// Evicted while in flight: never resurrect.
		t.pf.BytesWasted += tr.bytes
		return
	case src == 0:
		// Already hot (re-inserted ahead of the transfer): nothing to move.
		t.pf.Completed++
		return
	}
	payload, _ := t.tiers[src].Remove(tr.id)
	if err := t.tiers[0].Put(tr.id, payload); err != nil {
		t.tiers[src].Put(tr.id, payload) //nolint:errcheck // it fit before
		t.pf.BytesWasted += tr.bytes
		return
	}
	t.promos[src]++
	t.pf.Completed++
	if !tr.read {
		t.unread[tr.id] = tr.bytes
	}
}

// Drain cancels every in-flight transfer and reports how many it
// aborted — the close semantics for a node that dies mid-run: its
// loader stops issuing, and the bytes already streaming toward the top
// tier count as wasted unless a join read them. The store itself stays
// readable (run-end statistics still aggregate over dead nodes); only
// the transfer table empties. Transfers are cancelled in issue order so
// the waste accounting is deterministic.
func (t *refTiered) Drain() int {
	n := 0
	for _, tr := range t.flightQ {
		if tr.cancelled {
			continue
		}
		t.cancel(tr.id)
		n++
	}
	t.flightQ = t.flightQ[:0]
	return n
}

// cancel aborts id's in-flight transfer, if any: Put supersedes the
// copy being moved, Remove releases the key outright. Bytes already
// streaming count as wasted unless a join read them.
func (t *refTiered) cancel(id chunk.ID) {
	tr, ok := t.flights[id]
	if !ok {
		return
	}
	tr.cancelled = true
	delete(t.flights, id)
	if !tr.read {
		t.pf.BytesWasted += tr.bytes
	}
}

// wasteUnread marks a completed-but-unread prefetch of id as undone
// — called when demotion, eviction or removal takes the promoted copy off
// the top tier before any lookup touched it.
func (t *refTiered) wasteUnread(id chunk.ID) {
	if b, ok := t.unread[id]; ok {
		t.pf.BytesWasted += b
		delete(t.unread, id)
	}
}
