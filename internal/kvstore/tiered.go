// Tiered store: CacheBlend's loading controller (§5.1) picks *where* a KV
// cache lives so loading delay hides selective recompute. Tiered realises
// the placement side of that decision as a stack of per-tier Sharded
// stores — e.g. GPU-HBM → CPU-RAM → NVMe — with one index for the whole
// stack: a chunk lives on at most one tier, so one probe finds it on
// whichever tier holds it, and each tier is a set of recency lists its
// entries are relinked between. The index is a slice over the handles of
// the stack's Names table, so the probe is one slice load. Hits on a
// lower tier promote the chunk to the top (it is hot); capacity pressure
// on a tier demotes its LRU victims to the next tier down instead of
// dropping them; entries leave the hierarchy only off the bottom tier.
// Neither move touches the index. The result approximates one global LRU
// over the summed capacity while keeping hot chunks on fast devices.
package kvstore

import (
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/device"
)

// Tier configures one level of a Tiered store, fastest first.
type Tier struct {
	// Device is the tier's storage device (drives ReadTime charging).
	Device device.Device
	// Capacity is the tier's byte budget; 0 = unbounded (sensible only
	// for the bottom tier).
	Capacity int64
	// Shards splits the tier into shards, each evicting within an equal
	// slice of the capacity (0 = 1).
	Shards int
}

// TierStats is one tier's placement telemetry.
type TierStats struct {
	// Device names the tier.
	Device string
	// Capacity is the configured byte budget (0 = unbounded).
	Capacity int64
	// Hits counts lookups served from this tier.
	Hits int64
	// Promotions counts chunks moved from this tier up to the top on hit.
	Promotions int64
	// Demotions counts LRU victims pushed from this tier to the next.
	Demotions int64
	// Evictions counts entries dropped from the hierarchy at this tier:
	// LRU victims of the bottom tier, plus the rare demotion a lower tier
	// could not absorb.
	Evictions int64
	// BytesResident is the tier's current footprint.
	BytesResident int64
}

// Tiered is a multi-tier KV store in which a chunk lives on at most one
// tier. It is built over a Names table, and every per-chunk state it
// keeps — its index, its transfers in flight and its unread prefetch
// marks — is a slice indexed by handle. Its transfers in flight are
// values in a slot table, so a prefetch allocates nothing once the
// tables have grown. Each method that takes a
// chunk.ID names the ID in the table and forwards to its handle form, the
// one the serving runtime calls. Like Store, a stack is owned by one run
// and not safe for concurrent use.
type Tiered struct {
	names  *Names
	tiers  []*Sharded
	idx    index // every resident handle, whichever tier holds it
	cfg    []Tier
	hits   []int64 // lookups served per tier
	promos []int64 // promotions out of each tier
	demos  []int64 // demotions out of each tier
	drops  []int64 // demotions the next tier rejected (oversize payload)
	misses int64
	puts   int64

	// In-flight prefetch transfer model (prefetch.go).
	slots     []transfer // transfers in flight, by slot; seq 0 marks a free slot
	free      []uint32   // free slots, reused last-freed first
	flights   []uint32   // handle → 1 + its transfer's slot; 0: none in flight
	flightQ   []queued   // issue-ordered queue land drains
	nextDue   float64    // no transfer in flightQ arrives before it; +Inf when it is empty
	due       []uint32   // land's scratch: the slots it completes
	flightSeq int
	unread    []int64 // handle → 1 + the bytes of its completed transfer no lookup has read; 0: none
	pf        PrefetchStats
}

// NewTiered builds a tier stack over a Names table of its own, fastest
// tier first. Every tier above the bottom must be capacity-bounded (an
// unbounded upper tier would never demote, starving the tiers below it).
func NewTiered(tiers []Tier, policy Policy) (*Tiered, error) {
	return NewNames().NewTiered(tiers, policy)
}

// MustTiered is NewTiered for static configurations known to be valid.
func MustTiered(tiers []Tier, policy Policy) *Tiered {
	return NewNames().MustTiered(tiers, policy)
}

// NewTiered builds a tier stack over n, as the package's NewTiered does
// over a table of its own. Stacks over one table share its handles, each
// holding its own state for them.
func (n *Names) NewTiered(tiers []Tier, policy Policy) (*Tiered, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("kvstore: tiered store needs at least one tier")
	}
	t := &Tiered{
		names:   n,
		tiers:   make([]*Sharded, len(tiers)),
		cfg:     append([]Tier(nil), tiers...),
		hits:    make([]int64, len(tiers)),
		promos:  make([]int64, len(tiers)),
		demos:   make([]int64, len(tiers)),
		drops:   make([]int64, len(tiers)),
		nextDue: math.Inf(1),
	}
	for i, tc := range tiers {
		if err := tc.Device.Validate(); err != nil {
			return nil, err
		}
		if tc.Capacity <= 0 && i < len(tiers)-1 {
			return nil, fmt.Errorf("kvstore: tier %d (%s) above the bottom must be bounded", i, tc.Device.Name)
		}
		t.tiers[i] = newSharded(t, i, tc, policy)
	}
	return t, nil
}

// MustTiered is NewTiered for static configurations known to be valid.
func (n *Names) MustTiered(tiers []Tier, policy Policy) *Tiered {
	t, err := n.NewTiered(tiers, policy)
	if err != nil {
		panic(err)
	}
	return t
}

// Depth returns the number of tiers.
func (t *Tiered) Depth() int { return len(t.tiers) }

// TierDevice returns tier i's device.
func (t *Tiered) TierDevice(i int) device.Device { return t.cfg[i].Device }

// shard returns h's shard on tier i, picked by the leading bytes of the
// id h names.
func (t *Tiered) shard(i int, h Handle) *Store {
	return t.tiers[i].shard(&t.names.ids[h])
}

// Get looks id up on whichever tier holds it. On a hit it returns the
// payload and the tier index it was found on (the tier whose loading
// delay the caller should charge), then promotes the chunk to the top
// tier — the promotion may cascade demotions downward. A chunk the top
// tier cannot hold stays where it is.
func (t *Tiered) Get(id chunk.ID) (Sized, int, bool) { return t.GetH(t.names.Intern(id)) }

// GetH is Get by handle.
func (t *Tiered) GetH(h Handle) (Sized, int, bool) {
	e := t.idx.get(h)
	if e == nil {
		t.misses++
		return nil, -1, false
	}
	payload, i := e.payload, e.store.tier
	t.hits[i]++
	if e.store.policy == LRU {
		e.store.moveToFront(e)
	}
	if i > 0 {
		t.promote(e)
	}
	return payload, i, true
}

// promote moves e from its cold tier to the head of its shard on the top
// tier, which then evicts. An entry the top shard cannot hold goes back to
// the head of its own list, under LRU and FIFO alike.
func (t *Tiered) promote(e *entry) bool {
	from := e.store
	from.take(e)
	if t.shard(0, e.h).place(e) {
		t.promos[from.tier]++
		return true
	}
	if !from.place(e) {
		t.idx.drop(e) // its payload outgrew its own shard too
	}
	return false
}

// demote moves e, a victim just evicted from tier i, to the head of its
// shard on tier i+1, which may evict in turn. A victim of the bottom
// tier, or one the next shard cannot hold, leaves the stack.
func (t *Tiered) demote(i int, e *entry) {
	if i == len(t.tiers)-1 {
		t.idx.drop(e)
		return
	}
	if i == 0 {
		// Demoted off the top before any lookup used it: an unread
		// prefetch promotion was undone.
		t.wasteUnread(e.h)
	}
	if t.shard(i+1, e.h).place(e) {
		t.demos[i]++
		return
	}
	t.drops[i]++
	t.idx.drop(e)
}

// Contains reports h's presence on any tier without touching recency,
// stats or placement.
func (t *Tiered) Contains(h Handle) bool { return t.idx.get(h) != nil }

// Put inserts or replaces id on the highest tier that accepts it (new
// chunks are presumed hot). A previous copy on another tier is removed
// first so the chunk never straddles tiers. If no tier can hold the
// payload an error is returned.
func (t *Tiered) Put(id chunk.ID, payload Sized) error { return t.PutH(t.names.Intern(id), payload) }

// PutH is Put by handle. A handle already resident on the top tier is
// updated in place — entry reused, recency refreshed, growth evicting
// exactly as a reinsert would — so the serving runtime's per-token
// decode-KV append finds its entry with one slice load. Any other write
// takes h's entry out of its tier, or enters h, and inserts it top-down.
func (t *Tiered) PutH(h Handle, payload Sized) error {
	if t.Inflight() > 0 {
		t.cancel(h) // the new payload supersedes any copy in flight
	}
	e := t.idx.get(h)
	// A payload the top tier cannot hold falls through to the tiers below,
	// with the store untouched.
	if e != nil && e.store.tier == 0 && e.store.put(e, payload) {
		t.puts++
		return nil
	}
	if e != nil {
		e.store.take(e)
	} else {
		e = t.idx.enter(h, t.names)
	}
	e.payload = payload
	for i := range t.tiers {
		// h is on no tier, so place links e at its shard's head, and its
		// evictions only move other entries to lower tiers.
		if t.shard(i, h).place(e) {
			t.puts++
			return nil
		}
	}
	t.idx.drop(e)
	return fmt.Errorf("kvstore: no tier can hold %d bytes", payload.SizeBytes())
}

// Remove deletes id from whichever tier holds it, reporting whether it
// was present. Removal is a release, not an eviction: it demotes nothing
// and touches no hit/miss statistics. The serving runtime uses it to free
// a retired request's generated KV.
func (t *Tiered) Remove(id chunk.ID) bool { return t.RemoveH(t.names.Intern(id)) }

// RemoveH is Remove by handle.
func (t *Tiered) RemoveH(h Handle) bool {
	t.cancel(h) // a removed key must never resurrect at arrival
	t.wasteUnread(h)
	e := t.idx.get(h)
	if e == nil {
		return false
	}
	e.store.take(e)
	t.idx.drop(e)
	return true
}

// LoadTime returns the simulated seconds to read h's payload from the
// tier it currently lives on (0 if absent). It does not count as a Get
// and does not promote.
func (t *Tiered) LoadTime(h Handle) float64 {
	if e := t.idx.get(h); e != nil {
		return e.store.dev.ReadTime(e.bytes)
	}
	return 0
}

// Used returns the total resident bytes across tiers.
func (t *Tiered) Used() int64 {
	var n int64
	for _, tier := range t.tiers {
		n += tier.Used()
	}
	return n
}

// Len returns the total entry count across tiers.
func (t *Tiered) Len() int {
	n := 0
	for _, tier := range t.tiers {
		n += tier.Len()
	}
	return n
}

// Each calls fn for every entry resident in the hierarchy with its id and
// byte size, tier by tier from the top. A chunk lives on at most one tier,
// so ids are distinct. fn must not call back into the store.
func (t *Tiered) Each(fn func(id chunk.ID, bytes int64)) {
	t.EachH(func(h Handle, bytes int64) { fn(t.names.ids[h], bytes) })
}

// EachH is Each by handle. The routed cluster's duplication accounting
// walks per-replica stacks over one table with it.
func (t *Tiered) EachH(fn func(h Handle, bytes int64)) {
	for _, tier := range t.tiers {
		tier.each(fn)
	}
}

// TierStats snapshots per-tier placement telemetry, top tier first.
func (t *Tiered) TierStats() []TierStats {
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
			out[i].Evictions += tier.evictions()
		}
	}
	return out
}

// Stats aggregates the hierarchy into the flat Stats shape: hits and
// misses are whole-hierarchy lookups, evictions count only entries that
// left the hierarchy.
func (t *Tiered) Stats() Stats {
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
func (t *Tiered) Close() {}
