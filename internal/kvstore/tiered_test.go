package kvstore

import (
	"slices"
	"testing"

	"repro/internal/chunk"
	"repro/internal/device"
)

// threeTiers is the canonical HBM→RAM→NVMe test stack.
func threeTiers(hbm, ram, nvme int64) []Tier {
	return []Tier{
		{Device: device.GPUHBM, Capacity: hbm},
		{Device: device.CPURAM, Capacity: ram},
		{Device: device.NVMeSSD, Capacity: nvme},
	}
}

// tierOf returns the index of the single tier holding id, or -1 if the
// chunk is absent — and fails the test if it straddles tiers or the
// index disagrees with the tiers (see placement).
func tierOf(t *testing.T, ts *Tiered, id chunk.ID) int {
	t.Helper()
	if i, ok := placement(t, ts)[id]; ok {
		return i
	}
	return -1
}

func TestTieredValidation(t *testing.T) {
	if _, err := NewTiered(nil, LRU); err == nil {
		t.Fatal("empty tier stack must be rejected")
	}
	// Unbounded upper tier never demotes — reject.
	if _, err := NewTiered([]Tier{
		{Device: device.CPURAM, Capacity: 0},
		{Device: device.NVMeSSD, Capacity: 100},
	}, LRU); err == nil {
		t.Fatal("unbounded upper tier must be rejected")
	}
	if _, err := NewTiered([]Tier{{Device: device.Device{}, Capacity: 10}}, LRU); err == nil {
		t.Fatal("invalid device must be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTiered must panic on a bad stack")
		}
	}()
	MustTiered(nil, LRU)
}

func TestTieredPutLandsOnTop(t *testing.T) {
	ts := MustTiered(threeTiers(100, 100, 0), LRU)
	ts.Put(id(1), Bytes(50)) //nolint:errcheck
	if got := tierOf(t, ts, id(1)); got != 0 {
		t.Fatalf("fresh chunk on tier %d, want 0", got)
	}
	// Oversize for HBM and RAM: lands on the unbounded bottom.
	ts.Put(id(2), Bytes(500)) //nolint:errcheck
	if got := tierOf(t, ts, id(2)); got != 2 {
		t.Fatalf("oversize chunk on tier %d, want 2", got)
	}
	if ts.Depth() != 3 || ts.TierDevice(0).Name != "gpu-hbm" {
		t.Fatal("Depth/TierDevice accessors wrong")
	}
}

// TestTieredRemove: removal releases the entry from whichever tier holds
// it without firing the demotion cascade or touching lookup statistics —
// the contract the serving runtime relies on when freeing a retired
// request's generated KV.
func TestTieredRemove(t *testing.T) {
	ts := MustTiered(threeTiers(100, 100, 0), LRU)
	ts.Put(id(1), Bytes(50))  //nolint:errcheck // lands on top
	ts.Put(id(2), Bytes(500)) //nolint:errcheck // bottom only
	statsBefore := ts.Stats()
	demosBefore := ts.TierStats()[0].Demotions
	for _, cid := range []chunk.ID{id(1), id(2)} {
		if !ts.Remove(cid) {
			t.Fatalf("Remove(%s) reported absent", cid)
		}
		if got := tierOf(t, ts, cid); got != -1 {
			t.Fatalf("%s still resident on tier %d after Remove", cid, got)
		}
		if ts.Remove(cid) {
			t.Fatalf("second Remove(%s) reported present", cid)
		}
	}
	if ts.Used() != 0 || ts.Len() != 0 {
		t.Fatalf("store not empty after removals: used=%d len=%d", ts.Used(), ts.Len())
	}
	after := ts.Stats()
	if after.Hits != statsBefore.Hits || after.Misses != statsBefore.Misses ||
		after.Evictions != statsBefore.Evictions {
		t.Fatalf("Remove distorted stats: %+v vs %+v", after, statsBefore)
	}
	if ts.TierStats()[0].Demotions != demosBefore {
		t.Fatal("Remove triggered a demotion cascade")
	}
}

func TestTieredGetReportsHitTierAndPromotes(t *testing.T) {
	ts := MustTiered(threeTiers(100, 100, 0), LRU)
	ts.Put(id(1), Bytes(500)) //nolint:errcheck // bottom only
	payload, tier, ok := ts.Get(id(1))
	if !ok || tier != 2 || payload.SizeBytes() != 500 {
		t.Fatalf("Get=(%v,%d,%v), want (500,2,true)", payload, tier, ok)
	}
	// Too big to promote: stays at the bottom.
	if got := tierOf(t, ts, id(1)); got != 2 {
		t.Fatalf("oversize chunk moved to tier %d", got)
	}
	ts.Put(id(2), Bytes(80)) //nolint:errcheck
	// Push id(2) down by filling the upper tiers.
	ts.Put(id(3), Bytes(80)) //nolint:errcheck
	ts.Put(id(4), Bytes(80)) //nolint:errcheck
	if got := tierOf(t, ts, id(2)); got != 2 {
		t.Fatalf("id(2) should have been demoted twice, on tier %d", got)
	}
	// A hit promotes it back to the top.
	if _, tier, ok := ts.Get(id(2)); !ok || tier != 2 {
		t.Fatalf("expected bottom-tier hit, got tier %d ok=%v", tier, ok)
	}
	if got := tierOf(t, ts, id(2)); got != 0 {
		t.Fatalf("id(2) promoted to tier %d, want 0", got)
	}
	stats := ts.TierStats()
	if stats[2].Promotions != 1 {
		t.Fatalf("tier-2 promotions=%d want 1", stats[2].Promotions)
	}
	if stats[0].Demotions == 0 {
		t.Fatal("filling the top tier must demote")
	}
}

func TestTieredDemotionCascadeAndBottomEviction(t *testing.T) {
	ts := MustTiered(threeTiers(100, 100, 100), LRU)
	for i := 0; i < 12; i++ {
		if err := ts.Put(id(i), Bytes(50)); err != nil {
			t.Fatal(err)
		}
	}
	// 12×50 bytes through a 100/100/100 stack: 2 live per tier, 6 evicted
	// off the bottom.
	if ts.Len() != 6 || ts.Used() != 300 {
		t.Fatalf("Len=%d Used=%d, want 6/300", ts.Len(), ts.Used())
	}
	stats := ts.TierStats()
	if stats[0].Evictions != 0 || stats[1].Evictions != 0 {
		t.Fatalf("upper tiers must never evict: %+v", stats)
	}
	if stats[2].Evictions != 6 {
		t.Fatalf("bottom evictions=%d want 6", stats[2].Evictions)
	}
	if stats[0].Demotions != 10 || stats[1].Demotions != 8 {
		t.Fatalf("demotion cascade wrong: tier0=%d tier1=%d want 10/8", stats[0].Demotions, stats[1].Demotions)
	}
	for i := range stats {
		if stats[i].BytesResident != 100 {
			t.Fatalf("tier %d resident %d, want 100", i, stats[i].BytesResident)
		}
		if stats[i].Capacity != 100 {
			t.Fatalf("tier %d capacity %d, want 100", i, stats[i].Capacity)
		}
	}
	// The most recent inserts live highest: id(11),id(10) on top.
	if tierOf(t, ts, id(11)) != 0 || tierOf(t, ts, id(10)) != 0 {
		t.Fatal("most recent chunks should sit on the top tier")
	}
	if tierOf(t, ts, id(0)) != -1 {
		t.Fatal("oldest chunk should have been evicted entirely")
	}
}

func TestTieredStatsAccounting(t *testing.T) {
	ts := MustTiered(threeTiers(100, 100, 0), LRU)
	lookups := 0
	for i := 0; i < 20; i++ {
		key := id(i % 7)
		if _, _, ok := ts.Get(key); !ok {
			ts.Put(key, Bytes(30)) //nolint:errcheck
		}
		lookups++
	}
	st := ts.Stats()
	if st.Hits+st.Misses != int64(lookups) {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
	}
	var tierHits int64
	for _, s := range ts.TierStats() {
		tierHits += s.Hits
	}
	if tierHits != st.Hits {
		t.Fatalf("per-tier hits %d != aggregate %d", tierHits, st.Hits)
	}
	if st.BytesStored != ts.Used() {
		t.Fatalf("BytesStored %d != Used %d", st.BytesStored, ts.Used())
	}
	if ts.LoadTime(ts.names.Intern(id(0))) <= 0 {
		t.Fatal("resident chunk must have positive load time")
	}
	if ts.LoadTime(ts.names.Intern(id(100))) != 0 {
		t.Fatal("absent chunk must load in 0")
	}
	if !ts.Contains(ts.names.Intern(id(0))) || ts.Contains(ts.names.Intern(id(100))) {
		t.Fatal("Contains wrong")
	}
}

func TestTieredPutReplaceNeverStraddles(t *testing.T) {
	ts := MustTiered(threeTiers(100, 100, 0), LRU)
	ts.Put(id(1), Bytes(500)) //nolint:errcheck // bottom
	ts.Put(id(1), Bytes(40))  //nolint:errcheck // now fits on top
	if got := tierOf(t, ts, id(1)); got != 0 {
		t.Fatalf("replaced chunk on tier %d, want 0 (and exactly one tier)", got)
	}
	if ts.Len() != 1 || ts.Used() != 40 {
		t.Fatalf("Len=%d Used=%d after replace, want 1/40", ts.Len(), ts.Used())
	}
	// No tier can hold a 1e9 payload when all are bounded.
	bounded := MustTiered(threeTiers(50, 50, 50), LRU)
	if err := bounded.Put(id(2), Bytes(1000)); err == nil {
		t.Fatal("payload exceeding every tier must be rejected")
	}
}

// FuzzTieredGetPut drives a tier stack with an arbitrary op tape and
// asserts the structural invariants after every op: a chunk lives on at
// most one tier, the stack's index holds exactly its resident entries, no
// bounded tier exceeds its budget, promotions and demotions conserve
// entries (an id is resident iff it was inserted and never evicted off
// the bottom), and hit/miss accounting matches the lookup count. An odd
// tape, whose last byte no op reads, runs FIFO instead of LRU.
//
// The frozen pre-index stack (reference_test.go) replays every op and
// must return the same values and hold the same tiers, recency order and
// statistics. So must a twin stack that replays the tape by handle, over
// a table it shares with another stack that named ids first, so its
// handles do not start at 0 and its shard picks read ids through the
// table at an offset.
func FuzzTieredGetPut(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0x17})
	f.Add([]byte("put-get-put-get-evict"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0x13, 0x37})
	// One id rewritten through one handle: too big for its top shard (it
	// lands on RAM), again, then small enough for the top; removed; back.
	f.Add([]byte{0x05, 150, 0x05, 150, 0x05, 20, 0x05, 30, 0xe3, 1, 0x05, 40, 0x05, 150, 0x05, 10})
	// FIFO: two ids too big for their top shard land on RAM, then a hit on
	// the older one cannot promote it and moves it to the head of RAM.
	f.Add([]byte{0x05, 150, 0x06, 150, 0x99, 0, 0})
	// Twenty 200-byte ids overflow every tier: victims leave off the bottom.
	fill := make([]byte, 0, 40)
	for k := byte(0); k < 20; k++ {
		fill = append(fill, k, 199)
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, ops []byte) {
		tiers := []Tier{
			{Device: device.GPUHBM, Capacity: 1 << 8, Shards: 2},
			{Device: device.CPURAM, Capacity: 1 << 9},
			{Device: device.NVMeSSD, Capacity: 1 << 10, Shards: 3},
		}
		policy := Policy(len(ops) % 2)
		ts := MustTiered(tiers, policy)
		names := NewNames()
		other := names.MustTiered(tiers, policy)
		for k := 0; k < 7; k++ {
			if err := other.PutH(names.Name(chunk.Hash("other", []int{k})), Bytes(16)); err != nil {
				t.Fatal(err)
			}
		}
		twin := names.MustTiered(tiers, policy)
		handles := make([]Handle, 37) // key k's handle in the twin's table
		for k := range handles {
			handles[k] = names.Name(id(k))
		}
		ref := mustRefTiered(tiers, policy)
		live := map[chunk.ID]bool{} // model: inserted and not yet bottom-evicted
		var lookups, hits int64
		for i := 0; i+1 < len(ops); i += 2 {
			key, h := id(int(ops[i])%37), handles[int(ops[i])%37]
			switch op, arg := ops[i]>>6, ops[i+1]; op {
			case 0, 1: // Put with a size that always fits somewhere
				size := int64(arg)%200 + 1
				if err := ts.Put(key, Bytes(size)); err != nil {
					t.Fatalf("Put(%d bytes) failed: %v", size, err)
				}
				if err := ref.Put(key, Bytes(size)); err != nil {
					t.Fatalf("reference Put(%d bytes) failed: %v", size, err)
				}
				if err := twin.PutH(h, Bytes(size)); err != nil {
					t.Fatalf("PutH(%d bytes) failed: %v", size, err)
				}
				live[key] = true
			case 2: // Get
				lookups++
				payload, tier, ok := ts.Get(key)
				if rp, rt, rok := ref.Get(key); payload != rp || tier != rt || ok != rok {
					t.Fatalf("Get = (%v, %d, %v), reference (%v, %d, %v)", payload, tier, ok, rp, rt, rok)
				}
				if tp, tt, tok := twin.GetH(h); tp != payload || tt != tier || tok != ok {
					t.Fatalf("GetH = (%v, %d, %v), Get (%v, %d, %v)", tp, tt, tok, payload, tier, ok)
				}
				if ok {
					hits++
					if tier < 0 || tier >= len(tiers) {
						t.Fatalf("hit tier %d out of range", tier)
					}
					if !live[key] {
						t.Fatalf("hit on %s which was never inserted", key)
					}
				}
			default:
				if arg&1 == 1 {
					a, b := ts.Remove(key), ref.Remove(key)
					if a != b {
						t.Fatalf("Remove = %v, reference %v", a, b)
					}
					if tw := twin.RemoveH(h); tw != a {
						t.Fatalf("RemoveH = %v, Remove %v", tw, a)
					}
					delete(live, key)
					break
				}
				// passive probes
				if a, b := ts.Contains(ts.names.Intern(key)), ref.Contains(key); a != b || twin.Contains(h) != a {
					t.Fatalf("Contains = %v, reference %v, twin %v", a, b, twin.Contains(h))
				}
				if a, b := ts.LoadTime(ts.names.Intern(key)), ref.LoadTime(key); a != b || twin.LoadTime(h) != a {
					t.Fatalf("LoadTime = %v, reference %v, twin %v", a, b, twin.LoadTime(h))
				}
				if a, b := ts.TierOf(ts.names.Intern(key)), ref.TierOf(key); a != b || twin.TierOf(h) != a {
					t.Fatalf("TierOf = %d, reference %d, twin %d", a, b, twin.TierOf(h))
				}
			}
			// Invariants after every op.
			for ti, tier := range ts.tiers {
				if cap := tiers[ti].Capacity; cap > 0 && tier.Used() > cap {
					t.Fatalf("tier %d used %d exceeds capacity %d", ti, tier.Used(), cap)
				}
			}
			on := placement(t, ts)
			placement(t, twin)
			for key := range live {
				if _, ok := on[key]; !ok {
					delete(live, key) // evicted off the bottom
				}
			}
			if len(live) != ts.Len() {
				t.Fatalf("entry conservation broken: %d resident ids but Len=%d", len(live), ts.Len())
			}
			sameAsRef(t, ts, ref)
			sameAsRef(t, twin, ref)
			if other.Len() != 7 || names.Len() != 7+len(handles) {
				t.Fatalf("the other stack holds %d entries and the table %d handles, want 7 and %d",
					other.Len(), names.Len(), 7+len(handles))
			}
		}
		st := ts.Stats()
		if st.Hits != hits || st.Hits+st.Misses != lookups {
			t.Fatalf("accounting: store hits=%d misses=%d, test saw hits=%d lookups=%d",
				st.Hits, st.Misses, hits, lookups)
		}
	})
}

// TestHandleAcrossStacks: two stacks over one table hold separate entries
// for one handle, and a write through either must not reach the other's.
func TestHandleAcrossStacks(t *testing.T) {
	names := NewNames()
	a := names.MustTiered(threeTiers(100, 100, 0), LRU)
	b := names.MustTiered(threeTiers(100, 100, 0), LRU)
	h := names.Name(id(1))
	for _, w := range []struct {
		ts    *Tiered
		bytes int64
	}{{a, 10}, {b, 20}, {a, 30}, {b, 40}} {
		if err := w.ts.PutH(h, Bytes(w.bytes)); err != nil {
			t.Fatal(err)
		}
		if got := w.ts.Used(); got != w.bytes {
			t.Fatalf("the write of %d bytes left %d in its stack", w.bytes, got)
		}
	}
	if a.Len() != 1 || b.Len() != 1 || a.Used() != 30 || b.Used() != 40 {
		t.Fatalf("stacks hold %d entries / %d bytes and %d / %d, want 1 / 30 and 1 / 40",
			a.Len(), a.Used(), b.Len(), b.Used())
	}
	placement(t, a)
	placement(t, b)
}

// idEach turns a walk by handle over ts's table into a walk by id.
func idEach(ts *Tiered, each func(func(Handle, int64))) func(func(chunk.ID, int64)) {
	return func(fn func(chunk.ID, int64)) {
		each(func(h Handle, bytes int64) { fn(ts.names.ID(h), bytes) })
	}
}

// resident is one entry as Each reports it.
type resident struct {
	id    chunk.ID
	bytes int64
}

// residents lists the entries each reports, in order.
func residents(each func(func(chunk.ID, int64))) []resident {
	var out []resident
	each(func(id chunk.ID, bytes int64) { out = append(out, resident{id, bytes}) })
	return out
}

// sameAsRef fails the test unless ts is indistinguishable from ref, the
// frozen pre-index stack replaying the same ops: tier by tier the same
// Each order, Len and Used, and the same TierStats, Stats, PrefetchStats
// and Inflight.
func sameAsRef(t *testing.T, ts *Tiered, ref *refTiered) {
	t.Helper()
	for i, tier := range ts.tiers {
		if got, want := residents(idEach(ts, tier.each)), residents(ref.tiers[i].Each); !slices.Equal(got, want) {
			t.Fatalf("tier %d Each order: %v, reference %v", i, got, want)
		}
		if a, b := tier.Len(), ref.tiers[i].Len(); a != b {
			t.Fatalf("tier %d Len: %d, reference %d", i, a, b)
		}
		if a, b := tier.Used(), ref.tiers[i].Used(); a != b {
			t.Fatalf("tier %d Used: %d, reference %d", i, a, b)
		}
	}
	if a, b := ts.TierStats(), ref.TierStats(); !slices.Equal(a, b) {
		t.Fatalf("TierStats: %+v, reference %+v", a, b)
	}
	if a, b := ts.Stats(), ref.Stats(); a != b {
		t.Fatalf("Stats: %+v, reference %+v", a, b)
	}
	if a, b := ts.PrefetchStats(), ref.PrefetchStats(); a != b {
		t.Fatalf("PrefetchStats: %+v, reference %+v", a, b)
	}
	if a, b := ts.Inflight(), ref.Inflight(); a != b {
		t.Fatalf("Inflight: %d, reference %d", a, b)
	}
}
