package kvstore

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/chunk"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Sequential randomized invariant checks. The stores belong to one run and
// are never shared across goroutines, so these drive long random op mixes
// on one goroutine and check the conservation invariants after every op.

// residentBytes sums the entries Each reports and counts them.
func residentBytes(each func(func(chunk.ID, int64))) (n int, used int64) {
	each(func(_ chunk.ID, b int64) {
		n++
		used += b
	})
	return n, used
}

// TestStoreRandomizedInvariants: capacity is never exceeded, the byte
// ledger matches the resident entries, the index holds exactly the
// resident ids, and hits plus misses equal lookups.
func TestStoreRandomizedInvariants(t *testing.T) {
	for _, policy := range []Policy{LRU, FIFO} {
		const capacity = 2000
		s := newTest(capacity, policy)
		g := tensor.NewRNG(int64(policy) + 1)
		var lookups int64
		for i := 0; i < 5000; i++ {
			key := id(sim.Zipf(g, 64, 0.9))
			switch g.Intn(4) {
			case 0:
				s.Put(key, Bytes(1+g.Intn(150))) //nolint:errcheck // always fits
			case 1: // in-place update of a resident entry
				if b, e := Bytes(1+g.Intn(150)), s.lookup(key); e != nil {
					s.put(key, b, e) //nolint:errcheck // always fits
				}
			case 2:
				s.Remove(key)
			default:
				s.Get(key)
				lookups++
			}
			if s.Used() > capacity {
				t.Fatalf("op %d: used %d exceeds capacity %d", i, s.Used(), capacity)
			}
			if n, used := residentBytes(s.Each); n != s.Len() || used != s.Used() || len(s.idx.m) != n {
				t.Fatalf("op %d: Each sees %d entries / %d bytes, store reports %d / %d, index holds %d",
					i, n, used, s.Len(), s.Used(), len(s.idx.m))
			}
		}
		st := s.Stats()
		if st.Hits+st.Misses != lookups {
			t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
		}
		if st.Evictions == 0 {
			t.Fatal("no evictions: the mix is too gentle")
		}
	}
}

// TestShardedRandomizedInvariants: in a one-tier sharded stack every shard
// stays within its slice of the budget, the byte ledger matches the
// resident entries, the index matches the shards' lists, and hits plus
// misses equal lookups.
func TestShardedRandomizedInvariants(t *testing.T) {
	const capacity = 4 << 10
	s := oneTier(capacity, 8)
	g := tensor.NewRNG(7)
	var lookups int64
	for i := 0; i < 8000; i++ {
		key := chunk.Hash("stress", []int{sim.Zipf(g, 512, 0.9)})
		switch g.Intn(4) {
		case 0, 1:
			s.Put(key, Bytes(64)) //nolint:errcheck // fits every shard
		case 2:
			s.Remove(key)
		default:
			s.Get(key)
			lookups++
		}
		for si, sh := range s.tiers[0].shards {
			if sh.Used() > sh.Capacity() {
				t.Fatalf("op %d: shard %d used %d exceeds its %d", i, si, sh.Used(), sh.Capacity())
			}
		}
		if n, used := residentBytes(s.Each); n != s.Len() || used != s.Used() || used > capacity {
			t.Fatalf("op %d: Each sees %d entries / %d bytes, store reports %d / %d (capacity %d)",
				i, n, used, s.Len(), s.Used(), capacity)
		}
		placement(t, s)
	}
	st := s.Stats()
	if st.Hits+st.Misses != lookups || st.Evictions == 0 {
		t.Fatalf("stats %+v after %d lookups", st, lookups)
	}
}

// placement maps every resident id to its tier, walking the shards'
// recency lists — the entries Each reports — and checks the stack's one
// index against them: each listed entry must be the index's entry for
// its id, resident in its id's shard of the listing tier, no id may be
// listed twice, and the index must hold exactly Len() ids.
func placement(t *testing.T, ts *Tiered) map[chunk.ID]int {
	t.Helper()
	on := make(map[chunk.ID]int, ts.Len())
	for i, tier := range ts.tiers {
		for _, sh := range tier.shards {
			for e := sh.head; e != nil; e = e.next {
				if j, dup := on[e.id]; dup {
					t.Fatalf("chunk %s lives on tiers %d and %d", e.id, j, i)
				}
				on[e.id] = i
				if ts.idx.m[e.id] != e || e.store != sh || sh != tier.shard(e.id) || sh.stack != ts || sh.tier != i {
					t.Fatalf("chunk %s listed on tier %d is not the index's entry resident there", e.id, i)
				}
			}
		}
	}
	if len(ts.idx.m) != ts.Len() || len(on) != ts.Len() {
		t.Fatalf("index holds %d ids and the lists %d, Len is %d", len(ts.idx.m), len(on), ts.Len())
	}
	return on
}

// checkTiered asserts the tier-stack invariants: every bounded tier within
// capacity, each key resident on one tier at most, the index matching the
// tiers, and the byte ledger matching the resident entries.
func checkTiered(t *testing.T, ts *Tiered, tiers []Tier) {
	t.Helper()
	for i, tier := range ts.tiers {
		if cap := tiers[i].Capacity; cap > 0 && tier.Used() > cap {
			t.Fatalf("tier %d used %d exceeds capacity %d", i, tier.Used(), cap)
		}
	}
	placement(t, ts) // fails on a straddle
	if n, used := residentBytes(ts.Each); n != ts.Len() || used != ts.Used() {
		t.Fatalf("Each sees %d entries / %d bytes, store reports %d / %d", n, used, ts.Len(), ts.Used())
	}
}

func stressKeys(n int) []chunk.ID {
	keys := make([]chunk.ID, n)
	for i := range keys {
		keys[i] = chunk.Hash("stress", []int{i})
	}
	return keys
}

// TestTieredRandomizedInvariants drives Put/Get/Remove through a
// three-tier stack with promotions and demotion cascades.
func TestTieredRandomizedInvariants(t *testing.T) {
	tiers := threeTiers(2<<10, 4<<10, 8<<10)
	tiers[1].Shards = 3
	ts := MustTiered(tiers, LRU)
	keys := stressKeys(256)
	g := tensor.NewRNG(11)
	var lookups int64
	for i := 0; i < 6000; i++ {
		key := keys[sim.Zipf(g, len(keys), 0.9)]
		switch g.Intn(5) {
		case 0, 1:
			ts.Put(key, Bytes(16+g.Intn(112))) //nolint:errcheck // fits the top tier
		case 2:
			ts.Remove(key)
		default:
			ts.Get(key)
			lookups++
		}
		checkTiered(t, ts, tiers)
	}
	st := ts.Stats()
	if st.Hits+st.Misses != lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
	}
	var promos, demos int64
	for _, s := range ts.TierStats() {
		promos += s.Promotions
		demos += s.Demotions
	}
	if promos == 0 || demos == 0 {
		t.Fatalf("stack never promoted (%d) or demoted (%d): the mix is too gentle", promos, demos)
	}
}

// TestPrefetchRandomizedInvariants drives the transfer model on a
// monotonic clock — puts, removes, prefetches, joins, popularity ranking —
// and checks the tier invariants after every op and the ledgers at the
// end.
func TestPrefetchRandomizedInvariants(t *testing.T) {
	tiers := threeTiers(1<<10, 1<<11, 0) // 16 and 32 chunks: most keys sit cold
	ts := MustTiered(tiers, LRU)
	pop := NewPopularity(32, 256)
	keys := make([]chunk.ID, 64)
	for i := range keys {
		keys[i] = chunk.Hash("race", []int{i})
	}
	cold := func(c chunk.ID) bool { return ts.TierOf(c) > 0 }
	var top []chunk.ID
	g := tensor.NewRNG(1000)
	now := 0.0
	var lookups int64
	for i := 0; i < 8000; i++ {
		now += g.Float64() * 1e-3
		key := keys[g.Intn(len(keys))]
		switch g.Intn(5) {
		case 0:
			ts.Put(key, Bytes(64)) //nolint:errcheck // fits the top tier
		case 1:
			ts.Remove(key)
		case 2:
			ts.Prefetch(key, now, 1)
		case 3:
			pop.Touch(key, now)
			top = pop.Top(top[:0], now, 8, cold)
			for _, c := range top {
				if ts.TierOf(c) <= 0 {
					t.Fatalf("op %d: Top returned %s, which is not on a cold tier", i, c)
				}
			}
		default:
			_, _, wait, _ := ts.GetAt(key, now)
			lookups++
			if wait < 0 {
				t.Fatalf("op %d: negative residual wait %v", i, wait)
			}
		}
		checkTiered(t, ts, tiers)
	}
	pf := ts.PrefetchStats()
	if pf.Issued == 0 || pf.BytesWasted > pf.BytesMoved || pf.Completed > pf.Issued || pf.InflightJoins > pf.Hits {
		t.Fatalf("prefetch ledger inconsistent: %+v", pf)
	}
	if st := ts.Stats(); st.Hits+st.Misses != lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
	}
}

// TestPopularityTopMatchesSort pins Top's one-pass selection to the full
// ranking it replaces: for every k, the first k ids of all tracked ids
// sorted by (score desc, id bytes asc), appended after dst's contents.
func TestPopularityTopMatchesSort(t *testing.T) {
	p := NewPopularity(8, 0)
	g := tensor.NewRNG(3)
	for i := 0; i < 400; i++ {
		// Whole-second touches at a coarse clock make many exact score ties.
		p.Touch(id(g.Intn(40)), float64(g.Intn(30)))
	}
	now := 40.0
	type ranked struct {
		id    chunk.ID
		score float64
	}
	var all []ranked
	for k, e := range p.scores {
		if k[0]%3 != 0 { // the keep filter below
			all = append(all, ranked{k, p.decayed(e, now)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return bytes.Compare(all[i].id[:], all[j].id[:]) < 0
	})
	keep := func(c chunk.ID) bool { return c[0]%3 != 0 }
	prefix := []chunk.ID{id(999)}
	for _, k := range []int{0, 1, 2, 5, len(all), len(all) + 3} {
		got := p.Top(append([]chunk.ID(nil), prefix...), now, k, keep)
		want := len(all)
		if k > 0 && k < want {
			want = k
		}
		if len(got) != 1+want || got[0] != prefix[0] {
			t.Fatalf("k=%d: got %d ids (prefix kept: %v), want 1+%d", k, len(got), got[0] == prefix[0], want)
		}
		for i, r := range all[:want] {
			if got[1+i] != r.id {
				t.Fatalf("k=%d: rank %d is %s, want %s", k, i, got[1+i], r.id)
			}
		}
	}
}
