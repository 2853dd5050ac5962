package kvstore

import (
	"math"
	"testing"

	"repro/internal/chunk"
	"repro/internal/device"
	"repro/internal/tensor"
)

// demoteTo pushes id down to the given tier by stuffing the tiers above
// it with filler chunks, then asserts the placement.
func demoteTo(t *testing.T, ts *Tiered, id chunk.ID, tier int, bytes int64) {
	t.Helper()
	filler := 0
	for tierOf(t, ts, id) < tier {
		if err := ts.Put(chunk.Hash("filler", []int{filler}), Bytes(bytes)); err != nil {
			t.Fatalf("filler put: %v", err)
		}
		filler++
		if filler > 1000 {
			t.Fatalf("chunk stuck on tier %d, want %d", tierOf(t, ts, id), tier)
		}
	}
}

func TestPrefetchPromotesAtArrival(t *testing.T) {
	ts := MustTiered(threeTiers(100, 200, 0), LRU)
	c := id(1)
	if err := ts.Put(c, Bytes(100)); err != nil {
		t.Fatal(err)
	}
	demoteTo(t, ts, c, 1, 100)

	now := 1.0
	arrival, started := ts.Prefetch(c, now, 1)
	if !started {
		t.Fatal("prefetch of a tier-1 chunk must start a transfer")
	}
	want := now + device.CPURAM.ReadTime(100)
	if math.Abs(arrival-want) > 1e-12 {
		t.Fatalf("arrival %v, want %v", arrival, want)
	}
	if ts.Inflight() != 1 {
		t.Fatalf("inflight %d, want 1", ts.Inflight())
	}
	// Re-issuing while in flight is a no-op reporting the same arrival.
	again, restarted := ts.Prefetch(c, now, 1)
	if restarted || again != arrival {
		t.Fatalf("duplicate prefetch: (%v, %v), want (%v, false)", again, restarted, arrival)
	}
	// The chunk stays readable on its source tier until arrival.
	if got := tierOf(t, ts, c); got != 1 {
		t.Fatalf("chunk moved early: tier %d, want 1", got)
	}
	// A lookup past the arrival time applies the promotion first.
	payload, tier, wait, ok := ts.GetAt(c, arrival+1e-9)
	if !ok || tier != 0 || wait != 0 {
		t.Fatalf("post-arrival GetAt = (%v, %d, %v, %v), want hit on tier 0 with no wait", payload, tier, wait, ok)
	}
	if got := tierOf(t, ts, c); got != 0 {
		t.Fatalf("chunk on tier %d after arrival, want 0", got)
	}
	pf := ts.PrefetchStats()
	if pf.Issued != 1 || pf.Completed != 1 || pf.Hits != 1 || pf.InflightJoins != 0 {
		t.Fatalf("stats %+v: want 1 issued, 1 completed, 1 hit (the first read of the promoted copy), 0 joins", pf)
	}
	if pf.BytesMoved != 100 || pf.BytesWasted != 0 {
		t.Fatalf("stats %+v: want 100 bytes moved, none wasted", pf)
	}
}

func TestPrefetchInflightJoinChargesResidualWait(t *testing.T) {
	ts := MustTiered(threeTiers(100, 0, 0)[:2], LRU) // HBM → unbounded RAM
	c := id(2)
	if err := ts.Put(c, Bytes(100)); err != nil {
		t.Fatal(err)
	}
	demoteTo(t, ts, c, 1, 100)

	arrival, started := ts.Prefetch(c, 0, 1)
	if !started {
		t.Fatal("prefetch must start")
	}
	mid := arrival / 2
	_, tier, wait, ok := ts.GetAt(c, mid)
	if !ok || tier != 1 {
		t.Fatalf("mid-flight GetAt = tier %d ok=%v, want source-tier hit", tier, ok)
	}
	if math.Abs(wait-(arrival-mid)) > 1e-12 {
		t.Fatalf("residual wait %v, want %v", wait, arrival-mid)
	}
	if wait > device.CPURAM.ReadTime(100) {
		t.Fatalf("join charged %v, more than a full source read %v", wait, device.CPURAM.ReadTime(100))
	}
	// A later join pays strictly less.
	_, _, wait2, _ := ts.GetAt(c, mid+arrival/4)
	if wait2 >= wait {
		t.Fatalf("residual wait grew: %v then %v", wait, wait2)
	}
	pf := ts.PrefetchStats()
	if pf.InflightJoins != 2 || pf.Hits != 2 {
		t.Fatalf("stats %+v: want both lookups counted as in-flight joins", pf)
	}
	// At arrival the promotion lands; the read already counted, so the
	// transfer adds no further hits and wastes nothing.
	if _, tier, _, _ := ts.GetAt(c, arrival); tier != 0 {
		t.Fatalf("chunk on tier %d after arrival, want 0", tier)
	}
	pf = ts.PrefetchStats()
	if pf.Completed != 1 || pf.Hits != 2 || pf.BytesWasted != 0 {
		t.Fatalf("stats %+v: want completed transfer, hits unchanged, no waste", pf)
	}
}

func TestPrefetchBandwidthBudget(t *testing.T) {
	ts := MustTiered(threeTiers(100, 0, 0)[:2], LRU)
	c := id(3)
	ts.Put(c, Bytes(100)) //nolint:errcheck
	demoteTo(t, ts, c, 1, 100)
	full, _ := ts.Prefetch(c, 0, 1)
	ts.Remove(c)
	ts.Put(c, Bytes(100)) //nolint:errcheck
	demoteTo(t, ts, c, 1, 100)
	half, _ := ts.Prefetch(c, 0, 0.5)
	if math.Abs(half-2*full) > 1e-12 {
		t.Fatalf("half-bandwidth transfer %v, want twice the full-bandwidth %v", half, full)
	}
}

func TestPrefetchNoopCases(t *testing.T) {
	ts := MustTiered(threeTiers(100, 200, 0), LRU)
	if _, started := ts.Prefetch(id(4), 0, 1); started {
		t.Fatal("prefetch of an absent chunk must not start")
	}
	hot := id(5)
	ts.Put(hot, Bytes(50)) //nolint:errcheck
	if _, started := ts.Prefetch(hot, 0, 1); started {
		t.Fatal("prefetch of a top-tier chunk must not start")
	}
	if pf := ts.PrefetchStats(); pf.Issued != 0 {
		t.Fatalf("no-op prefetches issued transfers: %+v", pf)
	}
}

func TestPrefetchRemoveNeverResurrects(t *testing.T) {
	ts := MustTiered(threeTiers(100, 0, 0)[:2], LRU)
	c := id(6)
	ts.Put(c, Bytes(100)) //nolint:errcheck
	demoteTo(t, ts, c, 1, 100)
	arrival, _ := ts.Prefetch(c, 0, 1)
	if !ts.Remove(c) {
		t.Fatal("remove must find the chunk")
	}
	if ts.Inflight() != 0 {
		t.Fatal("remove must cancel the in-flight transfer")
	}
	if _, _, _, ok := ts.GetAt(c, arrival+1); ok {
		t.Fatal("removed chunk resurrected by a late transfer arrival")
	}
	if got := ts.TierOf(c); got != -1 {
		t.Fatalf("removed chunk on tier %d", got)
	}
	pf := ts.PrefetchStats()
	if pf.BytesWasted != 100 || pf.Completed != 0 {
		t.Fatalf("stats %+v: want the cancelled transfer's bytes wasted", pf)
	}
}

func TestPrefetchEvictedMidflightNotReinserted(t *testing.T) {
	// Two bounded tiers: the bottom CAN evict the in-flight chunk out of
	// the hierarchy entirely before its transfer lands.
	ts := MustTiered([]Tier{
		{Device: device.GPUHBM, Capacity: 100},
		{Device: device.CPURAM, Capacity: 100},
	}, LRU)
	c := id(7)
	ts.Put(c, Bytes(100)) //nolint:errcheck
	demoteTo(t, ts, c, 1, 100)
	arrival, _ := ts.Prefetch(c, 0, 1)
	// Fill both tiers with fresh chunks: c is the bottom tier's LRU victim
	// and leaves the hierarchy while its transfer is still in flight.
	ts.Put(chunk.Hash("fresh", []int{1}), Bytes(100)) //nolint:errcheck
	ts.Put(chunk.Hash("fresh", []int{2}), Bytes(100)) //nolint:errcheck
	if got := ts.TierOf(c); got != -1 {
		t.Fatalf("setup: chunk still on tier %d", got)
	}
	if _, _, _, ok := ts.GetAt(c, arrival+1); ok {
		t.Fatal("evicted chunk resurrected at transfer arrival")
	}
	pf := ts.PrefetchStats()
	if pf.BytesWasted != 100 {
		t.Fatalf("stats %+v: want the orphaned transfer's bytes wasted", pf)
	}
}

func TestPrefetchUnreadDemotionCountsWaste(t *testing.T) {
	ts := MustTiered(threeTiers(100, 0, 0)[:2], LRU)
	c := id(8)
	ts.Put(c, Bytes(100)) //nolint:errcheck
	demoteTo(t, ts, c, 1, 100)
	arrival, _ := ts.Prefetch(c, 0, 1)
	// Land the transfer without reading c (a lookup of an absent chunk
	// advances the clock), then demote c off the top before any read.
	ts.GetAt(chunk.Hash("absent", []int{3}), arrival+1)
	if got := ts.TierOf(c); got != 0 {
		t.Fatalf("setup: chunk on tier %d, want promoted to 0", got)
	}
	ts.Put(chunk.Hash("fresh", []int{4}), Bytes(100)) //nolint:errcheck — demotes c
	pf := ts.PrefetchStats()
	if pf.Completed != 1 || pf.BytesWasted != 100 {
		t.Fatalf("stats %+v: want completed-but-unread promotion counted wasted on demotion", pf)
	}
}

func TestPrefetchStatsAccuracy(t *testing.T) {
	var pf PrefetchStats
	if pf.Accuracy() != 0 {
		t.Fatal("accuracy with no transfers must be 0")
	}
	pf = PrefetchStats{Issued: 4, Hits: 3}
	if pf.Accuracy() != 0.75 {
		t.Fatalf("accuracy %v, want 0.75", pf.Accuracy())
	}
}

func TestPopularityDecayAndRanking(t *testing.T) {
	p := NewPopularity(10, 0)
	a, b := id(10), id(11)
	for i := 0; i < 3; i++ {
		p.Touch(a, 0)
	}
	if got := p.Score(a, 0); got != 3 {
		t.Fatalf("score %v, want 3", got)
	}
	if got := p.Score(a, 10); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("score after one halflife %v, want 1.5", got)
	}
	// Recency beats stale volume: two fresh touches of b outrank a's
	// three decayed ones after two halflives.
	p.Touch(b, 20)
	p.Touch(b, 20)
	top := p.Top(nil, 20, 1, nil)
	if len(top) != 1 || top[0] != b {
		t.Fatalf("top at t=20 = %v, want [%s]", top, b)
	}
	// The keep filter drops ids.
	top = p.Top(nil, 20, 2, func(c chunk.ID) bool { return c != b })
	if len(top) != 1 || top[0] != a {
		t.Fatalf("filtered top = %v, want [%s]", top, a)
	}
	// Scores never go negative, no matter how stale.
	if got := p.Score(a, 1e6); got < 0 {
		t.Fatalf("score went negative: %v", got)
	}
}

func TestPopularityCapCompaction(t *testing.T) {
	p := NewPopularity(0, 8)
	hot := id(20)
	for i := 0; i < 5; i++ {
		p.Touch(hot, float64(i))
	}
	for i := 0; i < 16; i++ {
		p.Touch(chunk.Hash("cold", []int{i}), float64(i))
	}
	if p.Len() > 8 {
		t.Fatalf("tracked %d chunks, cap is 8", p.Len())
	}
	if p.Score(hot, 16) < 5 {
		t.Fatalf("compaction evicted the hottest chunk (score %v)", p.Score(hot, 16))
	}
}

func TestPopularityStaleNowDoesNotInflate(t *testing.T) {
	p := NewPopularity(10, 0)
	c := id(21)
	p.Touch(c, 100)
	if got := p.Score(c, 50); got != 1 {
		t.Fatalf("stale-clock score %v, want 1 (no inverse decay)", got)
	}
}

// FuzzPrefetch drives random op sequences with a monotonic clock against
// the transfer model and checks its core invariants: a join is charged at
// most the transfer duration and the residual wait only shrinks; a
// removed key never resurrects until the next Put; a write through a
// Slot to a key in flight cancels its transfer as a Put does; popularity
// scores stay non-negative; the waste/moved and hit/miss ledgers stay
// consistent; the stack's index holds exactly its resident entries. The
// frozen pre-index stack (reference_test.go) replays every op and must
// return the same values and hold the same tiers, recency order,
// statistics and transfers.
func FuzzPrefetch(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 250, 7})
	f.Add(int64(7), []byte{2, 2, 4, 1, 4, 2, 4, 200, 4})
	f.Add(int64(42), []byte{3, 0, 2, 255, 4, 1, 2, 4})
	// Fill past the top tier, prefetch, then write through a handle to
	// the key in flight.
	f.Add(int64(5), []byte{0, 6, 12, 18, 24, 30, 36, 42, 48, 54, 2, 2, 2, 2, 5, 2, 2, 5, 4, 5})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		tiers := threeTiers(512, 1024, 0)
		ts := MustTiered(tiers, LRU)
		ref := mustRefTiered(tiers, LRU)
		pop := NewPopularity(16, 64)
		g := tensor.NewRNG(seed)
		now := 0.0
		lookups, removedAt := 0, make(map[chunk.ID]bool) // removed, no Put since
		inflight := make(map[chunk.ID]float64)           // key → arrival
		slots := make(map[chunk.ID]*Slot)                // one handle per key
		refSlots := make(map[chunk.ID]*refSlot)          // the reference's handles
		var lastStarted *chunk.ID                        // key of the latest transfer started
		for _, b := range ops {
			now += float64(b%16) * 1e-3 // monotonic virtual clock
			key := chunk.Hash("fuzz", []int{g.Intn(24)})
			switch b % 6 {
			case 0:
				size := Bytes(64 + int64(b)%192)
				if err, refErr := ts.Put(key, size), ref.Put(key, size); (err == nil) != (refErr == nil) {
					t.Fatalf("Put error %v, reference %v", err, refErr)
				}
				delete(removedAt, key)
				delete(inflight, key)
			case 1:
				if a, b := ts.Remove(key), ref.Remove(key); a != b {
					t.Fatalf("Remove = %v, reference %v", a, b)
				}
				removedAt[key] = true
				delete(inflight, key)
			case 2:
				arrival, started := ts.Prefetch(key, now, 1)
				if ra, rs := ref.Prefetch(key, now, 1); arrival != ra || started != rs {
					t.Fatalf("Prefetch = (%v, %v), reference (%v, %v)", arrival, started, ra, rs)
				}
				if started {
					if arrival < now {
						t.Fatalf("transfer arrives in the past: %v < %v", arrival, now)
					}
					inflight[key] = arrival
					lastStarted = &key
					if removedAt[key] {
						t.Fatal("prefetch started for a removed key")
					}
				}
			case 3:
				pop.Touch(key, now)
				if s := pop.Score(key, now+float64(b)); s < 0 {
					t.Fatalf("negative popularity score %v", s)
				}
				if a, b := ts.TierOf(key), ref.TierOf(key); a != b {
					t.Fatalf("TierOf = %d, reference %d", a, b)
				}
			case 5: // a handle write, to the latest transfer's key if any
				if lastStarted != nil {
					key = *lastStarted
				}
				if slots[key] == nil {
					slots[key], refSlots[key] = new(Slot), new(refSlot)
				}
				flying := ts.Inflight()
				if _, ok := ts.flights[key]; ok {
					flying--
				}
				size := Bytes(64 + int64(b)%192)
				err, refErr := ts.PutSlot(slots[key], key, size), ref.PutSlot(refSlots[key], key, size)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("PutSlot error %v, reference %v", err, refErr)
				}
				if _, ok := ts.flights[key]; ok || ts.Inflight() != flying {
					t.Fatalf("a write left its key's transfer in flight (%d in flight, want %d)", ts.Inflight(), flying)
				}
				delete(removedAt, key)
				delete(inflight, key)
			default:
				payload, tier, wait, ok := ts.GetAt(key, now)
				if rp, rt, rw, rok := ref.GetAt(key, now); payload != rp || tier != rt || wait != rw || ok != rok {
					t.Fatalf("GetAt = (%v, %d, %v, %v), reference (%v, %d, %v, %v)", payload, tier, wait, ok, rp, rt, rw, rok)
				}
				lookups++
				if ok {
					pop.Touch(key, now)
				}
				if wait < 0 {
					t.Fatalf("negative residual wait %v", wait)
				}
				if arrival, fly := inflight[key]; fly && ok && wait > 0 {
					if want := arrival - now; math.Abs(wait-want) > 1e-9 {
						t.Fatalf("join charged %v, want residual %v", wait, want)
					}
				}
				if ok && removedAt[key] {
					t.Fatal("lookup hit a key removed with no Put since")
				}
				if arrival, fly := inflight[key]; fly && arrival <= now {
					delete(inflight, key) // landed (or was orphaned) by now
				}
			}
			placement(t, ts)
			sameAsRef(t, ts, ref)
		}
		pf := ts.PrefetchStats()
		if pf.BytesWasted > pf.BytesMoved {
			t.Fatalf("wasted %d bytes of %d moved", pf.BytesWasted, pf.BytesMoved)
		}
		if pf.Completed > pf.Issued {
			t.Fatalf("completed %d transfers of %d issued", pf.Completed, pf.Issued)
		}
		if pf.InflightJoins > pf.Hits {
			t.Fatalf("joins %d exceed prefetch hits %d", pf.InflightJoins, pf.Hits)
		}
		st := ts.Stats()
		if st.Hits+st.Misses != int64(lookups) {
			t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, lookups)
		}
		if a, b := ts.Drain(), ref.Drain(); a != b {
			t.Fatalf("Drain = %d, reference %d", a, b)
		}
		sameAsRef(t, ts, ref)
	})
}
