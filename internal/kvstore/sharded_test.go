package kvstore

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/device"
)

// oneTier is a single-tier stack of n shards on NVMe: a Sharded tier on
// its own.
func oneTier(capacity int64, n int) *Tiered {
	return MustTiered([]Tier{{Device: device.NVMeSSD, Capacity: capacity, Shards: n}}, LRU)
}

func TestShardedBasics(t *testing.T) {
	s := oneTier(0, 8)
	if n := len(s.tiers[0].shards); n != 8 {
		t.Fatalf("%d shards, want 8", n)
	}
	for _, sh := range s.tiers[0].shards {
		if sh.dev.Name != device.NVMeSSD.Name {
			t.Fatalf("wrong device %q", sh.dev.Name)
		}
	}
	ids := make([]chunk.ID, 100)
	for i := range ids {
		ids[i] = chunk.Hash("m", []int{i})
		if err := s.Put(ids[i], Bytes(10)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 || s.Used() != 1000 {
		t.Fatalf("Len=%d Used=%d, want 100/1000", s.Len(), s.Used())
	}
	for _, id := range ids {
		if _, tier, ok := s.Get(id); !ok || tier != 0 {
			t.Fatalf("lost id %s", id)
		}
		if !s.Contains(s.names.Intern(id)) {
			t.Fatalf("Contains(%s) false", id)
		}
		if s.LoadTime(s.names.Intern(id)) <= 0 {
			t.Fatalf("LoadTime(%s) not positive", id)
		}
	}
	st := s.Stats()
	if st.Hits != 100 || st.Puts != 100 || st.BytesStored != 1000 {
		t.Fatalf("stats %+v malformed", st)
	}
}

func TestShardedSpreadsAcrossShards(t *testing.T) {
	s := oneTier(0, 8)
	for i := 0; i < 800; i++ {
		s.Put(chunk.Hash("m", []int{i}), Bytes(1)) //nolint:errcheck
	}
	// SHA-256 routing: each shard should hold a nontrivial share.
	for i, sh := range s.tiers[0].shards {
		if n := sh.Len(); n < 50 {
			t.Fatalf("shard %d holds only %d of 800 entries — routing is skewed", i, n)
		}
	}
}

func TestShardedCapacitySumsToBudget(t *testing.T) {
	// Regression: capacity/n used to drop the remainder, silently
	// shrinking the budget by up to n-1 bytes. Shard 0 absorbs it now.
	for _, tc := range []struct {
		capacity int64
		n        int
	}{
		{103, 4}, {1<<20 + 13, 7}, {17, 3}, {64, 8}, {5, 5},
	} {
		s := oneTier(tc.capacity, tc.n)
		var sum int64
		for _, sh := range s.tiers[0].shards {
			sum += sh.capacity
		}
		if sum != tc.capacity {
			t.Errorf("capacity=%d n=%d: shard budgets sum to %d", tc.capacity, tc.n, sum)
		}
	}
	// Unbounded stays unbounded.
	for _, sh := range oneTier(0, 4).tiers[0].shards {
		if sh.capacity != 0 {
			t.Fatalf("unbounded shard capacity=%d want 0", sh.capacity)
		}
	}
}

func TestShardedCapacityEvicts(t *testing.T) {
	// 4 shards × 25 bytes each; inserting 200 one-byte entries must evict
	// within shards and never exceed the total budget.
	s := oneTier(100, 4)
	for i := 0; i < 200; i++ {
		if err := s.Put(chunk.Hash("m", []int{i}), Bytes(1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Used() > 100 {
		t.Fatalf("Used %d exceeds capacity 100", s.Used())
	}
	for i, sh := range s.tiers[0].shards {
		if sh.Used() != sh.capacity {
			t.Fatalf("shard %d holds %d of its %d bytes after 200 inserts", i, sh.Used(), sh.capacity)
		}
	}
	if s.Stats().Evictions != 100 {
		t.Fatalf("evictions=%d, want the 100 inserts the shards could not keep", s.Stats().Evictions)
	}
}
