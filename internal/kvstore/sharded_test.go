package kvstore

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/device"
)

func TestShardedBasics(t *testing.T) {
	s := NewSharded(device.NVMeSSD, 0, LRU, 8)
	if s.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", s.Shards())
	}
	if s.Device().Name != device.NVMeSSD.Name {
		t.Fatalf("wrong device %q", s.Device().Name)
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
		if _, ok := s.Get(id); !ok {
			t.Fatalf("lost id %s", id)
		}
		if !s.Contains(id) {
			t.Fatalf("Contains(%s) false", id)
		}
		if s.LoadTime(id) <= 0 {
			t.Fatalf("LoadTime(%s) not positive", id)
		}
	}
	st := s.Stats()
	if st.Hits != 100 || st.Puts != 100 || st.BytesStored != 1000 {
		t.Fatalf("stats %+v malformed", st)
	}
}

func TestShardedSpreadsAcrossShards(t *testing.T) {
	s := NewSharded(device.NVMeSSD, 0, LRU, 8)
	for i := 0; i < 800; i++ {
		s.Put(chunk.Hash("m", []int{i}), Bytes(1)) //nolint:errcheck
	}
	// SHA-256 routing: each shard should hold a nontrivial share.
	for i, sh := range s.shards {
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
		s := NewSharded(device.NVMeSSD, tc.capacity, LRU, tc.n)
		var sum int64
		for _, sh := range s.shards {
			sum += sh.Capacity()
		}
		if sum != tc.capacity {
			t.Errorf("capacity=%d n=%d: shard budgets sum to %d", tc.capacity, tc.n, sum)
		}
		if got := s.Capacity(); got != tc.capacity {
			t.Errorf("capacity=%d n=%d: Capacity()=%d", tc.capacity, tc.n, got)
		}
	}
	// Unbounded stays unbounded.
	u := NewSharded(device.NVMeSSD, 0, LRU, 4)
	if u.Capacity() != 0 {
		t.Fatalf("unbounded Capacity()=%d want 0", u.Capacity())
	}
}

func TestShardedCapacityEvicts(t *testing.T) {
	// 4 shards × 25 bytes each; inserting 200 one-byte entries must evict
	// within shards and never exceed the total budget.
	s := NewSharded(device.NVMeSSD, 100, LRU, 4)
	for i := 0; i < 200; i++ {
		if err := s.Put(chunk.Hash("m", []int{i}), Bytes(1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Used() > 100 {
		t.Fatalf("Used %d exceeds capacity 100", s.Used())
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("expected evictions under capacity pressure")
	}
}
