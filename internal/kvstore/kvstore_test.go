package kvstore

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/chunk"
	"repro/internal/device"
)

func id(i int) chunk.ID { return chunk.Hash("m", []int{i}) }

func newTest(capacity int64, p Policy) *Store {
	return New(device.NVMeSSD, capacity, p)
}

func TestPutGetHitMiss(t *testing.T) {
	s := newTest(0, LRU)
	if _, ok := s.Get(id(1)); ok {
		t.Fatal("empty store must miss")
	}
	if err := s.Put(id(1), Bytes(100)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(id(1))
	if !ok || got.SizeBytes() != 100 {
		t.Fatal("get after put failed")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v want 0.5", st.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	s := newTest(300, LRU)
	for i := 1; i <= 3; i++ {
		if err := s.Put(id(i), Bytes(100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes least recently used.
	s.Get(id(1))
	if err := s.Put(id(4), Bytes(100)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(id(2)) {
		t.Fatal("LRU should have evicted id 2")
	}
	if !s.Contains(id(1)) || !s.Contains(id(3)) || !s.Contains(id(4)) {
		t.Fatal("wrong eviction victim")
	}
	if s.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d want 1", s.Stats().Evictions)
	}
}

func TestFIFOEvictionIgnoresRecency(t *testing.T) {
	s := newTest(300, FIFO)
	for i := 1; i <= 3; i++ {
		s.Put(id(i), Bytes(100))
	}
	s.Get(id(1)) // should NOT protect id 1 under FIFO
	s.Put(id(4), Bytes(100))
	if s.Contains(id(1)) {
		t.Fatal("FIFO should have evicted the oldest entry regardless of use")
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	s := newTest(0, LRU)
	s.Put(id(1), Bytes(100))
	s.Put(id(1), Bytes(250))
	if s.Used() != 250 {
		t.Fatalf("used = %d want 250", s.Used())
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d want 1", s.Len())
	}
	if s.Stats().Puts != 1 {
		t.Fatal("replace must not count as a new put")
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	s := newTest(100, LRU)
	if err := s.Put(id(1), Bytes(101)); err == nil {
		t.Fatal("oversize payload must be rejected")
	}
}

func TestEvictionKeepsWithinCapacity(t *testing.T) {
	s := newTest(1000, LRU)
	for i := 0; i < 50; i++ {
		s.Put(id(i), Bytes(90))
	}
	if s.Used() > 1000 {
		t.Fatalf("used %d exceeds capacity", s.Used())
	}
	if s.Len() > 11 {
		t.Fatalf("too many entries survived: %d", s.Len())
	}
}

func TestLoadTime(t *testing.T) {
	s := New(device.SlowSSD, 0, LRU)
	s.Put(id(1), Bytes(1e9))
	got := s.LoadTime(id(1))
	want := device.SlowSSD.ReadTime(1e9)
	if got != want {
		t.Fatalf("LoadTime=%v want %v", got, want)
	}
	if s.LoadTime(id(2)) != 0 {
		t.Fatal("missing entry must load in 0")
	}
}

func TestPutReplaceUpdatesBytesStored(t *testing.T) {
	// Regression: the replace path used to return before refreshing
	// Stats.BytesStored, and eviction bails out early on unbounded
	// stores — so the counter stayed stale. Stats() masks the field by
	// re-deriving it, so assert on the raw counter.
	s := newTest(0, LRU) // unbounded: eviction never runs
	s.Put(id(1), Bytes(100))
	s.Put(id(1), Bytes(250))
	if got := s.stats.BytesStored; got != 250 {
		t.Fatalf("BytesStored=%d after unbounded replace, want 250", got)
	}
}

func TestRemove(t *testing.T) {
	s := newTest(0, LRU)
	s.Put(id(1), Bytes(40))
	s.Put(id(2), Bytes(60))
	p, ok := s.Remove(id(1))
	if !ok || p.SizeBytes() != 40 {
		t.Fatalf("Remove returned %v,%v want 40,true", p, ok)
	}
	if s.Contains(id(1)) || s.Len() != 1 || s.Used() != 60 {
		t.Fatalf("store inconsistent after Remove: len=%d used=%d", s.Len(), s.Used())
	}
	if _, ok := s.Remove(id(99)); ok {
		t.Fatal("Remove of absent id must report false")
	}
	st := s.Stats()
	if st.Evictions != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Remove must not touch hit/miss/eviction counters: %+v", st)
	}
}

// TestTieredDemotionOrder: top-tier victims leave in LRU order and each
// lands at the head of the tier below, so the older victim ends up behind
// the newer one there.
func TestTieredDemotionOrder(t *testing.T) {
	ts := MustTiered([]Tier{
		{Device: device.GPUHBM, Capacity: 250},
		{Device: device.NVMeSSD},
	}, LRU)
	for i := 1; i <= 4; i++ {
		if err := ts.Put(id(i), Bytes(100)); err != nil {
			t.Fatal(err)
		}
	}
	// The top holds 2 entries: ids 1 then 2 fall off its back.
	want := []resident{{id(2), 100}, {id(1), 100}}
	if got := residents(ts.tiers[1].Each); !slices.Equal(got, want) {
		t.Fatalf("tier 1 holds %v, want %v", got, want)
	}
	if d := ts.TierStats()[0].Demotions; d != 2 {
		t.Fatalf("demotions=%d want 2", d)
	}
}

func TestStatsBytesStored(t *testing.T) {
	s := newTest(0, LRU)
	for i := 0; i < 5; i++ {
		s.Put(id(i), Bytes(7))
	}
	if got := s.Stats().BytesStored; got != 35 {
		t.Fatalf("BytesStored=%d want 35", got)
	}
}

// TestCloseIdempotent: Tiered.Close has nothing to release, so closing
// twice is harmless and the store stays usable.
func TestCloseIdempotent(t *testing.T) {
	ts := MustTiered([]Tier{{Device: device.CPURAM}}, LRU)
	ts.Close()
	ts.Close()
	if err := ts.Put(id(1), Bytes(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ts.Get(id(1)); !ok {
		t.Fatal("store unusable after Close")
	}
}

func TestManyDistinctIDs(t *testing.T) {
	// Hash distinctness sanity at store scale.
	s := newTest(0, LRU)
	for i := 0; i < 1000; i++ {
		s.Put(chunk.Hash("m", []int{i, i * 7, i * 13}), Bytes(1))
	}
	if s.Len() != 1000 {
		t.Fatalf("collisions or lost entries: %d/1000", s.Len())
	}
}

func TestDeviceAccessor(t *testing.T) {
	s := New(device.CPURAM, 0, LRU)
	if s.Device().Name != "cpu-ram" {
		t.Fatal("Device accessor wrong")
	}
	_ = fmt.Sprintf("%v", s.Stats())
}
