package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/chunk"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Layer benchmarks for the serving runtime's store calls, at the depths
// it builds: one tier (a single device) and three (HBM → RAM → NVMe, with
// upper tiers far smaller than the key pool, so lookups promote and puts
// cascade demotions).

const benchChunk = 1 << 10

// benchTiers returns a stack of the given depth.
func benchTiers(depth int) []Tier {
	if depth == 1 {
		return []Tier{{Device: device.NVMeSSD}}
	}
	return threeTiers(16*benchChunk, 64*benchChunk, 0)
}

// benchKeys is a Zipf-skewed access sequence over a 256-key pool,
// precomputed so the timed loops measure the store alone.
func benchKeys() []chunk.ID {
	pool := stressKeys(256)
	g := tensor.NewRNG(5)
	seq := make([]chunk.ID, 4096)
	for i := range seq {
		seq[i] = pool[sim.Zipf(g, len(pool), 0.9)]
	}
	return seq
}

func filledTiered(b *testing.B, depth int, keys []chunk.ID) *Tiered {
	b.Helper()
	ts := MustTiered(benchTiers(depth), LRU)
	var payload Sized = Bytes(benchChunk)
	for _, k := range keys {
		if err := ts.Put(k, payload); err != nil {
			b.Fatal(err)
		}
	}
	return ts
}

// BenchmarkTieredGetAt times one prefetch-aware lookup (no transfer in
// flight), including any promotion and demotion cascade it triggers.
func BenchmarkTieredGetAt(b *testing.B) {
	for _, depth := range []int{1, 3} {
		b.Run(fmt.Sprintf("tiers%d", depth), func(b *testing.B) {
			keys := benchKeys()
			ts := filledTiered(b, depth, keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.GetAt(keys[i%len(keys)], float64(i))
			}
		})
	}
}

// BenchmarkTieredContains times one presence probe, the affinity
// router's scoring call. Half the probed keys were never inserted, as
// when the router probes other replicas' stacks for a tenant's chunks.
func BenchmarkTieredContains(b *testing.B) {
	for _, depth := range []int{1, 3} {
		b.Run(fmt.Sprintf("tiers%d", depth), func(b *testing.B) {
			keys := benchKeys()
			ts := filledTiered(b, depth, keys)
			absent := stressKeys(2 * len(keys))[len(keys):]
			probes := make([]chunk.ID, 0, 2*len(keys))
			for i, k := range keys {
				probes = append(probes, k, absent[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFound = ts.Contains(probes[i%len(probes)])
			}
		})
	}
}

// benchFound keeps BenchmarkTieredContains's probes from being optimised
// away.
var benchFound bool

// BenchmarkTieredPut times one chunk insert or replace, evictions and
// demotions included.
func BenchmarkTieredPut(b *testing.B) {
	for _, depth := range []int{1, 3} {
		b.Run(fmt.Sprintf("tiers%d", depth), func(b *testing.B) {
			keys := benchKeys()
			ts := filledTiered(b, depth, keys)
			var payload Sized = Bytes(benchChunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.Put(keys[i%len(keys)], payload) //nolint:errcheck // fits the top tier
			}
		})
	}
}

// BenchmarkTieredUpdate times the per-token decode-KV append: a Put that
// grows a key already resident on the top tier, in place — found through
// the tier's index (tiersN), or through a Slot handle, as the serving
// runtime writes it (tiersN-slot).
func BenchmarkTieredUpdate(b *testing.B) {
	for _, depth := range []int{1, 3} {
		for _, handle := range []bool{false, true} {
			name := fmt.Sprintf("tiers%d", depth)
			var slot *Slot
			if handle {
				name, slot = name+"-slot", new(Slot)
			}
			b.Run(name, func(b *testing.B) {
				ts := filledTiered(b, depth, benchKeys())
				gen := chunk.Hash("bench/gen", []int{0})
				payload := new(Bytes)
				*payload = 64
				ts.PutSlot(slot, gen, payload) //nolint:errcheck // fits the top tier
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					*payload = Bytes(64 + i%1024)
					ts.PutSlot(slot, gen, payload) //nolint:errcheck // fits the top tier
				}
			})
		}
	}
}

// BenchmarkPopularityTouch times one decayed access count.
func BenchmarkPopularityTouch(b *testing.B) {
	keys := benchKeys()
	p := NewPopularity(64, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(keys[i%len(keys)], float64(i)*1e-3)
	}
}

// BenchmarkPopularityTop times the predictive prefetcher's query: the two
// hottest of 1024 tracked chunks passing a filter, into a reused buffer.
func BenchmarkPopularityTop(b *testing.B) {
	p := NewPopularity(64, 4096)
	keys := stressKeys(1024)
	g := tensor.NewRNG(9)
	for i := 0; i < 8192; i++ {
		p.Touch(keys[sim.Zipf(g, len(keys), 0.9)], float64(i)*1e-3)
	}
	keep := func(id chunk.ID) bool { return id[0]&1 == 0 }
	var top []chunk.ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top = p.Top(top[:0], 10, 2, keep)
	}
}
