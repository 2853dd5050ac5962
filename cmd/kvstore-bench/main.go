// Command kvstore-bench exercises the KV cache store: hit rates under a
// Zipf-skewed chunk workload at several capacities, LRU versus FIFO
// eviction, and the simulated loading delay per storage tier.
//
// Usage:
//
//	kvstore-bench -ops 200000 -pool 5000
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/chunk"
	"repro/internal/device"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/timing"
)

func main() {
	var (
		ops  = flag.Int("ops", 100000, "lookups to simulate")
		pool = flag.Int("pool", 5000, "distinct chunks")
		skew = flag.Float64("skew", 0.8, "popularity skew")
		seed = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	if err := validate(*ops, *pool, *skew); err != nil {
		fmt.Fprintln(os.Stderr, "kvstore-bench:", err)
		os.Exit(1)
	}

	spec := timing.Mistral7B
	chunkBytes := spec.KVBytes(512)
	fmt.Printf("chunk KV size: %.1f MB (Mistral-7B, 512 tokens)\n\n", float64(chunkBytes)/1e6)

	fmt.Println("hit rate by capacity and eviction policy:")
	fmt.Printf("%-12s %-8s %-8s %-10s\n", "capacity", "lru", "fifo", "evictions(lru)")
	for _, frac := range []float64{0.01, 0.05, 0.1, 0.25, 0.5} {
		capBytes := int64(float64(*pool) * frac * float64(chunkBytes))
		lruRate, lruStats := run(*ops, *pool, *skew, *seed, capBytes, kvstore.LRU, chunkBytes)
		fifoRate, _ := run(*ops, *pool, *skew, *seed, capBytes, kvstore.FIFO, chunkBytes)
		fmt.Printf("%-12s %-8.3f %-8.3f %-10d\n",
			fmt.Sprintf("%.0f%% of pool", frac*100), lruRate, fifoRate, lruStats.Evictions)
	}

	fmt.Println("\nper-tier load time for one 6-chunk context:")
	ctxBytes := 6 * chunkBytes
	for _, d := range device.Tiers() {
		fmt.Printf("%-14s %8.1f ms\n", d.Name, d.ReadTime(ctxBytes)*1000)
	}
}

// validate rejects flag values the workload cannot draw from: no lookups,
// an empty pool, or a skew sim.Zipf cannot use.
func validate(ops, pool int, skew float64) error {
	switch {
	case ops <= 0:
		return fmt.Errorf("-ops %d: must be positive", ops)
	case pool <= 0:
		return fmt.Errorf("-pool %d: must be positive", pool)
	case math.IsNaN(skew) || math.IsInf(skew, 0) || skew < 0:
		return fmt.Errorf("-skew %v: must be finite and non-negative", skew)
	}
	return nil
}

func run(ops, pool int, skew float64, seed int64, capBytes int64, policy kvstore.Policy, chunkBytes int64) (float64, kvstore.Stats) {
	g := tensor.NewRNG(seed)
	s := kvstore.New(device.NVMeSSD, capBytes, policy)
	for i := 0; i < ops; i++ {
		id := chunk.Hash("bench", []int{sim.Zipf(g, pool, skew)})
		if _, ok := s.Get(id); !ok {
			s.Put(id, kvstore.Bytes(chunkBytes)) //nolint:errcheck
		}
	}
	st := s.Stats()
	return st.HitRate(), st
}
