package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/serve"
	"repro/internal/timing"
)

// Fig17Tiered extends Figure 17's slow-device story from a single device
// choice to a placement hierarchy: the serving simulation replayed over
// tier splits of one fixed total KV budget (NVMe only, RAM+NVMe,
// HBM+RAM+NVMe) across request rates. Hot chunks get promoted onto the
// fast tiers, so at equal capacity the deeper stacks serve lower TTFT —
// the multi-tier generalisation of the paper's "faster storage helps
// until recompute hides it" observation.
func Fig17Tiered(requests int) *Table {
	if requests <= 0 {
		requests = 900
	}
	warmup := requests / 3
	spec := timing.Mistral7B
	const pool, chunks, chunkTokens = 1500, 6, 512
	total := int64(pool/2) * spec.KVBytes(chunkTokens) // half the corpus fits
	splits := []struct {
		name  string
		tiers []serve.TierConfig
	}{
		{"nvme-only", []serve.TierConfig{
			{Device: device.NVMeSSD, Capacity: total},
		}},
		{"ram+nvme", []serve.TierConfig{
			{Device: device.CPURAM, Capacity: total / 4},
			{Device: device.NVMeSSD, Capacity: total - total/4},
		}},
		{"hbm+ram+nvme", []serve.TierConfig{
			{Device: device.GPUHBM, Capacity: total / 8},
			{Device: device.CPURAM, Capacity: total / 4},
			{Device: device.NVMeSSD, Capacity: total - total/8 - total/4},
		}},
	}
	t := &Table{
		Title: "Figure 17 (tiered): TTFT vs request rate across KV placement hierarchies (Mistral-7B)",
		Header: []string{"placement", "rate(req/s)", "mean-ttft(s)", "p95(s)",
			"hit-rate", "tier-hits", "promotions", "demotions"},
		Notes: []string{
			fmt.Sprintf("equal total KV budget per split: %d contexts (%.1f GB)",
				pool/2, float64(total)/1e9),
			"CacheBlend, per-tier recompute ratio from the loading controller (floor 15%)",
			fmt.Sprintf("%d requests per point, first %d excluded as warmup", requests, warmup),
		},
	}
	base := serve.Config{
		Spec:             spec,
		Scheme:           baselines.CacheBlend,
		Ratio:            0.15,
		Device:           device.NVMeSSD,
		ChunkPool:        pool,
		ChunksPerRequest: chunks,
		ChunkTokens:      chunkTokens,
		QueryTokens:      32,
		Skew:             1.0,
	}
	// The capacity probe anchors every cell's rate, so it runs first; the
	// (split, rate) grid then runs on the worker pool in grid order.
	soloCap := capacity(base)
	rates := []float64{soloCap * 0.5, soloCap, 2 * soloCap}
	cells := pmap(len(splits)*len(rates), func(i int) serve.Result {
		cfg := base
		cfg.Tiers = splits[i/len(rates)].tiers
		return runPoisson(cfg, rates[i%len(rates)], requests, warmup)
	})
	for si, split := range splits {
		for ri, rate := range rates {
			res := cells[si*len(rates)+ri]
			var promos, demos int64
			hits := make([]string, len(res.Tiers))
			for i, tu := range res.Tiers {
				hits[i] = fmt.Sprintf("%s:%d", tu.Device, tu.Hits)
				promos += tu.Promotions
				demos += tu.Demotions
			}
			t.Rows = append(t.Rows, []string{
				split.name, f3(rate), f3(res.MeanTTFT), f3(res.P95TTFT),
				pct(res.HitRate), strings.Join(hits, " "),
				fmt.Sprint(promos), fmt.Sprint(demos),
			})
		}
	}
	return t
}
