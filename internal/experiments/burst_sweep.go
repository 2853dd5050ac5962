package experiments

import (
	"strconv"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/workload"
)

// BurstSweep holds the offered mean rate fixed and raises burstiness: a
// plain Poisson stream against MMPP on/off streams whose ON windows run
// at 4× and 16× the mean rate. Queueing delay is convex in the arrival
// process, so bursts inflate tail TTFT even though the average load never
// changes — and the spread separates the schemes: CacheBlend's short
// service times drain a burst's backlog within the window, while full
// recompute (already near saturation at this mean rate) turns each ON
// window into a queue it can't work off. This is the serving-side story
// of the paper's real-traffic claim, measurable only with the workload
// subsystem.
func BurstSweep(requests int) *Table {
	if requests <= 0 {
		requests = 900
	}
	warmup := requests / 3
	spec := timing.Mistral7B
	base := serve.Config{
		Spec:             spec,
		Scheme:           baselines.CacheBlend,
		Ratio:            0.15,
		Device:           device.NVMeSSD,
		ChunkPool:        1500,
		ChunksPerRequest: 6,
		ChunkTokens:      512,
		QueryTokens:      32,
		Skew:             0.8,
	}
	// Equal mean rate for every cell: 80% of full recompute's capacity,
	// so the slowest scheme is close to saturation and burst sensitivity
	// is visible, while cached schemes have headroom to absorb bursts.
	fullCfg := base
	fullCfg.Scheme = baselines.FullRecompute
	rate := 0.8 * capacity(fullCfg)

	chunks := workload.Chunks{Pool: base.ChunkPool, PerRequest: base.ChunksPerRequest, Skew: base.Skew}
	loads := []struct {
		name string
		w    workload.Workload
	}{
		{"poisson", workload.Poisson{Rate: rate, Chunks: chunks}},
		{"bursty×4", workload.Bursty{Rate: rate, Burst: 4, Chunks: chunks}},
		{"bursty×16", workload.Bursty{Rate: rate, Burst: 16, Chunks: chunks}},
	}
	schemes := []baselines.Scheme{baselines.CacheBlend, baselines.PrefixCaching, baselines.FullRecompute}

	t := &Table{
		Title: "Burst sweep: TTFT vs burstiness at equal mean rate (Mistral-7B)",
		Header: []string{"scheme", "workload", "rate(req/s)", "mean-ttft(s)", "p95(s)",
			"tput(req/s)", "hit-rate", "qdepth"},
		Notes: []string{
			f3(rate) + " req/s mean rate for every cell (80% of full recompute's capacity)",
			"bursty×k = MMPP on/off arrivals with ON windows at k× the mean rate, same long-run mean",
			"requests per cell: " + strconv.Itoa(requests) + ", first " + strconv.Itoa(warmup) + " excluded as warmup",
		},
	}
	// The capacity probe above runs first (every cell's rate depends on
	// it); the (scheme, load) grid itself runs on the worker pool with
	// rows assembled in grid order.
	cells := pmap(len(schemes)*len(loads), func(i int) serve.Result {
		cfg := base
		cfg.Scheme = schemes[i/len(loads)]
		res, err := serve.RunWorkload(cfg, loads[i%len(loads)].w, requests, warmup, 42)
		if err != nil {
			panic("experiments: burst sweep: " + err.Error())
		}
		return res
	})
	for si, scheme := range schemes {
		for li, load := range loads {
			res := cells[si*len(loads)+li]
			t.Rows = append(t.Rows, []string{
				string(scheme), load.name, f3(res.Rate), f3(res.MeanTTFT), f3(res.P95TTFT),
				f3(res.Throughput), pct(res.HitRate), f2(res.MeanQueueDepth),
			})
		}
	}
	return t
}
