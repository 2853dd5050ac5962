package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/workload"
)

// runPoisson runs one serving cell at seed 42: the first requests of a
// Poisson stream at rate, drawn from the config's sampling fields.
func runPoisson(cfg serve.Config, rate float64, requests, warmup int) serve.Result {
	w := workload.Poisson{Rate: rate, Chunks: workload.Chunks{
		Pool: cfg.ChunkPool, PerRequest: cfg.ChunksPerRequest, Skew: cfg.Skew}}
	res, err := serve.RunWorkload(cfg, w, requests, warmup, 42)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return res
}

// capacity is serve.Capacity at seed 42, the probe that anchors a rate
// sweep.
func capacity(cfg serve.Config) float64 {
	c, err := serve.Capacity(cfg, 42)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return c
}

// Fig14 reproduces Figure 14: mean TTFT versus request rate for
// CacheBlend, full KV recompute, and two prefix-caching capacity
// configurations (RAM only vs RAM+SSD) on the extended RAG workloads.
func Fig14(requests int) *Table {
	if requests <= 0 {
		requests = 1500
	}
	warmup := requests / 3
	t := &Table{
		Title:  "Figure 14: TTFT vs request rate (extended RAG workload)",
		Header: []string{"workload", "model", "scheme", "rate(req/s)", "mean-ttft(s)", "p95(s)", "hit-rate"},
		Notes: []string{
			"prefix-caching(ram): store capped at 16 contexts; prefix-caching(ram+ssd): 256 contexts",
			fmt.Sprintf("%d requests per point, first %d excluded as warmup", requests, warmup),
		},
	}
	type variant struct {
		name     string
		scheme   baselines.Scheme
		capacity func(spec timing.Spec) int64
	}
	unbounded := func(timing.Spec) int64 { return 0 }
	variants := []variant{
		{"cacheblend", baselines.CacheBlend, unbounded},
		{"full-recompute", baselines.FullRecompute, unbounded},
		{"prefix-caching(ram)", baselines.PrefixCaching,
			func(s timing.Spec) int64 { return 16 * s.KVBytes(6*512) }},
		{"prefix-caching(ram+ssd)", baselines.PrefixCaching,
			func(s timing.Spec) int64 { return 256 * s.KVBytes(6*512) }},
	}
	workloads := []struct {
		name string
		pool int
		skew float64
	}{
		{"musique-extended", 1500, 0.8},
		{"2wikimqa-extended", 2000, 0.8},
	}
	// Rate multipliers around each model's full-recompute capacity so the
	// hockey-stick is visible for every scheme.
	mults := []float64{0.4, 0.8, 1.6, 3.2}
	specs := timing.Specs()
	// The full (workload, model, variant, rate) grid — the package's
	// largest — runs on the worker pool; rows assemble in grid order.
	type fig14Cell struct {
		rate float64
		res  serve.Result
	}
	cells := pmap(len(workloads)*len(specs)*len(variants)*len(mults), func(i int) fig14Cell {
		wl := workloads[i/(len(specs)*len(variants)*len(mults))]
		spec := specs[i/(len(variants)*len(mults))%len(specs)]
		v := variants[i/len(mults)%len(variants)]
		rate := mults[i%len(mults)] / spec.FullPrefillTTFT(6*512+32)
		cfg := serve.Config{
			Spec:             spec,
			Scheme:           v.scheme,
			Ratio:            0.15,
			Device:           device.NVMeSSD,
			StoreCapacity:    v.capacity(spec),
			Replicas:         1, // the paper's single-GPU testbed
			ChunkPool:        wl.pool,
			ChunksPerRequest: 6,
			ChunkTokens:      512,
			QueryTokens:      32,
			Skew:             wl.skew,
		}
		return fig14Cell{rate: rate, res: runPoisson(cfg, rate, requests, warmup)}
	})
	i := 0
	for _, wl := range workloads {
		for _, spec := range specs {
			for _, v := range variants {
				for range mults {
					cell := cells[i]
					i++
					t.Rows = append(t.Rows, []string{
						wl.name, spec.Name, v.name,
						f3(cell.rate), f3(cell.res.MeanTTFT), f3(cell.res.P95TTFT), pct(cell.res.HitRate),
					})
				}
			}
		}
	}
	return t
}

// Fig14Scaling extends Figure 14 beyond the paper's single-GPU testbed:
// the same CacheBlend rate sweep across replica counts with continuous
// batching, showing how the serving runtime's saturation point moves as
// the cluster scales out over one shared sharded KV store.
func Fig14Scaling(requests int) *Table {
	if requests <= 0 {
		requests = 900
	}
	warmup := requests / 3
	spec := timing.Mistral7B
	t := &Table{
		Title: "Figure 14 (scaling): CacheBlend TTFT vs rate across replicas (Mistral-7B)",
		Header: []string{"replicas", "rate(req/s)", "mean-ttft(s)", "p95(s)",
			"tput(req/s)", "mean-batch", "mean-util"},
		Notes: []string{
			"continuous batching, cap 4; one sharded KV store shared by all replicas",
			fmt.Sprintf("%d requests per point, first %d excluded as warmup", requests, warmup),
		},
	}
	base := serve.Config{
		Spec:             spec,
		Scheme:           baselines.CacheBlend,
		Ratio:            0.15,
		Device:           device.NVMeSSD,
		MaxBatch:         4,
		ChunkPool:        1500,
		ChunksPerRequest: 6,
		ChunkTokens:      512,
		QueryTokens:      32,
		Skew:             0.8,
	}
	// The capacity probe anchors every cell's rate, so it runs first; the
	// (replicas, rate) grid then runs on the worker pool in grid order.
	soloCap := capacity(base)
	rates := []float64{soloCap, 2 * soloCap, 4 * soloCap, 8 * soloCap}
	counts := []int{1, 2, 4}
	cells := pmap(len(counts)*len(rates), func(i int) serve.Result {
		cfg := base
		cfg.Replicas = counts[i/len(rates)]
		return runPoisson(cfg, rates[i%len(rates)], requests, warmup)
	})
	for ci, replicas := range counts {
		for ri, rate := range rates {
			res := cells[ci*len(rates)+ri]
			util := metrics.Mean(res.ReplicaUtil)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(replicas), f3(rate), f3(res.MeanTTFT), f3(res.P95TTFT),
				f2(res.Throughput), f2(res.MeanBatch), pct(util),
			})
		}
	}
	return t
}

// Fig15 reproduces Figure 15: CacheBlend versus full recompute TTFT while
// varying (a) the number of chunks, (b) chunk length and (c) batch size.
func Fig15() *Table {
	spec := timing.Mistral7B
	d := device.NVMeSSD
	t := &Table{
		Title:  "Figure 15: sensitivity to chunks, chunk length, batch size (Mistral-7B)",
		Header: []string{"sweep", "value", "cacheblend(s)", "full-recompute(s)", "speedup"},
	}
	row := func(sweep string, val int, L int, batch int) {
		bl := float64(batch) * (spec.TTFT(0.15, L, d, true) - spec.DecodeSecPerToken)
		full := float64(batch) * spec.Prefill(L)
		t.Rows = append(t.Rows, []string{
			sweep, fmt.Sprint(val), f3(bl + spec.DecodeSecPerToken),
			f3(full + spec.DecodeSecPerToken), f2(full / bl),
		})
	}
	for _, n := range []int{3, 6, 9, 12} {
		row("chunks(×512tok)", n, n*512, 1)
	}
	for _, cl := range []int{300, 600, 900} {
		row("chunk-length(6 chunks)", cl, 6*cl, 1)
	}
	for _, b := range []int{2, 6, 10} {
		row("batch-size(6×512)", b, 6*512, b)
	}
	return t
}

// Fig16 reproduces Figure 16: quality versus TTFT as the recompute ratio
// sweeps — the knee where a small recompute ratio recovers full-prefill
// quality. The constructed model concentrates cross-chunk dependence in
// very few tokens, so its knee sits below the paper's 5%; the 0% row shows
// the collapse.
func Fig16(maxCases int) *Table {
	ev, v := NewQAWorld()
	spec := timing.Yi34B
	t := &Table{
		Title:  "Figure 16: quality vs TTFT across recompute ratios (Yi-34B)",
		Header: []string{"dataset", "ratio", "quality", "metric", "ttft(s)"},
	}
	ratios := []float64{0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.18, 0.30, 1.0}
	for _, cfg := range dataset.Configs() {
		if maxCases > 0 {
			cfg.Cases = maxCases
		}
		ds := dataset.Generate(v, cfg)
		for _, r := range ratios {
			ev.Ratio = r
			q := QualityEval{Ev: ev, DS: ds, TopK: 6, MaxCases: maxCases}
			quality := q.Score(baselines.CacheBlend)
			ttft := spec.TTFT(r, 6*512, device.NVMeSSD, true) + spec.Prefill(32)
			t.Rows = append(t.Rows, []string{cfg.Name, pct(r), f2(quality), ds.Metric, f3(ttft)})
		}
	}
	ev.Ratio = 0.15 // restore the default
	return t
}

// Fig17 reproduces Figure 17: quality vs TTFT with the KV store on CPU
// RAM versus a 4 Gbps slow disk (Yi-34B, 2WikiMQA).
func Fig17(maxCases int) *Table {
	ev, v := NewQAWorld()
	spec := timing.Yi34B
	t := &Table{
		Title:  "Figure 17: storage-device sensitivity (Yi-34B, 2wikimqa)",
		Header: []string{"device", "scheme", "quality", "ttft(s)"},
	}
	cfg := dataset.TwoWikiConfig()
	if maxCases > 0 {
		cfg.Cases = maxCases
	}
	ds := dataset.Generate(v, cfg)
	q := QualityEval{Ev: ev, DS: ds, TopK: 6, MaxCases: maxCases}
	quality := map[baselines.Scheme]float64{}
	for _, s := range []baselines.Scheme{
		baselines.CacheBlend, baselines.FullKVReuse, baselines.PrefixCaching, baselines.FullRecompute,
	} {
		quality[s] = q.Score(s)
	}
	const ctx, queryL = 6 * 512, 32
	for _, d := range []device.Device{device.CPURAM, device.SlowDisk} {
		rows := []struct {
			s    baselines.Scheme
			ttft float64
		}{
			{baselines.CacheBlend, spec.TTFT(0.15, ctx, d, true) + spec.Prefill(queryL)},
			{baselines.FullKVReuse, spec.FullReuseTTFT(ctx, d) + spec.Prefill(queryL)},
			{baselines.PrefixCaching, spec.PrefixCachingTTFT(ctx+queryL, 6)},
			{baselines.FullRecompute, spec.FullPrefillTTFT(ctx + queryL)},
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{d.Name, string(r.s), f2(quality[r.s]), f3(r.ttft)})
		}
	}
	return t
}

// Fig14Quality is the quality companion to Figure 14: scheme quality on
// the shared-corpus extended workloads (the paper reports Figure 14 "for
// baselines with similar quality"; this table shows which those are).
// The evaluator's chunk-KV memoisation plays the role of the warm KV
// store: chunk caches computed for one query are reused by the next.
func Fig14Quality(maxCases int) *Table {
	ev, v := NewQAWorld()
	t := &Table{
		Title:  "Figure 14 (companion): quality on the extended workloads",
		Header: []string{"workload", "scheme", "quality"},
	}
	for _, cfg := range []dataset.ExtendedConfig{dataset.MusiqueExtended(), dataset.TwoWikiExtended()} {
		if maxCases > 0 {
			cfg.Queries = maxCases
		}
		ds := dataset.GenerateExtended(v, cfg)
		q := QualityEval{Ev: ev, DS: ds, TopK: 6, MaxCases: maxCases}
		for _, s := range []baselines.Scheme{
			baselines.CacheBlend, baselines.FullRecompute, baselines.PrefixCaching, baselines.FullKVReuse,
		} {
			t.Rows = append(t.Rows, []string{cfg.Name, string(s), f2(q.Score(s))})
		}
	}
	return t
}
