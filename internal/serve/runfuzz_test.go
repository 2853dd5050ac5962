package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"repro/internal/baselines"
	"repro/internal/device"
	"repro/internal/kvstore"
	"repro/internal/timing"
	"repro/internal/workload"
)

// fuzzBytes hands out fuzz input one decision at a time. Past the end
// every decision reads 0, so a short input takes the first option of
// each remaining choice.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// pick returns the next decision as an index below n.
func (b *fuzzBytes) pick(n int) int { return b.next() % n }

// fuzzRun is one decoded RunWorkload call.
type fuzzRun struct {
	cfg       Config
	w         workload.Workload
	n, warmup int
	seed      int64
	stream    []workload.Request // the open stream's requests; nil for a closed loop
}

// decodeFuzzRun decodes a bounded configuration and workload: scheme,
// flat or tiered store, router, prefetch policy, scheduler, SLO targets,
// geometric or deterministic decode lengths, tenants, the stream (a
// TenantMix, Bursty, Diurnal, a MultiTenant of drifting Bursty tenants,
// generators mixed with a recorded and reloaded trace, or a closed loop),
// and for an open stream a membership schedule placed against its last
// arrival. Many combinations fail validation on purpose: RunWorkload
// must reject them with an error.
func decodeFuzzRun(t *testing.T, data []byte) fuzzRun {
	b := fuzzBytes(data)
	cfg := Config{
		Spec:           timing.Mistral7B,
		Scheme:         []baselines.Scheme{baselines.CacheBlend, baselines.FullKVReuse, baselines.PrefixCaching, baselines.FullRecompute}[b.pick(4)],
		Ratio:          float64(b.pick(5)) / 4,
		Device:         device.NVMeSSD,
		Replicas:       b.pick(5),
		MaxBatch:       b.pick(9),
		Router:         []string{"", RouterShared, RouterHash, RouterAffinity}[b.pick(4)],
		PrefetchPolicy: []string{"", PrefetchOff, PrefetchOnEnqueue, PrefetchPredictive}[b.pick(4)],
		Sched:          []string{"", SchedFIFO, SchedChunkedPrefill, SchedDecodePriority, SchedSLO}[b.pick(5)],
		SLOTTFT:        []float64{0, 0.5, 2, 10}[b.pick(4)],
		SLOTBT:         []float64{0, 0.02, 0.05, 0.5}[b.pick(4)],
		ChunkTokens:    128 * (1 + b.pick(4)),
		QueryTokens:    32 * b.pick(5),
	}
	chunkBytes := cfg.Spec.KVBytes(cfg.ChunkTokens)
	if b.pick(2) == 1 {
		cfg.Tiers = []TierConfig{
			{Device: device.GPUHBM, Capacity: int64(1+b.pick(16)) * chunkBytes},
			{Device: device.CPURAM, Capacity: int64(1+b.pick(64)) * chunkBytes},
			{Device: []device.Device{device.NVMeSSD, device.SlowSSD}[b.pick(2)]},
		}
	} else {
		cfg.StoreCapacity = int64(b.pick(128)) * chunkBytes // 0 = unbounded
	}
	tenants := 1 + b.pick(4)
	chunks := workload.Chunks{Pool: 4 + b.pick(200), PerRequest: 1 + b.pick(8),
		Skew: float64(b.pick(13)) / 10, DriftPeriod: float64(30 * b.pick(3))}
	d := b.pick(8)
	dec := workload.Decode{Mean: float64(8 * (d % 4)), Deterministic: d >= 4}
	rate := []float64{0.5, 2, 8, 32}[b.pick(4)]
	r := fuzzRun{cfg: cfg, n: 10 + b.next(), seed: int64(b.next())}
	r.warmup = b.pick(r.n)
	switch b.pick(6) {
	case 0:
		r.w = workload.TenantMix(tenants, rate, chunks, chunks.DriftPeriod, dec)
	case 1:
		r.w = workload.Bursty{Rate: rate, Burst: float64(1 + b.pick(24)), Chunks: chunks, Decode: dec}
	case 2:
		r.w = workload.ClosedLoop{Tenants: tenants, Clients: 1 + b.pick(8),
			Think: []float64{0.1, 1, 4}[b.pick(3)], Chunks: chunks, Decode: dec}
		return r
	case 3:
		r.w = workload.Diurnal{Rate: rate, Amplitude: float64(b.pick(5)) / 4,
			Period: []float64{0, 10, 60}[b.pick(3)], Chunks: chunks, Decode: dec}
	case 4:
		// serve-routed-tiered's shape: drifting bursty tenants over
		// disjoint corpus slices.
		m := workload.MultiTenant{Tenants: make([]workload.Workload, tenants)}
		burst, drift := float64(1+b.pick(8)), []float64{30, 60}[b.pick(2)]
		for i := range m.Tenants {
			ch := chunks
			ch.Offset, ch.DriftPeriod = i*chunks.Pool, drift
			m.Tenants[i] = workload.Bursty{Rate: rate / float64(tenants), Burst: burst, Chunks: ch, Decode: dec}
		}
		r.w = m
	default:
		// Generator tenants beside a replayed one: a Poisson stream
		// recorded as a JSONL trace and loaded back.
		var buf bytes.Buffer
		rec := workload.Poisson{Rate: rate, Chunks: chunks, Decode: dec}
		if err := workload.Record(&buf, rec.Generate(1+b.pick(r.n), r.seed+1)); err != nil {
			t.Fatalf("recording %+v: %v", rec, err)
		}
		reqs, err := workload.Load(&buf)
		if err != nil {
			t.Fatalf("reloading %+v: %v", rec, err)
		}
		ch := chunks
		ch.Offset = chunks.Pool
		r.w = workload.MultiTenant{Tenants: []workload.Workload{
			workload.Diurnal{Rate: rate, Amplitude: 0.5, Chunks: ch, Decode: dec},
			workload.Trace{Label: "replay", Reqs: reqs},
			workload.Bursty{Rate: rate, Burst: 4, Chunks: ch, Decode: dec},
		}}
	}
	r.stream = r.w.Generate(r.n, r.seed)
	last := 0.0
	if len(r.stream) > 0 {
		last = r.stream[len(r.stream)-1].Arrival
	}
	at, nodes := 0.0, cfg.replicas()
	for i := b.pick(4); i > 0; i-- {
		at += last * float64(1+b.pick(8)) / 16 // may pass the last arrival
		if b.pick(3) == 0 {
			join := 1 + b.pick(2)
			r.cfg.Events = append(r.cfg.Events, MembershipEvent{At: at, Join: join})
			nodes += join
		} else {
			r.cfg.Events = append(r.cfg.Events, MembershipEvent{At: at, Kill: b.pick(nodes)})
		}
	}
	return r
}

// FuzzRunWorkload drives RunWorkload over the joint configuration space:
// scheme × flat/tiered × router × prefetch × scheduler × SLO targets ×
// decode × tenants × membership schedule, on an open stream (generated,
// mixed, or partly replayed from a trace) or a closed loop of at most a
// few hundred requests. Every input either fails validation with an
// error, or runs deterministically to a Result that marshals to JSON (no
// NaN or Inf) and keeps the run's conservation laws: tier hits plus
// misses equal lookups, every dispatched request is admitted once, an
// open stream or a closed loop completes exactly its measured requests,
// an open stream makes exactly the store lookups its scheme asks of its
// chunk lists, every utilisation, attainment and hit rate lies in
// [0, 1], and at run end no node's tier, nor any shard of it, holds more
// bytes than its capacity. The second run takes RunWorkload's own path
// but keeps its cluster, whose stacks the capacity law reads and whose
// dispatch budget and first measured index give a closed loop's measured
// count.
func FuzzRunWorkload(f *testing.F) {
	f.Add([]byte{})
	// CacheBlend, 4 replicas, affinity, predictive, tiered, a kill and a join.
	f.Add([]byte{0, 1, 4, 4, 3, 3, 0, 0, 0, 3, 0, 1, 7, 47, 3, 3, 80, 5, 11, 0, 2, 1, 140, 8, 50, 0, 2, 5, 1, 1, 3, 0, 0})
	// Hash routing with on-enqueue prefetch and decode under chunked prefill.
	f.Add([]byte{1, 3, 2, 3, 2, 2, 2, 0, 0, 1, 2, 1, 3, 20, 1, 1, 60, 4, 9, 30, 2, 2, 200, 3, 40, 1, 4, 1, 2, 5, 1, 1})
	// Shared node, slo scheduler with both targets, closed loop.
	f.Add([]byte{0, 2, 3, 6, 1, 3, 4, 2, 2, 3, 1, 1, 5, 30, 0, 2, 40, 5, 8, 0, 3, 1, 120, 9, 30, 2, 3, 1})
	// Prefix caching on a flat store.
	f.Add([]byte{2, 0, 2, 2, 0, 0, 0, 0, 0, 3, 4, 0, 60, 2, 100, 4, 9, 0, 1, 2, 90, 1, 10, 0})
	// Diurnal with deterministic decode, 4 replicas, affinity, predictive, tiered, a kill.
	f.Add([]byte{0, 1, 4, 4, 3, 3, 0, 0, 0, 3, 0, 1, 7, 47, 3, 0, 60, 4, 8, 0, 6, 1, 100, 3, 25, 3, 4, 1, 1, 3, 1, 2})
	// serve-routed-tiered's shape: four drifting bursty tenants over slow-SSD tiers.
	f.Add([]byte{0, 1, 4, 4, 3, 3, 0, 0, 0, 3, 0, 1, 7, 47, 1, 3, 44, 5, 11, 0, 0, 2, 190, 5, 50, 4, 3, 1, 0})
	// Generators beside a recorded and reloaded trace, a join.
	f.Add([]byte{1, 2, 2, 3, 1, 0, 2, 0, 0, 1, 2, 0, 40, 1, 30, 2, 10, 1, 5, 1, 80, 7, 20, 5, 40, 1, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeFuzzRun(t, data)
		res, err := RunWorkload(r.cfg, r.w, r.n, r.warmup, r.seed)
		if err != nil {
			return // rejected up front
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("Result does not marshal: %v\n%+v", err, res)
		}
		c, err := workloadCluster(r.cfg, r.w, r.n, r.warmup, r.seed)
		if err != nil {
			t.Fatalf("second run failed: %v", err)
		}
		if blob2, _ := json.Marshal(c.run()); !bytes.Equal(blob, blob2) {
			t.Fatalf("second run differs:\n%s\n%s", blob, blob2)
		}
		withinCapacity(t, c)
		var tierHits int64
		for _, tu := range res.Tiers {
			tierHits += tu.Hits
		}
		if tierHits+res.Misses != res.Lookups {
			t.Fatalf("tier hits %d + misses %d != lookups %d", tierHits, res.Misses, res.Lookups)
		}
		dispatched := int64(r.n) // a closed loop issues its whole budget
		if r.stream != nil {
			dispatched = int64(len(r.stream))
		}
		var admitted int64
		for _, n := range res.ReplicaRequests {
			admitted += n
		}
		if admitted != dispatched {
			t.Fatalf("replicas admitted %d requests, %d dispatched", admitted, dispatched)
		}
		if r.stream != nil {
			// The warmup tie rule: requests arriving with the warmup-th
			// one are measured whatever their index.
			first := r.warmup
			for first > 0 && r.stream[first-1].Arrival == r.stream[r.warmup].Arrival {
				first--
			}
			if want := len(r.stream) - first; res.Requests != want {
				t.Fatalf("%d measured requests completed, want %d", res.Requests, want)
			}
			// Lookup conservation: each request is admitted once and looks
			// up every chunk of its list (CacheBlend, full KV reuse), its
			// prefix entry (prefix caching) or nothing (full recompute).
			var lookups int64
			for _, req := range r.stream {
				switch r.cfg.Scheme {
				case baselines.CacheBlend, baselines.FullKVReuse:
					lookups += int64(len(req.Chunks))
				case baselines.PrefixCaching:
					lookups++
				}
			}
			if res.Lookups != lookups {
				t.Fatalf("%s: %d store lookups, want %d for the dispatched stream", r.cfg.Scheme, res.Lookups, lookups)
			}
		} else if want := c.total - c.firstMeasured; res.Requests != want {
			// A closed loop's measured count is known only once its
			// session has drawn its wave, so it is read off the cluster.
			t.Fatalf("closed loop: %d measured requests completed, want %d", res.Requests, want)
		}
		inUnit := func(name string, i int, v float64) {
			if v < 0 || v > 1 {
				t.Fatalf("%s[%d] = %v, outside [0, 1]", name, i, v)
			}
		}
		for i, v := range []float64{res.HitRate, res.HBMHitRate,
			res.SLOAttainment, res.SLOTTFTAttainment, res.SLOTBTAttainment} {
			inUnit("HitRate, HBMHitRate, SLOAttainment, SLOTTFTAttainment, SLOTBTAttainment", i, v)
		}
		for i, v := range res.ReplicaUtil {
			inUnit("ReplicaUtil", i, v)
		}
		for i, v := range res.ReplicaHitRates {
			inUnit("ReplicaHitRates", i, v)
		}
		for i, tu := range res.Tiers {
			inUnit("Tiers HitRate", i, tu.HitRate)
		}
		for i, tu := range res.Tenants {
			inUnit("Tenants HitRate", i, tu.HitRate)
			inUnit("Tenants SLOAttainment", i, tu.SLOAttainment)
		}
	})
}

// withinCapacity checks the capacity law on a finished run: no node's
// tier, and no shard of it, holds more resident bytes than its capacity.
// Each resident entry's bytes count toward the shard its id routes to,
// by the id's leading eight bytes as the stack routes it; a tier's
// shards must sum to the tier's own resident count.
func withinCapacity(t *testing.T, c *cluster) {
	t.Helper()
	tiers := c.buildTiers()
	type resident struct {
		h     kvstore.Handle
		bytes int64
	}
	var all []resident
	for ni, n := range c.nodes {
		all = all[:0]
		n.store.EachH(func(h kvstore.Handle, bytes int64) { all = append(all, resident{h, bytes}) })
		used := make([][]int64, len(tiers))
		for i, tc := range tiers {
			used[i] = make([]int64, max(tc.Shards, 1))
		}
		for _, e := range all {
			i, id := n.store.TierOf(e.h), c.names.ID(e.h)
			used[i][binary.LittleEndian.Uint64(id[:8])%uint64(len(used[i]))] += e.bytes
		}
		for i, ts := range n.store.TierStats() {
			if ts.Capacity > 0 && ts.BytesResident > ts.Capacity {
				t.Fatalf("node %d tier %d holds %d bytes, capacity %d", ni, i, ts.BytesResident, ts.Capacity)
			}
			var sum int64
			for j, u := range used[i] {
				sum += u
				if ts.Capacity <= 0 {
					continue
				}
				shards := int64(len(used[i]))
				capacity := ts.Capacity / shards
				if j == 0 {
					capacity += ts.Capacity % shards
				}
				if u > max(capacity, 1) {
					t.Fatalf("node %d tier %d shard %d of %d holds %d bytes, capacity %d", ni, i, j, shards, u, max(capacity, 1))
				}
			}
			if sum != ts.BytesResident {
				t.Fatalf("node %d tier %d: entries sum to %d bytes, the tier counts %d", ni, i, sum, ts.BytesResident)
			}
		}
	}
}
