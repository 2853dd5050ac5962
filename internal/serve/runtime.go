// The concurrent serving runtime: one arrival process feeds a shared
// admission queue; N replica processes pull from it and execute requests
// with continuous batching. A request runs a two-phase lifecycle. Its
// prefill is decomposed into one equal step per retrieved context chunk
// plus one for the query suffix; the last prefill step emits the first
// token (TTFT). A request with a generation budget then switches to
// per-token decode steps — each emits one token, appends its KV bytes to
// the shared store, and batches freely with other members' prefill and
// decode steps, the way vLLM-style continuous batching interleaves
// phases at iteration boundaries. Replicas admit waiting requests and
// retire finished ones only at step boundaries. The request stream
// itself — arrival times, tenants, chunk ids, decode budgets — comes
// pre-materialised from an internal/workload generator or a replayed
// trace, so the runtime never samples randomness of its own and a run is
// a pure function of (config, stream).
package serve

import (
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/engine"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// request is one queued serving request.
type request struct {
	idx     int
	arrival float64
	tenant  int
	ids     []int // retrieved chunk ids, from the workload stream
	decode  int   // decode steps after the first token, from the stream
	client  int   // issuing closed-loop client (0 under open-loop streams)
}

// member is a request resident in a replica's running batch: a two-phase
// state machine (prefill steps, then decode steps once decoding is set).
// Under the whole-chunk policies prefill advances one equal step per
// chunk (unit/remaining); under a budgeted (chunked-prefill) policy
// it advances at token granularity instead (prefTotal/prefDone/perTok),
// the per-step slice set by allocPrefill from the shared budget.
type member struct {
	req           request
	unit          float64 // duration of one step in the current phase
	remaining     int     // steps left in the current phase
	prefTotal     int     // prefill tokens in total (budgeted stepping)
	prefDone      int     // prefill tokens already computed
	perTok        float64 // prefill seconds per token
	slice         int     // tokens granted for the current step
	decoding      bool    // prefill finished, decode phase entered
	lastToken     float64 // virtual time the latest token was emitted
	ttft          float64 // realised TTFT (recorded only when SLOs are evaluated)
	tbtSum        float64 // summed TBT samples (ditto), for the mean-TBT target
	si            int     // index of the store the request was admitted against
	genKey        chunk.ID
	genBytes      int64          // generated-KV footprint resident in the store
	genPayload    *kvstore.Bytes // reusable boxed payload for the per-token decode-KV Put
	genSlot       kvstore.Slot   // handle on genKey's store entry: a token's Put skips the index probe
	lookups, hits int64          // its chunk-store lookup outcome at admission
	acc           *tenantAcc     // tenant accumulator, resolved once at admission (nil unless multi-tenant and measured)
}

// tenantAcc accumulates one tenant's post-warmup service statistics.
type tenantAcc struct {
	ttfts           []float64
	tbts            metrics.Runs
	e2es            []float64
	outTokens       int64
	lookups, hits   int64
	sloDone, sloMet int64 // completions SLO-evaluated / meeting every target
}

// cluster is the state of one simulated run. The store-shaped state —
// stores, admission queues, popularity views, loader queues — is sliced
// per replica: under the routed policies (hash, affinity) every replica
// owns index r of each slice, its own node; under the shared topology the
// slices have one element every replica shares, a single node.
type cluster struct {
	cfg Config
	// The run's input: wave is the whole open stream, or a closed loop's
	// initial wave (each client's first request), and clients[i] is
	// wave[i]'s issuing client. A closed loop's session issues every later
	// request, one per completion, up to the run's total.
	wave    []workload.Request
	clients []int            // nil for an open stream
	session workload.Session // nil for an open stream
	total   int              // requests the run dispatches: the stream's length, or the session's budget
	issued  int              // requests dispatched so far, and the next one's idx
	ctlDone bool             // the control process has walked the wave and applied every event
	lastArr float64          // arrival of the last dispatched request

	warmup        int
	firstMeasured int     // requests from this idx on are measured
	cutoff        float64 // virtual time the warmup period ends: the warmup-th dispatch's arrival

	clock      *sim.Clock
	queues     []*sim.Queue[request]
	stores     []*kvstore.Tiered
	chunkBytes int64
	genNS      string  // store-key namespace of generated KV: the model name + "/gen"
	tokenBytes int64   // generated KV bytes per decoded token
	decodeUnit float64 // unbatched per-token decode step duration
	hasDecode  bool    // some request carries a generation budget
	budget     int     // per-step prefill token budget (0 = whole-chunk steps)
	isRouted   bool    // per-replica stores with real routing (hash/affinity)
	ring       *hashRing
	pops       []*kvstore.Popularity
	pfQueues   []*sim.Queue[prefetchJob] // loader work queues (active policies only)
	admitted   []bool                    // request idx → already admitted (loader cancellation)
	predPend   []int                     // queued predictive jobs per loader queue (dedupe)
	inflight   []int                     // requests routed to each node, not yet retired
	dead       []bool                    // replica index → killed by a membership event
	rerouted   []bool                    // request idx → re-enqueued by a kill (nil without events)
	failovers  int                       // kill events fired
	reroutedN  int64                     // requests drained off dead nodes and re-routed
	firstKill  float64                   // virtual time of the first kill (-1 = none yet)
	ttftAt     []float64                 // first-token timestamps matching ttfts (nil without events)

	// The config's effective values, resolved once per run (resolve): a
	// value-receiver Config helper called per step or per admission
	// copies the whole Config.
	replicas       int  // configured replica count, joins excluded
	maxBatch       int  // per-step batch cap
	decodePriority bool // the decode-priority policy gates admission
	tiered         bool // multi-tier hierarchy: per-tier recompute ratios

	// SLO state. sloSched orders admission by deadline (the slo policy);
	// sloOn evaluates every completion against the targets — set whenever
	// a target is, so it always holds under the slo policy, which
	// requires one.
	sloSched          bool
	sloOn             bool
	sloTTFT, sloTBT   float64
	sloCmp            func(a, b request) bool // queue pop order at the current virtual time
	riskMet, riskDone []int64                 // per-tenant running SLO outcomes (all completions)
	sloOK             int64                   // measured completions meeting every target
	sloTTFTOK         int64                   // … meeting the TTFT target
	sloTBTOK          int64                   // … meeting the TBT target
	prefillOrder      []*member               // allocPrefill grant-order scratch

	ttfts         []float64
	tbts          metrics.Runs // one sample per measured decode token, as runs of equal values
	e2es          []float64
	prefillDelays []float64 // arrival → batch admission, post-warmup
	stallTime     float64   // decoder-seconds lost to prefill pacing
	tierStall     float64   // prefill seconds lost to non-HBM tier reads
	reWarmStall   float64   // tier stall paid by measured re-routed requests
	outTokens     int64
	completed     int
	lastDone      float64
	busy          []float64
	batchHist     metrics.Histogram
	depthSum      float64
	depthN        int
	depthSums     []float64 // per-replica depth sums at measured arrivals (routed)
	replicaReqs   []int64   // requests each replica admitted
	// post-warmup step counts by batch composition
	stepsPrefill, stepsDecode, stepsMixed int64
	multiTenant                           bool
	tenants                               []*tenantAcc // dense, indexed by tenant id; nil = never measured

	// serviceTime scratch, reused across admissions. The single-token
	// scheduler discipline means at most one admission is in flight per
	// cluster, so per-call allocation buys nothing.
	tierScratch []int
	missScratch []chunk.ID
	dupScratch  []chunk.ID
	chunkSized  kvstore.Sized    // chunkBytes boxed once for every context-chunk Put
	keyTable    []keySlot        // chunk id → store key, for ids below len(keyTable)
	keyMap      map[int]chunk.ID // chunk id → store key, for ids the table does not cover
	keysCached  int              // distinct ids memoised in keyTable and keyMap
	keyScratch  []chunk.ID       // router scoring keys (used within one route call, no park inside)
	cntScratch  []int            // router per-node owner counts, same lifetime
	memberPool  []*member        // retired members recycled into the next admission
}

// keySlot is one chunk id's memoised store key.
type keySlot struct {
	key chunk.ID
	ok  bool
}

const (
	// keyTableMin: the chunk-key table always grows to cover an id below
	// it. The corpora of every figure, sweep and benchmark (at most 2000
	// chunks) stay below it, so generated workloads never reach keyMap.
	keyTableMin = 4096
	// keyTableSlack: past keyTableMin, the table grows to cover an id only
	// if the id is below this many times the distinct ids memoised.
	keyTableSlack = 8
)

// chunkKeyOf memoises chunkKey: the serving hot loop hashes each distinct
// chunk id once per run instead of once per lookup. Ids index a table
// directly; an id past its end grows it (growKeyTable) or, when growing
// that far would leave the table mostly empty, is memoised in keyMap
// instead. A replayed trace with a few huge ids thus costs a map entry
// each, and the table's memory stays proportional to the ids the run
// looks up.
func (c *cluster) chunkKeyOf(id int) chunk.ID {
	if uint(id) >= uint(len(c.keyTable)) && !c.growKeyTable(id) {
		k, ok := c.keyMap[id]
		if !ok {
			if c.keyMap == nil {
				c.keyMap = make(map[int]chunk.ID)
			}
			k = chunkKey(c.cfg.Spec.Name, id)
			c.keyMap[id] = k
			c.keysCached++
		}
		return k
	}
	s := &c.keyTable[id]
	if !s.ok {
		s.key, s.ok = chunkKey(c.cfg.Spec.Name, id), true
		c.keysCached++
	}
	return s.key
}

// growKeyTable grows the chunk-key table by doubling until it covers id,
// unless id is at least both keyTableMin and keyTableSlack times the
// distinct ids memoised (this one included); the table thus never
// exceeds twice the larger of the two. Ids the table now covers move out
// of keyMap. It reports whether the table covers id.
func (c *cluster) growKeyTable(id int) bool {
	if id < 0 || (id >= keyTableMin && id >= keyTableSlack*(c.keysCached+1)) {
		return false // negative ids fail workload validation; the map still copes
	}
	n := 2 * len(c.keyTable)
	if n < 64 {
		n = 64
	}
	for n <= id {
		n *= 2
	}
	grown := make([]keySlot, n)
	copy(grown, c.keyTable)
	for mid, k := range c.keyMap {
		if mid < n {
			grown[mid] = keySlot{key: k, ok: true}
			delete(c.keyMap, mid)
		}
	}
	c.keyTable = grown
	return true
}

// recycle zeroes a retired member (keeping its boxed payload for reuse)
// and returns it to the pool for the next admission.
func (c *cluster) recycle(m *member) {
	pay := m.genPayload
	*m = member{}
	m.genPayload = pay
	c.memberPool = append(c.memberPool, m)
}

// qi maps a replica index to its slot in the per-replica slices: its own
// index under the routed policies, the single shared slot otherwise.
func (c *cluster) qi(r int) int {
	if c.isRouted {
		return r
	}
	return 0
}

// measured reports whether a request belongs to the measured window. One
// rule for every per-request sample — TTFT, TBT, E2E, completion,
// prefill delay, tier stall, arrival-time queue depth: a request is
// measured iff its dispatch index is at least firstMeasured. Interval
// samples (observeStep) instead credit their post-cutoff overlap, since a
// step is not owned by one request.
func (c *cluster) measured(req request) bool { return req.idx >= c.firstMeasured }

// newCluster adopts a validated, arrival-ordered wave as an open stream;
// RunWorkload attaches a closed loop's clients, session and budget.
func newCluster(cfg Config, wave []workload.Request, warmup int) *cluster {
	c := &cluster{cfg: cfg, wave: wave, total: len(wave), warmup: warmup, cutoff: math.Inf(1)}
	maxTenant := 0
	// A closed loop's wave covers every client that will ever issue (a
	// client's later requests come only through its own completions), so
	// the stream-shape flags derived here are exact for it too; issue
	// still re-checks to stay safe against other Session implementations.
	for i := range wave {
		r := &wave[i]
		if r.Tenant != 0 {
			c.multiTenant = true
		}
		if r.Tenant > maxTenant {
			maxTenant = r.Tenant
		}
		if r.DecodeTokens > 0 {
			c.hasDecode = true
		}
	}
	if c.multiTenant {
		c.tenants = make([]*tenantAcc, maxTenant+1)
	}
	// The first warmup requests are excluded, except wave requests whose
	// arrival ties the warmup-th's: they are measured whatever their
	// index. The wave is dispatched in order, so for an open stream this
	// is exactly "arrives at or after the cutoff".
	c.firstMeasured = warmup
	if warmup < len(wave) {
		for c.firstMeasured > 0 && wave[c.firstMeasured-1].Arrival == wave[warmup].Arrival {
			c.firstMeasured--
		}
	}
	return c
}

// buildTiers maps the config's storage hierarchy (or its single-device
// fallback) onto kvstore tiers. Each tier splits into shards keyed by
// chunk-ID hash, each with an equal slice of the tier's capacity and its
// own LRU: one shard for a single replica (exact global LRU, the paper's
// setup), 8 when replicas share the store — but never so finely that a
// shard can't hold one chunk: a tiny bounded shard would silently reject
// every Put and serve 0% hits.
func (c *cluster) buildTiers() []kvstore.Tier {
	cfgs := c.cfg.tierConfigs()
	tiers := make([]kvstore.Tier, len(cfgs))
	for i, tc := range cfgs {
		shards := 8
		if c.cfg.replicas() == 1 {
			shards = 1
		}
		if tc.Capacity > 0 {
			if maxShards := int(tc.Capacity / c.chunkBytes); maxShards < shards {
				shards = maxShards
				if shards < 1 {
					shards = 1
				}
			}
		}
		tiers[i] = kvstore.Tier{Device: tc.Device, Capacity: tc.Capacity, Shards: shards}
	}
	return tiers
}

// resolve derives the run's fixed values from the config, once per run.
func (c *cluster) resolve() {
	cfg := &c.cfg
	c.chunkBytes = cfg.Spec.KVBytes(cfg.ChunkTokens)
	c.genNS = cfg.Spec.Name + "/gen"
	c.tokenBytes = cfg.Spec.KVBytesPerToken()
	c.decodeUnit = cfg.Spec.DecodeSecPerToken
	if cfg.Sched == SchedChunkedPrefill || cfg.Sched == SchedSLO {
		c.budget = prefillBudget
	}
	c.decodePriority = cfg.Sched == SchedDecodePriority
	c.sloSched = cfg.Sched == SchedSLO
	c.sloOn = cfg.sloOn()
	c.sloTTFT, c.sloTBT = cfg.SLOTTFT, cfg.SLOTBT
	c.isRouted = cfg.routed()
	c.replicas = cfg.replicas()
	c.maxBatch = cfg.maxBatch()
	c.tiered = cfg.tiered()
}

// setup builds the run's state from the config and the stream: stores,
// queues, routing and loader state, and the preallocated metric slices.
func (c *cluster) setup() {
	c.resolve()
	cfg := &c.cfg
	if c.sloSched {
		// One closure for the whole run: every min-pop orders the queue at
		// the popping replica's current virtual time.
		c.sloCmp = func(a, b request) bool { return c.sloCompare(a, b, c.clock.Now()) < 0 }
	}
	nodes := 1 // store-shaped state slots: one shared node, or one per replica
	if c.isRouted {
		nodes = c.replicas
	}
	c.stores = make([]*kvstore.Tiered, nodes)
	for i := range c.stores {
		// Every node gets the full configured tier stack: a routed cluster
		// is N nodes' worth of hardware, the shared baseline one node's.
		c.stores[i] = kvstore.MustTiered(c.buildTiers(), kvstore.LRU)
	}
	if cfg.prefetchActive() || cfg.Router == RouterAffinity {
		// One popularity estimator per node feeds the loaders and affinity
		// routing alike — the shared demand signal.
		c.pops = make([]*kvstore.Popularity, nodes)
		for i := range c.pops {
			c.pops[i] = kvstore.NewPopularity(popHalflife, popMaxEntries)
		}
	}
	if cfg.Router == RouterHash {
		c.ring = newHashRing(nodes)
	}

	c.clock = sim.NewClock()
	c.queues = make([]*sim.Queue[request], nodes)
	for i := range c.queues {
		c.queues[i] = sim.NewQueue[request](c.clock)
	}
	c.busy = make([]float64, c.replicas)
	c.admitted = make([]bool, c.total)
	c.dead = make([]bool, c.replicas)
	c.firstKill = -1
	if cfg.hasEvents() {
		c.rerouted = make([]bool, c.total)
	}
	c.replicaReqs = make([]int64, c.replicas)
	if c.isRouted {
		c.depthSums = make([]float64, nodes)
		c.inflight = make([]int, nodes)
	}
	if cfg.prefetchActive() {
		c.pfQueues = make([]*sim.Queue[prefetchJob], nodes)
		for i := range c.pfQueues {
			c.pfQueues[i] = sim.NewQueue[prefetchJob](c.clock)
		}
		c.predPend = make([]int, nodes)
	}

	// Preallocate the per-request metric slices: one TTFT/E2E per
	// measured request. Appends in the hot loop then never grow the
	// backing arrays.
	measuredN := c.total - c.firstMeasured
	c.ttfts = make([]float64, 0, measuredN)
	if c.hasDecode {
		c.e2es = make([]float64, 0, measuredN)
	}
	c.prefillDelays = make([]float64, 0, measuredN)
	if cfg.hasEvents() {
		c.ttftAt = make([]float64, 0, measuredN)
	}
}

// run executes the simulation and aggregates the Result.
func (c *cluster) run() Result {
	c.setup()
	cfg := &c.cfg
	// One deferred sweep instead of per-store defers: membership joins
	// append stores mid-run, and those must close too.
	defer func() {
		for _, s := range c.stores {
			s.Close()
		}
	}()

	// Start order is the event order at t=0: the control process, then
	// each replica's worker and loader.
	c.clock.Wake(0, &arrivals{c: c})
	for r := 0; r < c.replicas; r++ {
		c.startReplica(r)
	}
	end := c.clock.Run()

	res := Result{
		Requests:   c.completed,
		Replicas:   c.replicas,
		MeanBatch:  c.batchHist.Mean(),
		BatchSizes: c.batchHist.Counts(),
	}
	if c.lastArr > 0 {
		res.Rate = float64(c.issued) / c.lastArr
	}
	res.MeanTTFT = metrics.Mean(c.ttfts)
	res.P95TTFT = metrics.Percentile(c.ttfts, 95)
	window := c.lastDone - c.cutoff
	if c.completed > 0 && window > 0 {
		res.Throughput = float64(c.completed) / window
	}
	// Store statistics aggregate across the nodes; per-tier rows sum the
	// same tier index of every node's stack.
	var st kvstore.Stats
	for _, s := range c.stores {
		ss := s.Stats()
		st.Hits += ss.Hits
		st.Misses += ss.Misses
	}
	res.HitRate = st.HitRate()
	res.Lookups = st.Hits + st.Misses
	res.Misses = st.Misses
	for _, s := range c.stores {
		for i, ts := range s.TierStats() {
			if i == len(res.Tiers) {
				res.Tiers = append(res.Tiers, TierUsage{Device: ts.Device})
			}
			res.Tiers[i].Hits += ts.Hits
			res.Tiers[i].Promotions += ts.Promotions
			res.Tiers[i].Demotions += ts.Demotions
			res.Tiers[i].BytesResident += ts.BytesResident
		}
	}
	for i := range res.Tiers {
		res.Tiers[i].HitRate = metrics.Ratio(res.Tiers[i].Hits, res.Lookups)
	}
	if c.depthN > 0 {
		res.MeanQueueDepth = c.depthSum / float64(c.depthN)
	}
	res.ReplicaUtil = make([]float64, len(c.busy))
	for i, b := range c.busy {
		res.ReplicaUtil[i] = metrics.Utilization(b, end-c.cutoff)
	}
	if c.hasDecode {
		res.MeanTBT = c.tbts.Mean()
		res.P95TBT = c.tbts.Percentile(95)
		res.MeanE2E = metrics.Mean(c.e2es)
		res.P95E2E = metrics.Percentile(c.e2es, 95)
		res.OutputTokens = c.outTokens
		if c.outTokens > 0 && window > 0 {
			res.TokenThroughput = float64(c.outTokens) / window
		}
		if steps := c.stepsPrefill + c.stepsDecode + c.stepsMixed; steps > 0 {
			res.PrefillStepShare = float64(c.stepsPrefill) / float64(steps)
			res.DecodeStepShare = float64(c.stepsDecode) / float64(steps)
			res.MixedStepShare = float64(c.stepsMixed) / float64(steps)
		}
	}
	res.StallTime = c.stallTime
	res.MeanPrefillDelay = metrics.Mean(c.prefillDelays)
	res.P95PrefillDelay = metrics.Percentile(c.prefillDelays, 95)
	if c.sloOn {
		if c.completed > 0 {
			res.SLOAttainment = float64(c.sloOK) / float64(c.completed)
			if cfg.SLOTTFT > 0 {
				res.SLOTTFTAttainment = float64(c.sloTTFTOK) / float64(c.completed)
			}
			if cfg.SLOTBT > 0 {
				res.SLOTBTAttainment = float64(c.sloTBTOK) / float64(c.completed)
			}
		}
		res.SLOViolations = int64(c.completed) - c.sloOK
		if window > 0 {
			res.Goodput = float64(c.sloOK) / window
		}
	}
	var joins int64
	res.TierStallTime = c.tierStall
	for _, s := range c.stores {
		pf := s.PrefetchStats()
		res.PrefetchIssued += pf.Issued
		res.PrefetchHits += pf.Hits
		res.PrefetchWastedBytes += pf.BytesWasted
		joins += pf.InflightJoins
	}
	res.HBMHitRate = metrics.Ratio(res.Tiers[0].Hits+joins, res.Lookups)
	res.Router = cfg.Router
	if res.Router == "" {
		res.Router = RouterShared
	}
	res.ReplicaHitRates = make([]float64, len(c.stores))
	for i, s := range c.stores {
		res.ReplicaHitRates[i] = s.Stats().HitRate()
	}
	res.ReplicaRequests = c.replicaReqs
	res.LoadSkew = metrics.CoefVar(c.busy)
	if c.isRouted {
		// A shared node has one queue and one store: no queue balance to
		// measure, no second copy to count.
		if c.depthN > 0 {
			means := make([]float64, len(c.depthSums))
			for i, s := range c.depthSums {
				means[i] = s / float64(c.depthN)
			}
			res.QueueSkew = metrics.CoefVar(means)
		}
		res.DuplicationBytes = c.duplicationBytes()
	}
	res.Failovers = c.failovers
	res.ReroutedRequests = c.reroutedN
	res.ReWarmStall = c.reWarmStall
	res.RecoveryTime = c.recoveryTime(end)
	res.Tenants = c.tenantUsage()
	return res
}

// duplicationBytes is the routed cluster's redundancy bill at run end:
// the bytes resident beyond one copy per distinct chunk, summed across
// every node's tier stack. Hash routing duplicates the chunks a request
// straddles ownership over; affinity routing duplicates whatever two
// replicas' clienteles share.
func (c *cluster) duplicationBytes() int64 {
	var total, unique int64
	seen := make(map[chunk.ID]bool, c.stores[0].Len())
	for i, s := range c.stores {
		if c.dead[i] {
			continue // a dead node's residue is gone, not redundancy
		}
		s.Each(func(id chunk.ID, bytes int64) {
			total += bytes
			if !seen[id] {
				seen[id] = true
				unique += bytes
			}
		})
	}
	return total - unique
}

// tenantUsage renders the per-tenant accumulators, ordered by tenant id
// (the dense slice index). Single-tenant streams report nil.
func (c *cluster) tenantUsage() []TenantUsage {
	if !c.multiTenant {
		return nil
	}
	var out []TenantUsage
	for id, acc := range c.tenants {
		if acc == nil {
			continue // tenant never recorded a measured sample
		}
		out = append(out, TenantUsage{
			Tenant:        id,
			Requests:      len(acc.ttfts),
			MeanTTFT:      metrics.Mean(acc.ttfts),
			P95TTFT:       metrics.Percentile(acc.ttfts, 95),
			HitRate:       metrics.Ratio(acc.hits, acc.lookups),
			Lookups:       acc.lookups,
			MeanTBT:       acc.tbts.Mean(),
			P95TBT:        acc.tbts.Percentile(95),
			MeanE2E:       metrics.Mean(acc.e2es),
			OutputTokens:  acc.outTokens,
			SLOAttainment: metrics.Ratio(acc.sloMet, acc.sloDone),
		})
	}
	return out
}

// issue numbers one arriving request, routes it and hands it to its node:
// queue push, prefetch job, and the arrival-time depth sampling. Every
// request passes through here exactly once, in nondecreasing arrival
// order: a wave request from the control process, a closed loop's later
// ones from the client tasks their completions start.
func (c *cluster) issue(in *workload.Request, client int, now float64) {
	idx := c.issued
	if idx >= c.total {
		panic(fmt.Sprintf("serve: closed-loop session issued request %d past its budget %d", idx, c.total))
	}
	c.issued++
	c.lastArr = in.Arrival
	r := request{idx: idx, arrival: in.Arrival, tenant: in.Tenant,
		ids: in.Chunks, decode: in.DecodeTokens, client: client}
	// Defensive against Session implementations whose later issues
	// broaden the stream beyond the initial wave (ClosedLoop's cannot).
	if r.tenant != 0 {
		c.multiTenant = true
	}
	if r.decode > 0 {
		c.hasDecode = true
	}
	if idx == c.warmup {
		// The warmup period ends here: interval metrics (step telemetry,
		// utilization, throughput windows) cut at this timestamp.
		c.cutoff = r.arrival
	}
	t := c.route(r, now)
	if c.inflight != nil {
		c.inflight[t]++
	}
	// Sample the depth each measured arrival finds on the queue it
	// joins, excluding itself (arrivals see time averages — PASTA);
	// warmup-period arrivals are excluded like every other warmup
	// sample. Routed runs additionally sample every node's depth,
	// the balance snapshot QueueSkew summarises.
	if c.measured(r) {
		c.depthSum += float64(c.queues[t].Len())
		c.depthN++
		if c.depthSums != nil {
			for i, q := range c.queues {
				c.depthSums[i] += float64(q.Len())
			}
		}
	}
	c.queues[t].Push(r)
	if c.pfQueues != nil {
		// The node's loader starts moving this request's chunks
		// while it queues; under the predictive policy a backed-up
		// queue additionally triggers a popularity-driven promotion
		// — at most one queued per node (back-to-back triggers
		// would rank the same hot set and promote it twice).
		c.pfQueues[t].Push(prefetchJob{req: r.idx, ids: r.ids})
		if c.cfg.PrefetchPolicy == PrefetchPredictive &&
			c.queues[t].Len() > c.predDepth() && c.predPend[t] == 0 {
			c.predPend[t]++
			c.pfQueues[t].Push(prefetchJob{req: -1})
		}
	}
	c.closeIfDone()
}

// predDepth is the queue depth that triggers a predictive promotion: a
// node's queue backed up past the workers draining it — every replica in
// the shared topology, exactly one under the routed policies.
func (c *cluster) predDepth() int {
	if c.isRouted {
		return 1
	}
	return c.replicas
}

// arrivals is the control process. It interleaves the two input streams
// in time order: the wave's arrivals and membership events. An event
// tying an arrival's timestamp applies first, so the arrival routes
// against the post-event replica set. A closed loop's later arrivals are
// issued by the client tasks retire starts (and membership events are
// rejected up front by RunWorkload). Each Run performs the step it slept
// to, then sleeps to the next one.
type arrivals struct {
	c     *cluster
	i, ei int  // next wave request, next membership event
	armed bool // woken at the time of the next step
}

// next reports the virtual time of the control process's next step and
// whether that step is a membership event; ok=false once both streams
// are exhausted.
func (a *arrivals) next() (t float64, event, ok bool) {
	c := a.c
	events := c.cfg.Events
	if a.ei < len(events) && (a.i == len(c.wave) || events[a.ei].At <= c.wave[a.i].Arrival) {
		return events[a.ei].At, true, true
	}
	if a.i < len(c.wave) {
		return c.wave[a.i].Arrival, false, true
	}
	return 0, false, false
}

func (a *arrivals) Run(now float64) {
	c := a.c
	if a.armed {
		if _, event, _ := a.next(); event {
			c.applyEvent(c.cfg.Events[a.ei], now)
			a.ei++
		} else {
			client := 0
			if c.clients != nil {
				client = c.clients[a.i]
			}
			c.issue(&c.wave[a.i], client, now)
			a.i++
		}
	}
	t, _, ok := a.next()
	if !ok {
		c.ctlDone = true
		c.closeIfDone()
		return
	}
	a.armed = true
	c.clock.Wake(t, a)
}

// closeIfDone ends the input once every request is dispatched and the
// control process has applied its last membership event: replicas and
// loaders then exit once their queues drain. A kill after the last
// arrival re-routes the dead node's backlog, so it must find them open.
func (c *cluster) closeIfDone() {
	if c.issued < c.total || !c.ctlDone {
		return
	}
	for _, q := range c.queues {
		q.Close()
	}
	for _, q := range c.pfQueues {
		q.Close()
	}
}

// startReplica starts replica r's worker, and its loader when prefetch is
// active, at the current virtual time.
func (c *cluster) startReplica(r int) {
	now := c.clock.Now()
	c.clock.Wake(now, &replica{c: c, r: r, queue: c.queues[c.qi(r)]})
	if c.pfQueues != nil {
		c.clock.Wake(now, c.newLoader(r))
	}
}

// pop takes the next request off an admission queue without blocking:
// the most deadline-urgent one under the slo policy, the head otherwise.
func (c *cluster) pop(q *sim.Queue[request]) (request, bool) {
	if c.sloSched {
		return q.TryPopMin(c.sloCmp)
	}
	return q.TryPop()
}

// replica is one worker process: it keeps a running batch, admitting from
// its node's admission queue (the shared queue in the shared topology,
// its own under the routed policies) under the scheduling policy and
// stepping every member — prefilling or decoding — in lockstep, retiring
// completions at step boundaries. Each Run finishes the step it slept
// through (if any), admits, and sleeps through the next step; an idle
// replica parks on the queue instead, and exits once it is closed and
// drained.
type replica struct {
	c           *cluster
	r           int
	queue       *sim.Queue[request]
	batch       []*member
	deferred    int  // consecutive boundaries the policy held the door while work waited
	stepping    bool // woken at the end of a planned step
	step, stall float64
}

func (w *replica) Run(now float64) {
	c, r, queue := w.c, w.r, w.queue
	if w.stepping {
		w.stepping = false
		w.endStep(now)
	}
	if len(w.batch) == 0 {
		// Idle: take the next request, or park until one arrives. Policies
		// only gate top-ups — an empty replica always takes the next
		// request (the slo policy takes the most deadline-urgent one).
		req, ok := c.pop(queue)
		if !ok {
			if !queue.Closed() {
				queue.Wait(w)
			}
			return // parked, or queue closed and drained with the batch empty — done
		}
		if c.dead[r] && !queue.Closed() {
			// Killed while parked on the shared queue (routed queues
			// close at the kill, so a wait there never wakes a dead
			// worker with an item): hand the request back to the
			// tail for a live worker and exit. Once the queue is
			// closed the stream is over and survivors may already
			// have exited, so the item is served rather than risk
			// stranding it.
			c.reroutedN++
			c.rerouted[req.idx] = true
			queue.Push(req)
			return
		}
		w.batch = append(w.batch, c.admit(req, now, r))
		w.deferred = 0
	}
	// Continuous batching, join side: the policy decides how many of
	// the waiting requests may join at this step boundary (FIFO takes
	// everything that fits; decode-priority holds prefills while the
	// batch decodes). New requests only enter at a step boundary.
	headroom := c.maxBatch - len(w.batch)
	quota := c.admitQuota(w.batch, headroom, w.deferred)
	if c.dead[r] {
		quota = 0 // a dead worker finishes its batch but admits nothing
	}
	admitted := 0
	for admitted < quota {
		req, ok := c.pop(queue)
		if !ok {
			break
		}
		w.batch = append(w.batch, c.admit(req, now, r))
		admitted++
	}
	if admitted > 0 {
		w.deferred = 0
	} else if headroom > 0 && queue.Len() > 0 {
		w.deferred++ // work waited at an open door — age it
	}
	// Execute one step for every member in lockstep: the longest
	// member paces the step, each extra sequence adds the marginal
	// batching cost of the step's phase mix; budgeted policies bound
	// the prefill tokens the step may spend.
	w.step, w.stall = c.planStep(w.batch, now)
	w.stepping = true
	c.clock.Wake(now+w.step, w)
}

// endStep records the step that just ended at now and advances every
// member one step, retiring those that finish.
func (w *replica) endStep(now float64) {
	c := w.c
	c.observeStep(w.batch, w.step, w.stall, now, w.r)
	live := w.batch[:0]
	for _, m := range w.batch {
		if !m.decoding {
			var done bool
			if c.budget > 0 {
				if m.slice == 0 {
					// Resident but idle: this step's budget was
					// spent by members admitted ahead of it.
					live = append(live, m)
					continue
				}
				m.prefDone += m.slice
				m.slice = 0
				done = m.prefDone >= m.prefTotal
			} else {
				m.remaining--
				done = m.remaining == 0
			}
			if !done {
				live = append(live, m)
				continue
			}
			// Last prefill step: the first token is out.
			c.firstToken(m, now)
			if m.req.decode == 0 {
				c.retire(m, now) // prefill-only request
				continue
			}
			m.decoding = true
			m.unit = c.decodeUnit
			m.remaining = m.req.decode
			live = append(live, m)
			continue
		}
		c.token(m, now)
		m.remaining--
		if m.remaining == 0 {
			c.retire(m, now)
			continue
		}
		live = append(live, m)
	}
	w.batch = live
}

// planStep prices the batch's next step under the active policy and
// reports its decoder-seconds of stall. Whole-chunk policies price with
// stepTime; a budgeted policy allocates
// the step's prefill token slices first — in SLO order at the boundary
// time under the slo policy, admission order otherwise — and prices the
// bounded slice with the engine's chunked mixed-step model.
func (c *cluster) planStep(batch []*member, now float64) (step, stall float64) {
	if c.budget > 0 {
		prefillers, decoders, longest := c.allocPrefill(batch, now)
		if prefillers == 0 {
			return engine.DecodeStepTime(c.decodeUnit, len(batch), decodeOverhead), 0
		}
		decodeUnit := 0.0
		if decoders > 0 {
			decodeUnit = c.decodeUnit
		}
		step = engine.ChunkedStepTime(longest, decodeUnit, prefillers, decoders,
			batchOverhead, decodeOverhead)
		return step, c.stall(step, decoders, len(batch))
	}
	step = c.stepTime(batch)
	decoders := 0
	for _, m := range batch {
		if m.decoding {
			decoders++
		}
	}
	if decoders == len(batch) {
		return step, 0 // decode-only: nothing paced by prefill
	}
	return step, c.stall(step, decoders, len(batch))
}

// stall is the decoder-seconds a prefill-paced step costs beyond the
// decode-only step its decoders would have run at the same width — the
// head-of-line blocking the scheduling telemetry quantifies.
func (c *cluster) stall(step float64, decoders, width int) float64 {
	if decoders == 0 {
		return 0
	}
	extra := step - engine.DecodeStepTime(c.decodeUnit, width, decodeOverhead)
	if extra <= 0 {
		return 0
	}
	return extra * float64(decoders)
}

// admit computes the request's per-scheme prefill service time against
// replica r's store at its current state and splits it into
// chunk-boundary steps — or, under a budgeted policy, into
// token-granularity progress over the same total service time; the decode
// budget rides along on the member. now is the admission instant, sampled
// for the prefill-delay telemetry. Marking the request admitted here is
// what cancels its still-queued prefetch job: the tier reads are paid
// now, so promoting its chunks afterwards could only waste transfers.
func (c *cluster) admit(req request, now float64, r int) *member {
	si := c.qi(r)
	c.admitted[req.idx] = true
	c.replicaReqs[r]++
	steps := len(req.ids) + 1 // one per chunk, one for the query
	service, lookups, hits, stall := c.serviceTime(si, req.ids, now)
	var m *member
	if n := len(c.memberPool); n > 0 {
		m = c.memberPool[n-1] // zeroed by recycle, its boxed payload kept
		c.memberPool = c.memberPool[:n-1]
	} else {
		m = &member{}
	}
	m.req, m.si = req, si
	m.unit, m.remaining = service/float64(steps), steps
	m.lookups, m.hits = lookups, hits
	if c.budget > 0 {
		m.prefTotal = len(req.ids)*c.cfg.ChunkTokens + c.cfg.QueryTokens
		m.perTok = service / float64(m.prefTotal)
	}
	if req.decode > 0 {
		m.genKey = c.genKey(req.idx)
		// One boxed payload per decoding member: every per-token Put
		// rewrites this value instead of boxing a fresh interface. Pooled
		// members carry theirs over.
		if m.genPayload == nil {
			m.genPayload = new(kvstore.Bytes)
		}
	}
	// Admission-time telemetry follows its request through the one warmup
	// rule, like TTFT: a warmup request admitted after the cutoff
	// contributes nothing, a cutoff-tying one contributes everywhere.
	if !c.measured(req) {
		return m
	}
	if c.multiTenant {
		// Resolve the tenant accumulator once here instead of on every
		// recorded TTFT/TBT/E2E sample. Only measured requests record, so
		// a warmup admission leaves no empty accumulator behind.
		m.acc = c.acc(req.tenant)
	}
	c.prefillDelays = append(c.prefillDelays, now-req.arrival)
	c.tierStall += stall
	if c.rerouted != nil && c.rerouted[req.idx] {
		c.reWarmStall += stall
	}
	return m
}

// genKey is the store key of one request's generated (decode) KV — a
// namespace of its own (genNS, built once per run), so generation growth
// can never alias a context chunk's cache entry.
func (c *cluster) genKey(idx int) chunk.ID {
	return chunk.Hash(c.genNS, []int{idx})
}

const (
	// batchOverhead is the marginal step-time factor of each additional
	// sequence in a batch: a step over B requests costs the longest
	// member step × (1 + batchOverhead×(B−1)). Values below 1 make
	// batching pay (amortised weight loading, cf. Figure 15c). It prices
	// prefill-paced steps — any step whose batch contains at least one
	// prefilling member.
	batchOverhead = 0.35
	// decodeOverhead is the marginal step-time factor of each additional
	// sequence in a decode-only step (engine.DecodeStepTime). Decode is
	// memory-bandwidth-bound — the batch shares one weight stream and
	// only per-sequence KV reads scale with width — so its marginal cost
	// is far below prefill's.
	decodeOverhead = 0.08
)

// stepTime is the virtual duration of one batched step: the longest
// member paces it, every extra sequence adds a marginal cost. A step
// with any prefilling member is FLOP-bound and priced with the prefill
// batch overhead; a decode-only step runs at the engine's
// memory-bandwidth-bound decode-step cost, whose width factor is far
// smaller — which is exactly why decode-heavy batches sustain high token
// throughput while a single interleaved prefill stalls every decoder in
// the batch for a whole chunk step.
func (c *cluster) stepTime(batch []*member) float64 {
	longest := 0.0
	anyPrefill := false
	for _, m := range batch {
		if m.unit > longest {
			longest = m.unit
		}
		if !m.decoding {
			anyPrefill = true
		}
	}
	if anyPrefill {
		return longest * (1 + batchOverhead*float64(len(batch)-1))
	}
	return engine.DecodeStepTime(longest, len(batch), decodeOverhead)
}

// observeStep records one executed step's telemetry — batch size, busy
// time, stall, phase composition — unless it ends inside the warmup
// period (one cutoff for every metric, the cutoff TTFT uses).
func (c *cluster) observeStep(batch []*member, step, stall, now float64, r int) {
	if now <= c.cutoff {
		return
	}
	// A step straddling the cutoff only credits its post-cutoff portion:
	// utilization's denominator starts at the cutoff, so crediting the
	// whole step would overstate busy time (and could push it past 1).
	// Stall is pro-rated the same way.
	if busy := now - c.cutoff; busy < step {
		stall *= busy / step
		step = busy
	}
	c.busy[r] += step
	c.stallTime += stall
	c.batchHist.Observe(len(batch))
	prefill, decode := false, false
	for _, m := range batch {
		if m.decoding {
			decode = true
		} else {
			prefill = true
		}
	}
	switch {
	case prefill && decode:
		c.stepsMixed++
	case decode:
		c.stepsDecode++
	default:
		c.stepsPrefill++
	}
}

// firstToken marks the prefill→decode transition: TTFT is recorded here,
// not at retirement, and the first token's KV lands in the member's
// node's store for requests that will keep generating.
func (c *cluster) firstToken(m *member, now float64) {
	m.lastToken = now
	if c.sloOn {
		// Realised TTFT rides on the member for retirement-time SLO
		// evaluation — kept for every request, warmup included, because
		// the scheduler's tenant-risk signal wants the whole run.
		m.ttft = now - m.req.arrival
	}
	if m.req.decode > 0 {
		m.genBytes = c.tokenBytes
		*m.genPayload = kvstore.Bytes(m.genBytes)
		c.stores[m.si].PutSlot(&m.genSlot, m.genKey, m.genPayload) //nolint:errcheck
	}
	if !c.measured(m.req) {
		return
	}
	ttft := now - m.req.arrival
	c.ttfts = append(c.ttfts, ttft)
	if c.ttftAt != nil {
		// RecoveryTime needs to know when each sample was emitted, not
		// just its value — collected only under a membership schedule.
		c.ttftAt = append(c.ttftAt, now)
	}
	if m.acc != nil {
		m.acc.ttfts = append(m.acc.ttfts, ttft)
	}
}

// token records one decode step's emitted token: a time-between-tokens
// sample and another token's worth of KV appended to the request's
// growing entry in the shared store — generation competing with cached
// chunks for the fast tiers is what makes decode-phase KV pressure real.
// Both cost O(1): the append writes through the member's handle on its
// entry, and the sample usually extends the TBT log's last run.
func (c *cluster) token(m *member, now float64) {
	m.genBytes += c.tokenBytes
	*m.genPayload = kvstore.Bytes(m.genBytes)
	c.stores[m.si].PutSlot(&m.genSlot, m.genKey, m.genPayload) //nolint:errcheck
	if c.sloOn {
		m.tbtSum += now - m.lastToken
	}
	if c.measured(m.req) {
		tbt := now - m.lastToken
		c.tbts.Add(tbt)
		if m.acc != nil {
			m.acc.tbts.Add(tbt)
		}
	}
	m.lastToken = now
}

// retire removes a finished request from the system: its generated KV is
// released from the store, and post-warmup requests contribute their
// completion statistics.
func (c *cluster) retire(m *member, now float64) {
	defer c.recycle(m) // the caller drops m from the batch after retire
	if m.req.decode > 0 {
		c.stores[m.si].Remove(m.genKey)
	}
	if c.inflight != nil {
		c.inflight[m.si]--
	}
	if c.sloOn {
		c.sloOutcome(m)
	}
	if c.session != nil {
		// Completion feedback: the issuing client thinks, then issues its
		// next request from a short-lived task of its own. The session
		// guarantees the next arrival is strictly after now, so the sleep
		// is real and the dispatch order stays nondecreasing in time.
		if iss, ok := c.session.Complete(m.req.client, now); ok {
			c.clock.Wake(now, &client{c: c, iss: iss})
		}
	}
	if !c.measured(m.req) {
		return
	}
	c.completed++
	if now > c.lastDone {
		c.lastDone = now
	}
	acc := m.acc
	if acc != nil {
		acc.lookups += m.lookups
		acc.hits += m.hits
	}
	if c.hasDecode {
		e2e := now - m.req.arrival
		tokens := int64(1 + m.req.decode)
		c.e2es = append(c.e2es, e2e)
		c.outTokens += tokens
		if acc != nil {
			acc.e2es = append(acc.e2es, e2e)
			acc.outTokens += tokens
		}
	}
}

// client is one closed-loop issue between the completion that triggered
// it and its arrival. It starts at the completion and then sleeps to the
// arrival — two hops, so its events order exactly as the process it
// models: a start at now, then a sleep.
type client struct {
	c     *cluster
	iss   workload.Issue
	armed bool // woken at the issue's arrival
}

func (cl *client) Run(now float64) {
	if !cl.armed {
		cl.armed = true
		cl.c.clock.Wake(cl.iss.Req.Arrival, cl)
		return
	}
	cl.c.issue(&cl.iss.Req, cl.iss.Client, now)
}

// sloOutcome evaluates a completed request against the configured
// targets: it always feeds the scheduler's per-tenant risk signal (every
// completion, warmup included), and accumulates the reported attainment
// telemetry for measured completions. A request
// meets its SLO iff its TTFT is within SLOTTFT (when set) and its mean
// TBT is within SLOTBT (when set; prefill-only requests satisfy TBT
// trivially).
func (c *cluster) sloOutcome(m *member) {
	ttftOK := c.sloTTFT <= 0 || m.ttft <= c.sloTTFT
	tbtOK := c.sloTBT <= 0 || m.req.decode == 0 ||
		m.tbtSum/float64(m.req.decode) <= c.sloTBT
	met := ttftOK && tbtOK
	if c.sloSched {
		c.bumpRisk(m.req.tenant, met)
	}
	if !c.measured(m.req) {
		return
	}
	if ttftOK {
		c.sloTTFTOK++
	}
	if tbtOK {
		c.sloTBTOK++
	}
	if met {
		c.sloOK++
	}
	if m.acc != nil {
		m.acc.sloDone++
		if met {
			m.acc.sloMet++
		}
	}
}

// acc returns (allocating if needed) the tenant's accumulator. The dense
// slice is sized from the wave's maximum tenant id in newCluster, and
// grown here should a session broaden its tenant set mid-run.
func (c *cluster) acc(tenant int) *tenantAcc {
	if tenant >= len(c.tenants) {
		grown := make([]*tenantAcc, tenant+1)
		copy(grown, c.tenants)
		c.tenants = grown
	}
	a := c.tenants[tenant]
	if a == nil {
		a = &tenantAcc{}
		c.tenants[tenant] = a
	}
	return a
}
