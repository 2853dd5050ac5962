package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/chunk"
	"repro/internal/sim"
	"repro/internal/workload"
)

// failoverEvents is the canonical churn schedule for these tests: kill
// node 1 mid-run, join a cold node later. The failoverMix stream spans
// ~19 s for 300 requests, so both events land well inside the measured
// window. The rate is chosen hot enough that queues carry a backlog —
// a kill against an idle cluster has nothing to re-route, and a cold
// joined node only attracts traffic once the in-flight penalty on the
// incumbents outweighs their resident-chunk affinity.
func failoverEvents() []MembershipEvent {
	return []MembershipEvent{{At: 8, Kill: 1}, {At: 13, Join: 1}}
}

func failoverMix() workload.Workload { return routerTestMix(4.0) }

func TestMembershipEventValidate(t *testing.T) {
	cases := []struct {
		name   string
		events []MembershipEvent
	}{
		{"non-positive time", []MembershipEvent{{At: 0, Kill: 1}}},
		{"out of order", []MembershipEvent{{At: 20, Kill: 1}, {At: 10, Kill: 2}}},
		{"kill unknown replica", []MembershipEvent{{At: 5, Kill: 9}}},
		{"kill negative replica", []MembershipEvent{{At: 5, Kill: -1}}},
		{"double kill", []MembershipEvent{{At: 5, Kill: 1}, {At: 6, Kill: 1}}},
		{"negative join", []MembershipEvent{{At: 5, Join: -2}}},
		{"kill and join in one event", []MembershipEvent{{At: 5, Kill: 1, Join: 1}}},
		{"kill the last survivor", []MembershipEvent{
			{At: 1, Kill: 0}, {At: 2, Kill: 1}, {At: 3, Kill: 2}, {At: 4, Kill: 3}}},
	}
	for _, tc := range cases {
		cfg := routerTestConfig(RouterHash)
		cfg.Events = tc.events
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A joined replica is killable, and a kill freeing the count keeps
	// later kills of other nodes legal.
	cfg := routerTestConfig(RouterAffinity)
	cfg.Events = []MembershipEvent{{At: 1, Join: 2}, {At: 2, Kill: 5}, {At: 3, Kill: 0}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestFailoverKillJoinCompletes: a kill mid-run must lose no requests —
// the dead node's queue drains back through the router with original
// arrivals intact — and the telemetry must see the event on every
// policy.
func TestFailoverKillJoinCompletes(t *testing.T) {
	w := failoverMix()
	for _, router := range []string{RouterShared, RouterHash, RouterAffinity} {
		cfg := routerTestConfig(router)
		base, err := RunWorkload(cfg, w, 300, 50, 7)
		if err != nil {
			t.Fatalf("%s baseline: %v", router, err)
		}
		cfg.Events = failoverEvents()
		res, err := RunWorkload(cfg, w, 300, 50, 7)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if res.Failovers != 1 {
			t.Errorf("%s: Failovers = %d, want 1", router, res.Failovers)
		}
		if res.Requests != base.Requests {
			t.Errorf("%s: completed %d measured requests with churn, baseline %d — failover dropped samples",
				router, res.Requests, base.Requests)
		}
		if res.RecoveryTime <= 0 {
			t.Errorf("%s: RecoveryTime = %v, want > 0 after a kill", router, res.RecoveryTime)
		}
		if res.ReWarmStall < 0 {
			t.Errorf("%s: negative ReWarmStall %v", router, res.ReWarmStall)
		}
		if cfg.routed() {
			if res.ReroutedRequests <= 0 {
				t.Errorf("%s: ReroutedRequests = %d, want > 0 (the kill drains a backlogged queue)",
					router, res.ReroutedRequests)
			}
			if res.ReWarmStall <= 0 {
				t.Errorf("%s: ReWarmStall = %v, want > 0 for re-routed traffic hitting cold survivors",
					router, res.ReWarmStall)
			}
			// The joined node exists and served something.
			if len(res.ReplicaHitRates) != 5 {
				t.Errorf("%s: %d replica stores after a join, want 5", router, len(res.ReplicaHitRates))
			}
			if len(res.ReplicaRequests) != 5 || res.ReplicaRequests[4] == 0 {
				t.Errorf("%s: joined replica admitted %v requests, want some", router, res.ReplicaRequests)
			}
		}
		// The event fields must round-trip (omitempty drops them only when
		// zero) and event-free runs must omit them entirely.
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", router, err)
		}
		var back Result
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", router, err)
		}
		if back.Failovers != res.Failovers || back.ReroutedRequests != res.ReroutedRequests {
			t.Errorf("%s: event telemetry did not round-trip", router)
		}
		baseBlob, _ := json.Marshal(base)
		for _, field := range []string{"Failovers", "ReroutedRequests", "ReWarmStall", "RecoveryTime"} {
			if jsonHasField(baseBlob, field) {
				t.Errorf("%s: event-free Result serialises %s", router, field)
			}
		}
	}
}

func jsonHasField(blob []byte, field string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		return false
	}
	_, ok := m[field]
	return ok
}

// TestFailoverDeterminism: same seed + same event list ⇒ byte-identical
// Result JSON, for every router policy. Membership churn is input, not
// nondeterminism.
func TestFailoverDeterminism(t *testing.T) {
	w := failoverMix()
	for _, router := range []string{RouterShared, RouterHash, RouterAffinity} {
		cfg := routerTestConfig(router)
		cfg.Events = failoverEvents()
		a, err := RunWorkload(cfg, w, 250, 40, 11)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		b, err := RunWorkload(cfg, w, 250, 40, 11)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("%s: failover run not deterministic:\n%s\n%s", router, aj, bj)
		}
	}
}

// TestFailoverRaceStress runs concurrent routed simulations containing
// kills and joins — the -race companion of the determinism test, catching
// any shared state the membership paths touch across cluster instances.
func TestFailoverRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("race stress in full mode only")
	}
	w := failoverMix()
	routers := []string{RouterShared, RouterHash, RouterAffinity}
	done := make(chan error, 2*len(routers))
	for i := 0; i < 2; i++ {
		for _, router := range routers {
			cfg := routerTestConfig(router)
			cfg.PrefetchPolicy = PrefetchOnEnqueue
			cfg.Events = failoverEvents()
			go func() {
				_, err := RunWorkload(cfg, w, 200, 30, 5)
				done <- err
			}()
		}
	}
	for i := 0; i < cap(done); i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailoverMarshalZeroTrafficReplica: a replica with zero measured
// traffic (killed almost immediately; another joined after the last
// arrival) must still produce a marshalable Result — NaN in the
// per-replica telemetry makes json.Marshal fail the whole run.
func TestFailoverMarshalZeroTrafficReplica(t *testing.T) {
	w := routerTestMix(2.0)
	for _, router := range []string{RouterHash, RouterAffinity} {
		cfg := routerTestConfig(router)
		cfg.Events = []MembershipEvent{{At: 0.001, Kill: 3}, {At: 10000, Join: 1}}
		res, err := RunWorkload(cfg, w, 120, 20, 2)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("%s: Result with zero-traffic replicas does not marshal: %v", router, err)
		}
		if got := len(res.ReplicaHitRates); got != 5 {
			t.Errorf("%s: %d replica hit rates, want 5 (dead and cold nodes included)", router, got)
		}
	}
}

// TestRouteHashChunklessLeastLoaded pins the satellite fix: a chunkless
// request must go to the least-loaded live node. The old fallback,
// req.idx % len(c.queues), ignored load entirely and — once membership
// events exist — could index a dead node and panic pushing to its closed
// queue.
func TestRouteHashChunklessLeastLoaded(t *testing.T) {
	cfg := routerTestConfig(RouterHash)
	c := newCluster(cfg, nil, 0)
	c.isRouted = true
	c.clock = sim.NewClock()
	c.queues = make([]*sim.Queue[request], 4)
	for i := range c.queues {
		c.queues[i] = sim.NewQueue[request](c.clock)
	}
	c.inflight = []int{3, 1, 2, 4}
	c.dead = make([]bool, 4)
	req := request{idx: 8} // the old modulo fallback would pick node 0
	if got := c.routeHash(req); got != 1 {
		t.Fatalf("chunkless request routed to node %d, want least-loaded node 1", got)
	}
	c.dead[1] = true
	if got := c.routeHash(req); got != 2 {
		t.Fatalf("chunkless request routed to node %d after kill of 1, want node 2", got)
	}
	c.dead[0], c.dead[2] = true, true
	// Node 0 — the modulo target — is now dead; only node 3 survives.
	if got := c.routeHash(req); got != 3 {
		t.Fatalf("chunkless request routed to node %d, want sole live node 3", got)
	}
}

// TestAffinityJoinNoThrash pins the scale-out property: adding a cold
// replica under load must not increase the donors' tier-demotion
// cascades — affinity migrates tenants by attracting their future
// requests, never by churning what the donors already hold.
func TestAffinityJoinNoThrash(t *testing.T) {
	w := failoverMix()
	reqs := w.Generate(300, 3)
	run := func(events []MembershipEvent) *cluster {
		cfg := routerTestConfig(RouterAffinity)
		cfg.Events = events
		c := newCluster(cfg, reqs, 50)
		c.run()
		return c
	}
	donorDemotions := func(c *cluster) int64 {
		var n int64
		for _, s := range c.stores[:4] {
			for _, ts := range s.TierStats() {
				n += ts.Demotions
			}
		}
		return n
	}
	base := run(nil)
	joined := run([]MembershipEvent{{At: 10, Join: 1}})
	if len(joined.stores) != 5 {
		t.Fatalf("join did not add a store: %d", len(joined.stores))
	}
	if joined.replicaReqs[4] == 0 {
		t.Fatal("joined replica attracted no traffic — affinity never migrated a tenant")
	}
	baseD, joinD := donorDemotions(base), donorDemotions(joined)
	if joinD > baseD {
		t.Fatalf("join increased donor demotions %d → %d — scale-out is thrashing the donors' tiers", baseD, joinD)
	}
}

// TestHashRingRemoveAdd: removing a replica moves only the chunks it
// owned (survivors keep theirs — the failover half of the stability
// property), and re-adding it restores the original ring exactly.
func TestHashRingRemoveAdd(t *testing.T) {
	ring := newHashRing(4)
	const total = 3000
	before := make([]int, total)
	for i := range before {
		before[i] = ring.owner(chunk.Hash("ring-failover", []int{i}))
	}
	ring.remove(2)
	moved := 0
	for i := range before {
		now := ring.owner(chunk.Hash("ring-failover", []int{i}))
		if before[i] != 2 {
			if now != before[i] {
				t.Fatalf("id %d moved between survivors %d→%d on kill", i, before[i], now)
			}
			continue
		}
		if now == 2 {
			t.Fatalf("id %d still owned by the removed replica", i)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("removed replica owned nothing — ring balance is broken")
	}
	ring.add(2)
	for i := range before {
		if now := ring.owner(chunk.Hash("ring-failover", []int{i})); now != before[i] {
			t.Fatalf("id %d owner %d after remove+add, want %d — ring not restored", i, now, before[i])
		}
	}
}

// TestSharedKillCapacityLoss: under the shared topology a kill takes
// only the worker — the store survives — so the run completes with pure
// capacity loss and the dead worker stops accumulating busy time.
func TestSharedKillCapacityLoss(t *testing.T) {
	cfg := routerTestConfig(RouterShared)
	cfg.Events = []MembershipEvent{{At: 15, Kill: 1}}
	res, err := RunWorkload(cfg, routerTestMix(2.0), 300, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", res.Failovers)
	}
	if res.ReplicaUtil[1] >= res.ReplicaUtil[0] {
		t.Errorf("dead worker utilization %.2f not below survivor's %.2f",
			res.ReplicaUtil[1], res.ReplicaUtil[0])
	}
}

// TestFailoverLegacyUnrouted: events on an unrouted (default "" router)
// config still work — kills are worker capacity loss, joins add workers
// — so elasticity is not tied to the router feature.
func TestFailoverLegacyUnrouted(t *testing.T) {
	cfg := routerTestConfig("")
	cfg.Events = []MembershipEvent{{At: 15, Kill: 0}, {At: 20, Join: 1}}
	res, err := RunWorkload(cfg, routerTestMix(2.0), 200, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", res.Failovers)
	}
	if len(res.ReplicaUtil) != 5 {
		t.Fatalf("%d replica slots after join, want 5", len(res.ReplicaUtil))
	}
}
