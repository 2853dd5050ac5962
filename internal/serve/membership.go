// The membership-event layer: replica failure and scale-out for the
// routed cluster. Production node sets churn — a node dies mid-run, a
// fresh one joins under load — and the router item's two open follow-ups
// (ROADMAP) are exactly those transients: on a kill, the dead node's
// queued work must re-route to survivors and their caches must absorb
// the orphaned traffic (the re-warm transient); on a join, the new node
// starts cold and the router must migrate tenants onto it without
// thrashing the donors' tiers. Events are applied by the same clock
// process that dispatches arrivals, so a run with events is still a pure
// function of (config, stream) — membership churn is part of the input,
// not a source of nondeterminism.
package serve

import (
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/sim"
)

// recoveryWindow is the TTFT-averaging window RecoveryTime is measured
// over: post-event first-token samples are bucketed into 1-second spans
// and the cluster counts as recovered at the end of the first span whose
// mean TTFT is back within recoveryBand of the pre-event mean.
const (
	recoveryWindow = 1.0
	recoveryBand   = 1.2
)

// MembershipEvent is one scheduled change to the replica set. Exactly
// one of Kill/Join is meaningful per event: Join > 0 adds that many
// fresh replicas (Kill must be 0), Join == 0 kills replica index Kill.
// Events fire in order at their virtual times; an event tying an
// arrival's timestamp applies before the arrival routes.
type MembershipEvent struct {
	// At is the virtual time (seconds) the event fires. Must be positive
	// and non-decreasing across the event list.
	At float64
	// Kill names the replica (node) index to fail. The index must be
	// live when the event fires, and the last live replica cannot be
	// killed. Under the routed policies the node goes dark: its queued
	// requests re-route to survivors, its vnodes leave the hash ring,
	// its loader stops and its in-flight transfers are drained. Under
	// the shared topology only the worker dies — the store is the
	// cluster's, so a kill is pure capacity loss.
	Kill int
	// Join is how many fresh replicas join (0 = this is a kill event).
	// A joined node starts cold: empty tiers, an empty popularity view,
	// and — under hash routing — exactly the vnodes newHashRing would
	// have given its index, so ownership moves only onto the newcomer.
	Join int
}

// hasEvents reports whether a membership-event schedule is configured.
func (c Config) hasEvents() bool { return len(c.Events) > 0 }

// validateEvents is the Config.Validate slice for the membership
// schedule: it replays the event list against a static model of the
// replica set so impossible schedules (killing a dead or unknown node,
// killing the last survivor) fail before the simulation starts.
func (c Config) validateEvents() error {
	if !c.hasEvents() {
		return nil
	}
	n := c.replicas()
	dead := make([]bool, n)
	alive := n
	prev := 0.0
	for i, ev := range c.Events {
		if ev.At <= 0 {
			return fmt.Errorf("membership event %d: time %v: must be positive", i, ev.At)
		}
		if ev.At < prev {
			return fmt.Errorf("membership event %d at t=%v: events must be time-ordered (previous at t=%v)", i, ev.At, prev)
		}
		prev = ev.At
		switch {
		case ev.Join < 0:
			return fmt.Errorf("membership event %d: join %d: negative", i, ev.Join)
		case ev.Join > 0:
			if ev.Kill != 0 {
				return fmt.Errorf("membership event %d: one of kill/join per event (got kill=%d join=%d)", i, ev.Kill, ev.Join)
			}
			n += ev.Join
			alive += ev.Join
			dead = append(dead, make([]bool, ev.Join)...)
		default:
			if ev.Kill < 0 || ev.Kill >= n {
				return fmt.Errorf("membership event %d: kill %d: no such replica (cluster has %d)", i, ev.Kill, n)
			}
			if dead[ev.Kill] {
				return fmt.Errorf("membership event %d: kill %d: replica already dead", i, ev.Kill)
			}
			dead[ev.Kill] = true
			if alive--; alive == 0 {
				return fmt.Errorf("membership event %d: kill %d would kill the last live replica", i, ev.Kill)
			}
		}
	}
	return nil
}

// applyEvent fires one membership event at the control process's current
// virtual time.
func (c *cluster) applyEvent(ev MembershipEvent, now float64) {
	if ev.Join > 0 {
		for i := 0; i < ev.Join; i++ {
			c.join()
		}
		return
	}
	c.kill(ev.Kill, now)
}

// kill fails replica k. Routed topologies lose the whole node: queued
// requests drain back through route (keeping their original arrivals, so
// the failover cost shows up as queueing delay, not dropped samples),
// the node's vnodes leave the hash ring, its admission and prefetch
// queues close (the worker and loader exit once their current work
// retires) and its in-flight transfers drain. The shared topology loses
// only the worker — the store belongs to the cluster.
func (c *cluster) kill(k int, now float64) {
	c.failovers++
	if c.firstKill < 0 {
		c.firstKill = now
	}
	c.dead[k] = true
	if c.ring != nil {
		c.ring.remove(k)
	}
	if !c.isRouted {
		return
	}
	q := c.queues[k]
	for {
		req, ok := q.TryPop()
		if !ok {
			break
		}
		c.inflight[k]--
		c.reroute(req, now)
	}
	q.Close()
	if c.pfQueues != nil {
		pq := c.pfQueues[k]
		for {
			if _, ok := pq.TryPop(); !ok {
				break
			}
		}
		c.predPend[k] = 0
		pq.Close()
		c.stores[k].Drain()
	}
}

// reroute sends one request orphaned by a kill back through the router.
// The surviving target also gets a prefetch job for it — the re-warm
// work the ReWarmStall telemetry measures.
func (c *cluster) reroute(req request, now float64) {
	c.reroutedN++
	c.rerouted[req.idx] = true
	t := c.route(req, now)
	c.inflight[t]++
	c.queues[t].Push(req)
	if c.pfQueues != nil {
		c.pfQueues[t].Push(prefetchJob{req: req.idx, ids: req.ids})
	}
}

// join adds one fresh replica at the current virtual time. Under the
// routed policies the newcomer is a full cold node — empty tier stack,
// empty popularity view, its own queue and loader, and its ring vnodes;
// under the shared topology it is one more worker on the shared queue.
// Starting tasks from the running control process is legal: the new
// worker and loader wake at the current instant.
func (c *cluster) join() {
	r := len(c.busy)
	c.busy = append(c.busy, 0)
	c.dead = append(c.dead, false)
	if c.replicaReqs != nil {
		c.replicaReqs = append(c.replicaReqs, 0)
	}
	if c.isRouted {
		c.queues = append(c.queues, sim.NewQueue[request](c.clock))
		c.stores = append(c.stores, kvstore.MustTiered(c.buildTiers(), kvstore.LRU))
		c.inflight = append(c.inflight, 0)
		// Pre-join arrivals never saw this queue, so its depth sum starts
		// at zero — QueueSkew averages over the full measured window, the
		// cold start included.
		c.depthSums = append(c.depthSums, 0)
		if c.pops != nil {
			c.pops = append(c.pops, kvstore.NewPopularity(popHalflife, popMaxEntries))
		}
		if c.pfQueues != nil {
			c.pfQueues = append(c.pfQueues, sim.NewQueue[prefetchJob](c.clock))
			c.predPend = append(c.predPend, 0)
		}
		if c.ring != nil {
			c.ring.add(r)
		}
	}
	c.startReplica(r)
}

// recoveryTime measures the TTFT transient after the first kill: the
// time from the event until the first recoveryWindow-wide span of
// first-token samples whose mean TTFT is back within recoveryBand of
// the pre-event mean. A run that never gets back within the band (or
// has no pre-event baseline) reports the full remaining horizon —
// recovery never observed.
func (c *cluster) recoveryTime(end float64) float64 {
	if c.firstKill < 0 {
		return 0
	}
	var preSum float64
	preN := 0
	for i, at := range c.ttftAt {
		if at < c.firstKill {
			preSum += c.ttfts[i]
			preN++
		}
	}
	if preN == 0 {
		return end - c.firstKill
	}
	preMean := preSum / float64(preN)
	nw := int((end-c.firstKill)/recoveryWindow) + 1
	sums := make([]float64, nw)
	counts := make([]int, nw)
	for i, at := range c.ttftAt {
		if at < c.firstKill {
			continue
		}
		w := int((at - c.firstKill) / recoveryWindow)
		sums[w] += c.ttfts[i]
		counts[w]++
	}
	for w := range sums {
		if counts[w] == 0 {
			continue
		}
		if sums[w]/float64(counts[w]) <= recoveryBand*preMean {
			return float64(w+1) * recoveryWindow
		}
	}
	return end - c.firstKill
}
