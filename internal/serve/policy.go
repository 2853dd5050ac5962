// The scheduling layer: the two decisions the replica loop makes at
// every step boundary — how many waiting requests may join the running
// batch (admission), and how much prefill work a step may spend (the
// per-step prefill token budget).
// The decode-phase telemetry from the decode refactor exposed the
// head-of-line blocking FIFO admission causes: any prefilling member
// paces every decoder in the batch for a whole chunk step, so one
// joining request inflates its neighbours' TBT by an order of
// magnitude. The policies here remove that blocking two different ways
// — Sarathi-style chunked prefill bounds the prefill slice a mixed step
// may run, decode-priority admission holds prefills at the door while
// the batch is decoding (with an aging bound so prefill delay stays
// finite at overload) — and the StallTime/PrefillDelay metrics in
// Result quantify what each removes. A run resolves its policy once,
// into a prefill budget and a decode-priority flag (cluster.resolve).
package serve

import "slices"

// Scheduling policy names accepted by Config.Sched.
const (
	// SchedFIFO admits waiting requests whenever the batch has room and
	// runs prefill in whole-chunk steps. It is the default: an empty
	// Config.Sched selects it too.
	SchedFIFO = "fifo"
	// SchedChunkedPrefill admits FIFO but caps the prefill tokens a
	// step may spend at 256 (prefillBudget), splitting a joining
	// request's prefill across steps so resident decoders keep emitting
	// tokens at near-decode cadence (Sarathi-style stall-free batching).
	SchedChunkedPrefill = "chunked-prefill"
	// SchedDecodePriority defers admitting new prefill work while any
	// batch member is decoding, admitting one aged request after 8
	// (starveLimit) consecutive deferred step boundaries so prefill delay
	// stays finite at overload.
	SchedDecodePriority = "decode-priority"
	// SchedSLO is deadline-aware admission against Config.SLOTTFT
	// (required) and SLOTBT: the replica pops the queue in SLO order —
	// aged requests first (waiting past 8×SLOTTFT, the starvation
	// bound), then still-feasible requests by at-risk-tenant priority
	// and earliest deadline, with already-late requests
	// deprioritised so they can't drag feasible ones past their targets
	// — and bounds per-step prefill like chunked-prefill (the budget
	// shared in the same SLO order) so resident decoders hold TBT.
	SchedSLO = "slo"
)

const (
	// prefillBudget caps the prefill tokens one step may spend across
	// the batch's prefilling members under SchedChunkedPrefill and
	// SchedSLO, splitting a joining request's prefill over multiple
	// steps so resident decoders keep near-decode cadence.
	prefillBudget = 256
	// starveLimit bounds SchedDecodePriority's deferral: after this many
	// consecutive step boundaries where admission was deferred while
	// work waited, the replica admits one request regardless, so prefill
	// delay stays finite at overload. Under SchedSLO it is the aging
	// bound instead: a request waiting longer than starveLimit×SLOTTFT
	// jumps to the front of the admission order, so deprioritised late
	// requests can't starve.
	starveLimit = 8
)

// admitQuota returns how many waiting requests a replica may admit at
// this step boundary, given its batch and the batch-cap headroom: every
// request that fits, except under decode-priority while a member
// decodes — none then, or one once admission has been deferred
// starveLimit consecutive boundaries (deferred) while work waited. An
// idle replica (empty batch) always admits its first request directly
// from its queue, bypassing the quota.
func (c *cluster) admitQuota(batch []*member, headroom, deferred int) int {
	if !c.decodePriority || headroom <= 0 {
		return headroom
	}
	for _, m := range batch {
		if m.decoding {
			if deferred >= starveLimit {
				return 1 // aged: admit one even over active decoders
			}
			return 0
		}
	}
	return headroom
}

// allocPrefill grants this step's prefill token slices from the shared
// budget c.budget: the first prefiller in the grant order drains first,
// the next takes what is left. The order is batch (admission) order, or
// under the slo policy the SLO admission key at the boundary time now,
// so the budget drains into the most deadline-urgent resident prefiller
// first and a request admitted early but still feasible cannot hold the
// whole budget while an aged or at-risk neighbour idles. It writes each
// prefilling member's slice field (0 = resident but idle this step) and
// returns how many members prefill this step, how many decode, and the
// longest granted slice's duration. A positive budget always grants the
// first prefiller at least one token, so a batch with prefill work can
// never stall; slices never exceed a member's remaining tokens, so
// tokens are never double-counted.
func (c *cluster) allocPrefill(batch []*member, now float64) (prefillers, decoders int, longest float64) {
	order := c.prefillOrder[:0]
	for _, m := range batch {
		if m.decoding {
			decoders++
			continue
		}
		m.slice = 0
		order = append(order, m)
	}
	if c.sloSched {
		slices.SortStableFunc(order, func(a, b *member) int {
			return c.sloCompare(a.req, b.req, now)
		})
	}
	left := c.budget
	for _, m := range order {
		if left <= 0 {
			break
		}
		grant := m.prefTotal - m.prefDone
		if grant > left {
			grant = left
		}
		m.slice = grant
		left -= grant
		prefillers++
		if t := float64(grant) * m.perTok; t > longest {
			longest = t
		}
	}
	c.prefillOrder = order // hand the (possibly grown) scratch back
	return prefillers, decoders, longest
}

// SLO admission order. The slo policy pops the queue — and shares the
// per-step prefill budget — by a three-class key:
//
//	class 0 (aged):     waiting longer than starveLimit×SLOTTFT. Front of
//	                    the line unconditionally, so the deprioritised
//	                    late class below can never starve — the wait of
//	                    any request is bounded by the aging threshold
//	                    plus one queue drain, mirroring decode-priority's
//	                    starveLimit bound.
//	class 1 (feasible): still inside its TTFT target. Ordered by at-risk
//	                    tenant first (the tenant with the worst running
//	                    attainment — the per-tenant fairness the ISSUE's
//	                    multi-tenant sweeps measure), then earliest
//	                    arrival, i.e. earliest deadline first (uniform
//	                    targets make EDF and FIFO coincide within a
//	                    tenant).
//	class 2 (late):     past its target but not yet aged. Serving these
//	                    before feasible work converts near-miss requests
//	                    into violations one by one; holding them back is
//	                    what buys attainment and goodput at overload.
//
// sloClass computes the class of a queued request at virtual time now.
func (c *cluster) sloClass(r request, now float64) int {
	wait := now - r.arrival
	if wait > starveLimit*c.sloTTFT {
		return 0
	}
	if wait <= c.sloTTFT {
		return 1
	}
	return 2
}

// sloCompare is the admission order at virtual time now: class, then
// tenant risk (higher first), then arrival, then index. It returns a
// negative number when a goes first, a positive one when b does, and 0
// only for equal indices — a strict total order over distinct requests,
// so min-pops and sorts are deterministic.
func (c *cluster) sloCompare(a, b request, now float64) int {
	if ca, cb := c.sloClass(a, now), c.sloClass(b, now); ca != cb {
		return before(ca < cb)
	}
	if ra, rb := c.tenantRisk(a.tenant), c.tenantRisk(b.tenant); ra != rb {
		return before(ra > rb)
	}
	if a.arrival != b.arrival {
		return before(a.arrival < b.arrival)
	}
	if a.idx != b.idx {
		return before(a.idx < b.idx)
	}
	return 0
}

// before turns a test of whether a goes first, on keys already known to
// differ, into a comparison result: -1 when it holds, +1 otherwise.
func before(aFirst bool) int {
	if aFirst {
		return -1
	}
	return 1
}

// tenantRisk is the tenant's running SLO miss rate over every completion
// so far (warmup included — the scheduler needs signal from the start; the
// reported attainment telemetry stays post-warmup only). Tenants with no
// completions yet carry zero risk.
func (c *cluster) tenantRisk(t int) float64 {
	if t >= len(c.riskDone) || c.riskDone[t] == 0 {
		return 0
	}
	return 1 - float64(c.riskMet[t])/float64(c.riskDone[t])
}

// bumpRisk records one completed request's SLO outcome into its tenant's
// running risk, growing the dense counters on first sight of a tenant.
func (c *cluster) bumpRisk(t int, met bool) {
	if t >= len(c.riskDone) {
		done := make([]int64, t+1)
		metc := make([]int64, t+1)
		copy(done, c.riskDone)
		copy(metc, c.riskMet)
		c.riskDone, c.riskMet = done, metc
	}
	c.riskDone[t]++
	if met {
		c.riskMet[t]++
	}
}
