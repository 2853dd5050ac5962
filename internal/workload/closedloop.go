// Closed-loop clients: the generators elsewhere in this package are
// open-loop — arrivals are a fixed function of the seed, so offered load
// never reacts to how the system is doing, and behaviour at saturation is
// an artifact of unbounded queue growth. Real serving clients are
// closed-loop: a finite pool of users each issue a request, wait for the
// answer, think, and only then ask again, so overload self-throttles at
// clients/(service+think). The ClosedLoop workload models that pool; its
// arrivals depend on request completions, which only the serving runtime
// knows, so it extends the Workload contract with a per-run Session the
// runtime feeds completion times back into.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Issue is one closed-loop issuance: the request plus the client slot
// that issued it. The runtime reports the request's completion back to
// the session under the same client index to get that client's next
// request.
type Issue struct {
	// Client is the pool-wide client index in [0, Clients()).
	Client int
	// Req is the issued request.
	Req Request
}

// Session is the stateful arrival side of one closed-loop run: it hands
// out each client's first request up front and every later request in
// response to a completion. A session is consumed by exactly one run and
// is not safe for concurrent use (the deterministic simulator drives it
// from a single virtual-time thread).
type Session interface {
	// Clients returns the pool-wide client count.
	Clients() int
	// Initial returns every client's first request in nondecreasing
	// arrival order, truncated to the session's request budget.
	Initial() []Issue
	// Complete records that the given client's outstanding request
	// finished at virtual time `at` and returns the client's next issue,
	// whose arrival is `at` plus a think-time draw, and always strictly
	// after `at`. ok is false once the session has issued its full
	// request budget — the client retires.
	Complete(client int, at float64) (Issue, bool)
}

// ClosedLoopWorkload is the optional closed-loop extension of Workload.
// serve.RunWorkload detects it and drives arrivals from request
// completions instead of pre-materialising the stream with Generate;
// plain open-loop workloads (and every existing golden) are untouched.
type ClosedLoopWorkload interface {
	Workload
	// Session opens the stateful arrival session for one run, budgeted to
	// at most n requests in total across all clients.
	Session(n int, seed int64) Session
}

// ClosedLoop is a closed-loop client pool: Tenants tenant pools of
// Clients concurrent clients each. Every client issues one request,
// waits for its completion, thinks for an exponentially distributed
// Think seconds, then issues its next — so each client has at most one
// request outstanding and a tenant never exceeds Clients in-flight
// requests. Tenants slice the chunk pool the way TenantMix does:
// disjoint corpus slices with per-tenant skew fanned across [0.5, 1.5]×
// the base skew, and per-tenant decode means fanned the same way.
type ClosedLoop struct {
	// Tenants is the number of tenant pools (0 = 1, single-tenant).
	Tenants int
	// Clients is the per-tenant concurrency limit: how many clients of
	// each tenant can have a request outstanding at once.
	Clients int
	// Think is the mean think time in seconds between a client's request
	// completing and its next request being issued. Must be positive: the
	// think gap is what makes a closed loop stable (and keeps per-client
	// arrivals strictly after completions). At most MaxThink.
	Think float64
	// Chunks describes the shared corpus the tenant slices divide.
	Chunks Chunks
	// Decode samples generation lengths (zero value = prefill-only).
	Decode Decode
}

// MaxThink caps ClosedLoop.Think, in seconds. A think draw is at most
// 43.7·Think (u ≥ 2⁻⁶³), so every arrival — a completion time plus a
// draw — stays finite; an unbounded mean lets the sum overflow to +Inf.
const MaxThink = 1e9

// tenants returns the effective tenant count.
func (c ClosedLoop) tenants() int {
	if c.Tenants <= 0 {
		return 1
	}
	return c.Tenants
}

// Name implements Workload.
func (c ClosedLoop) Name() string {
	return fmt.Sprintf("closed-loop(%d×%d)", c.tenants(), c.Clients)
}

// Validate implements Workload.
func (c ClosedLoop) Validate() error {
	switch {
	case c.Tenants < 0:
		return fmt.Errorf("closed-loop: tenants %d: negative", c.Tenants)
	case c.Clients <= 0:
		return fmt.Errorf("closed-loop: clients %d: need at least one per tenant", c.Clients)
	case !finite(c.Think) || c.Think <= 0:
		return fmt.Errorf("closed-loop: think time %v: must be positive and finite", c.Think)
	case c.Think > MaxThink:
		return fmt.Errorf("closed-loop: think time %v: above the cap of %g s", c.Think, float64(MaxThink))
	}
	if err := c.Chunks.Validate(); err != nil {
		return fmt.Errorf("closed-loop: %w", err)
	}
	if c.Chunks.Pool < c.tenants() {
		return fmt.Errorf("closed-loop: chunk pool %d below %d tenants: every tenant needs a corpus slice",
			c.Chunks.Pool, c.tenants())
	}
	if err := c.Decode.Validate(); err != nil {
		return fmt.Errorf("closed-loop: %w", err)
	}
	return nil
}

// Generate implements Workload. Without completion feedback only the
// initial wave exists — each client's first request — so Generate returns
// exactly that, up to n requests. It makes the pool inspectable (and
// recordable) but is NOT the closed-loop stream: run the workload through
// serve.RunWorkload to get feedback-driven arrivals.
func (c ClosedLoop) Generate(n int, seed int64) []Request {
	issues := c.Session(n, seed).Initial()
	reqs := make([]Request, len(issues))
	for i, iss := range issues {
		reqs[i] = iss.Req
	}
	return reqs
}

// Session implements ClosedLoopWorkload.
func (c ClosedLoop) Session(n int, seed int64) Session {
	k := c.tenants()
	slice := c.Chunks.Pool / k
	s := &clientPool{budget: n}
	s.clients = make([]client, k*c.Clients)
	for i := range s.clients {
		tenant := i / c.Clients
		ch := c.Chunks
		ch.Pool = slice
		ch.Offset = c.Chunks.Offset + tenant*slice
		dec := c.Decode
		if k > 1 {
			// The TenantMix fan-out: tenant 0 most uniform and terse,
			// tenant k−1 most head-heavy and long-winded.
			fan := 0.5 + float64(tenant)/float64(k-1)
			ch.Skew = c.Chunks.Skew * fan
			if dec.Mean > 0 {
				dec.Mean = c.Decode.Mean * fan
				if dec.Mean < 1 {
					dec.Mean = 1
				}
			}
		}
		s.clients[i] = client{
			// A private stream per client keeps think times and chunk
			// draws independent of every other client's progress (the
			// MultiTenant per-tenant seed idiom, at client granularity).
			g:      tensor.NewRNG(seed + int64(i)*7_368_787),
			tenant: tenant,
			chunks: ch,
			decode: dec,
			think:  c.Think,
		}
	}
	return s
}

// client is one closed-loop client's sampling state.
type client struct {
	g      *tensor.RNG
	tenant int
	chunks Chunks
	decode Decode
	think  float64
}

// clientPool is the Session a ClosedLoop opens: the per-client RNG
// streams plus the remaining request budget.
type clientPool struct {
	clients []client
	budget  int // requests left to issue
}

// Clients implements Session.
func (s *clientPool) Clients() int { return len(s.clients) }

// issue draws client ci's next request, arriving a think-time draw after
// `after`. ok is false once the budget is spent.
func (s *clientPool) issue(ci int, after float64) (Issue, bool) {
	if s.budget <= 0 {
		return Issue{}, false
	}
	s.budget--
	c := &s.clients[ci]
	t := after + expo(c.g, c.think)
	if t <= after {
		// The draw is below half an ulp of `after` (a tiny Think, or a
		// late completion) and rounded away: the arrival takes the next
		// float instead, so it still follows the completion.
		t = math.Nextafter(after, math.Inf(1))
	}
	ids := make([]int, c.chunks.PerRequest)
	c.chunks.Sample(c.g, t, ids)
	return Issue{Client: ci, Req: Request{
		Arrival:      t,
		Tenant:       c.tenant,
		Chunks:       ids,
		DecodeTokens: c.decode.Sample(c.g),
	}}, true
}

// Initial implements Session: every client's first request (each starts
// mid-think, so the pool ramps in rather than stampeding at t=0), sorted
// by arrival with client index breaking ties deterministically.
func (s *clientPool) Initial() []Issue {
	out := make([]Issue, 0, len(s.clients))
	for ci := range s.clients {
		iss, ok := s.issue(ci, 0)
		if !ok {
			break // budget below the pool size: the rest never start
		}
		out = append(out, iss)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Req.Arrival != out[b].Req.Arrival {
			return out[a].Req.Arrival < out[b].Req.Arrival
		}
		return out[a].Client < out[b].Client
	})
	return out
}

// Complete implements Session.
func (s *clientPool) Complete(ci int, at float64) (Issue, bool) {
	if ci < 0 || ci >= len(s.clients) {
		panic(fmt.Sprintf("workload: closed-loop completion for unknown client %d of %d", ci, len(s.clients)))
	}
	return s.issue(ci, at)
}
