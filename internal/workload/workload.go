// Package workload generates and replays the request streams the serving
// runtime consumes. The paper measures its gains on real RAG traffic,
// which is neither smooth nor single-tenant: arrivals are bursty, follow
// diurnal rate curves, and mix tenants whose chunk popularity is skewed
// differently and drifts over time. Each generator here yields the same
// deterministic (arrival time, tenant, chunk ids) stream for a given
// seed, and any generated stream can be exported as a JSONL trace and
// replayed bit-identically through serve.RunWorkload.
package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// Request is one serving request of a workload stream: when it arrives,
// which tenant issued it, which context chunks it retrieves, and how many
// output tokens it generates.
type Request struct {
	// Arrival is the request's arrival time in seconds of virtual time.
	Arrival float64 `json:"t"`
	// Tenant identifies the issuing tenant (0 in single-tenant streams).
	Tenant int `json:"tenant,omitempty"`
	// Chunks are the retrieved chunk ids, in prompt order.
	Chunks []int `json:"chunks"`
	// DecodeTokens is the request's generation length: how many decode
	// steps it runs after its first token. 0 is the legacy prefill-only
	// behaviour (the runtime retires the request at first token), and the
	// field is omitted from traces, so pre-decode traces and goldens stay
	// byte-identical.
	DecodeTokens int `json:"decode,omitempty"`
}

// Validate reports the first structural problem with the request.
func (r Request) Validate() error {
	if !finite(r.Arrival) || r.Arrival < 0 {
		return fmt.Errorf("arrival %v: must be finite and non-negative", r.Arrival)
	}
	if r.Tenant < 0 {
		return fmt.Errorf("tenant %d: negative", r.Tenant)
	}
	if len(r.Chunks) == 0 {
		return fmt.Errorf("no chunks retrieved")
	}
	for i, id := range r.Chunks {
		if id < 0 {
			return fmt.Errorf("chunk %d: negative id %d", i, id)
		}
	}
	if r.DecodeTokens < 0 {
		return fmt.Errorf("decode tokens %d: negative", r.DecodeTokens)
	}
	if r.DecodeTokens > MaxDecodeTokens {
		return fmt.Errorf("decode tokens %d: above the cap of %d", r.DecodeTokens, MaxDecodeTokens)
	}
	return nil
}

const (
	// MaxDecodeMean caps Decode.Mean. The runtime simulates every decode
	// step, so a mean far past any real generation length only buys a run
	// that never ends — and past 2⁶³ a draw overflows int.
	MaxDecodeMean = 1 << 20
	// MaxDecodeTokens caps a request's DecodeTokens, bounding a replayed
	// trace as MaxDecodeMean bounds a generated stream. Every draw from an
	// accepted Mean passes: u ≥ 2⁻⁶³, so a geometric draw is at most
	// 1 + 43.7·Mean, and the TenantMix and ClosedLoop fan-outs raise a
	// tenant's mean at most 1.5×, which leaves a draw below 6.9e7 < 2²⁷.
	MaxDecodeTokens = 1 << 27
)

// Workload yields a deterministic request stream for the serving runtime.
type Workload interface {
	// Name identifies the generator (or trace) in telemetry and errors.
	Name() string
	// Validate reports a descriptive error for degenerate parameters
	// before any request is generated.
	Validate() error
	// Generate returns up to n requests in nondecreasing arrival order,
	// bit-identically for the same seed.
	Generate(n int, seed int64) []Request
}

// Chunks describes how a stream samples each request's context chunks: a
// Zipf-skewed draw over Pool ids, optionally offset into a tenant-private
// id range, with the popularity ranking optionally drifting over time.
type Chunks struct {
	// Pool is the number of distinct chunks in the corpus slice.
	Pool int
	// PerRequest is how many chunks each request retrieves.
	PerRequest int
	// Skew is the popularity skew (sim.Zipf exponent; 0 = uniform).
	Skew float64
	// Offset shifts sampled ids, giving tenants disjoint corpora.
	Offset int
	// DriftPeriod rotates the popularity ranking by DriftStep ids every
	// DriftPeriod seconds of virtual time, so the hot set wanders the way
	// trending documents do — 0 disables drift.
	DriftPeriod float64
	// DriftStep is how many ids one drift period shifts the ranking
	// (default Pool/4 when drifting).
	DriftStep int
}

// Validate reports the first degenerate sampling parameter.
func (c Chunks) Validate() error {
	switch {
	case c.Pool <= 0:
		return fmt.Errorf("chunk pool %d: need at least one chunk", c.Pool)
	case c.PerRequest <= 0:
		return fmt.Errorf("chunks per request %d: need at least one", c.PerRequest)
	case !finite(c.Skew) || c.Skew < 0:
		return fmt.Errorf("chunk skew %v: must be finite and non-negative", c.Skew)
	case c.Offset < 0:
		return fmt.Errorf("chunk offset %d: negative", c.Offset)
	case !finite(c.DriftPeriod) || c.DriftPeriod < 0:
		return fmt.Errorf("drift period %v: must be finite and non-negative", c.DriftPeriod)
	case c.DriftStep < 0:
		return fmt.Errorf("drift step %d: negative", c.DriftStep)
	}
	return nil
}

// Sample fills ids, which holds PerRequest entries, with one request's
// chunk ids drawn at virtual time at. Without offset and drift the draw
// is exactly the runtime's original per-request Zipf sampling, consuming
// g identically.
func (c Chunks) Sample(g *tensor.RNG, at float64, ids []int) {
	shift := 0
	if c.DriftPeriod > 0 {
		step := c.DriftStep
		if step <= 0 {
			step = (c.Pool + 3) / 4
		}
		shift = int(at/c.DriftPeriod) * step
	}
	for j := range ids {
		r := sim.Zipf(g, c.Pool, c.Skew)
		if shift != 0 {
			r = (r + shift) % c.Pool
		}
		ids[j] = c.Offset + r
	}
}

// chunkList returns request i's k chunk ids in arena, a generator's one
// array for all its requests. The list is capped at its own length, so
// appending to it reallocates instead of overwriting request i+1.
func chunkList(arena []int, i, k int) []int { return arena[i*k : (i+1)*k : (i+1)*k] }

// Decode describes how a stream samples each request's generation length
// (the DecodeTokens carried on every Request). The zero value disables
// decode entirely: no request gets a decode budget and — critically — no
// randomness is consumed, so a generator with Decode{} yields the exact
// byte-identical stream it yielded before decode existed.
type Decode struct {
	// Mean is the mean generation length in output tokens; 0 disables
	// decode (the legacy prefill-only stream).
	Mean float64
	// Deterministic emits exactly round(Mean) tokens per request instead
	// of a geometric draw — useful for exact-latency tests and sweeps.
	Deterministic bool
}

// Validate reports the first degenerate decode parameter.
func (d Decode) Validate() error {
	if !finite(d.Mean) || d.Mean < 0 {
		return fmt.Errorf("decode mean %v: must be finite and non-negative", d.Mean)
	}
	if d.Mean > MaxDecodeMean {
		return fmt.Errorf("decode mean %v: above the cap of %d tokens", d.Mean, MaxDecodeMean)
	}
	return nil
}

// Sample draws one request's generation length. Geometric on {1, 2, …}
// with mean Mean (the empirical shape of output lengths: many short
// answers, a long tail), consuming exactly one uniform draw. On both
// branches a positive mean below one token clamps to a constant one
// token. Mean 0 returns 0 without touching g, preserving pre-decode
// streams bit for bit.
func (d Decode) Sample(g *tensor.RNG) int {
	if d.Mean <= 0 {
		return 0
	}
	if d.Deterministic {
		if d.Mean < 1 {
			return 1
		}
		return int(d.Mean + 0.5)
	}
	u := g.Float64()
	if u <= 0 {
		u = 1e-12
	}
	if d.Mean <= 1 {
		return 1
	}
	// 1 + Geometric(p) on {0,1,…} with p = 1/Mean has mean exactly Mean.
	return 1 + int(math.Log(u)/math.Log(1-1/d.Mean))
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// expo draws an exponential sample with the given mean.
func expo(g *tensor.RNG, mean float64) float64 {
	u := g.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return -math.Log(u) * mean
}
