package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// Poisson is the memoryless single-tenant generator the runtime was born
// with: exponential inter-arrival gaps at Rate, i.i.d. Zipf chunk draws.
// It consumes the seed exactly the way the pre-workload runtime did (all
// arrivals first, then chunk ids in arrival order), so serve.Run keeps
// its historical bit-identical results.
type Poisson struct {
	// Rate is the arrival rate in requests/second.
	Rate   float64
	Chunks Chunks
	// Decode samples each request's generation length (zero value =
	// prefill-only, consuming the seed exactly as before decode existed).
	Decode Decode
}

// Name implements Workload.
func (p Poisson) Name() string { return "poisson" }

// Validate implements Workload.
func (p Poisson) Validate() error {
	if !finite(p.Rate) || p.Rate <= 0 {
		return fmt.Errorf("poisson: rate %v: must be finite and positive", p.Rate)
	}
	if err := p.Chunks.Validate(); err != nil {
		return fmt.Errorf("poisson: %w", err)
	}
	if err := p.Decode.Validate(); err != nil {
		return fmt.Errorf("poisson: %w", err)
	}
	return nil
}

// Generate implements Workload.
func (p Poisson) Generate(n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	g := tensor.NewRNG(seed)
	arrivals := sim.PoissonArrivals(g, p.Rate, n)
	reqs := make([]Request, n)
	k := p.Chunks.PerRequest
	arena := make([]int, n*k)
	z := p.Chunks.Sampler(n)
	for i := range reqs {
		ids := chunkList(arena, i, k)
		p.Chunks.Sample(g, z, arrivals[i], ids)
		reqs[i] = Request{Arrival: arrivals[i], Chunks: ids, DecodeTokens: p.Decode.Sample(g)}
	}
	return reqs
}

// Bursty is a two-state MMPP-style on/off generator: ON windows emit
// Poisson arrivals at Burst× the mean rate, OFF windows are silent, and
// exponentially distributed window lengths keep the long-run mean rate at
// exactly Rate. Burst=1 degenerates to a plain Poisson process. Equal
// mean rate with rising Burst is the experiment queueing theory cares
// about: waiting time is convex in the arrival process, so bursts inflate
// tail TTFT even when the average load is unchanged.
type Bursty struct {
	// Rate is the long-run mean arrival rate in requests/second.
	Rate float64
	// Burst is the peak-to-mean rate factor (≥ 1).
	Burst float64
	// Cycle is the mean ON+OFF cycle length in seconds (default 32/Rate,
	// i.e. a mean of 32 requests per cycle).
	Cycle  float64
	Chunks Chunks
	// Decode samples each request's generation length (zero = prefill-only).
	Decode Decode
}

// Name implements Workload.
func (b Bursty) Name() string { return fmt.Sprintf("bursty×%g", b.Burst) }

// Validate implements Workload.
func (b Bursty) Validate() error {
	switch {
	case !finite(b.Rate) || b.Rate <= 0:
		return fmt.Errorf("bursty: rate %v: must be finite and positive", b.Rate)
	case !finite(b.Burst) || b.Burst < 1:
		return fmt.Errorf("bursty: burst factor %v: must be finite and ≥ 1", b.Burst)
	case !finite(b.Cycle) || b.Cycle < 0:
		return fmt.Errorf("bursty: cycle %v: must be finite and non-negative", b.Cycle)
	}
	if err := b.Chunks.Validate(); err != nil {
		return fmt.Errorf("bursty: %w", err)
	}
	if err := b.Decode.Validate(); err != nil {
		return fmt.Errorf("bursty: %w", err)
	}
	return nil
}

// Generate implements Workload. Overshooting gaps at a window's end are
// discarded and redrawn at the next window — exact for a Poisson process
// by memorylessness.
func (b Bursty) Generate(n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	g := tensor.NewRNG(seed)
	cycle := b.Cycle
	if cycle <= 0 {
		cycle = 32 / b.Rate
	}
	meanOn := cycle / b.Burst
	meanOff := cycle - meanOn
	onRate := b.Rate * b.Burst
	reqs := make([]Request, 0, n)
	k := b.Chunks.PerRequest
	arena := make([]int, n*k)
	z := b.Chunks.Sampler(n)
	t := 0.0
	for len(reqs) < n {
		end := t + expo(g, meanOn)
		for {
			t += expo(g, 1/onRate)
			if t > end || len(reqs) == n {
				break
			}
			ids := chunkList(arena, len(reqs), k)
			b.Chunks.Sample(g, z, t, ids)
			reqs = append(reqs, Request{Arrival: t, Chunks: ids, DecodeTokens: b.Decode.Sample(g)})
		}
		t = end
		if meanOff > 0 {
			t += expo(g, meanOff)
		}
	}
	return reqs
}

// Diurnal modulates arrivals with a sinusoidal rate curve,
// rate(t) = Rate·(1 + Amplitude·sin(2πt/Period)) — the day/night swing of
// user-facing traffic — via Lewis-Shedler thinning of a Poisson process
// at the peak rate, which samples the inhomogeneous process exactly.
type Diurnal struct {
	// Rate is the mean arrival rate in requests/second.
	Rate float64
	// Amplitude is the relative swing around the mean, in [0, 1].
	Amplitude float64
	// Period is the seconds per simulated "day" (default 64/Rate).
	Period float64
	Chunks Chunks
	// Decode samples each request's generation length (zero = prefill-only).
	Decode Decode
}

// Name implements Workload.
func (d Diurnal) Name() string { return fmt.Sprintf("diurnal×%g", d.Amplitude) }

// Validate implements Workload.
func (d Diurnal) Validate() error {
	switch {
	case !finite(d.Rate) || d.Rate <= 0:
		return fmt.Errorf("diurnal: rate %v: must be finite and positive", d.Rate)
	case !(d.Amplitude >= 0 && d.Amplitude <= 1):
		return fmt.Errorf("diurnal: amplitude %v: must be in [0, 1]", d.Amplitude)
	case !finite(d.Period) || d.Period < 0:
		return fmt.Errorf("diurnal: period %v: must be finite and non-negative", d.Period)
	}
	if err := d.Chunks.Validate(); err != nil {
		return fmt.Errorf("diurnal: %w", err)
	}
	if err := d.Decode.Validate(); err != nil {
		return fmt.Errorf("diurnal: %w", err)
	}
	return nil
}

// Generate implements Workload.
func (d Diurnal) Generate(n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	g := tensor.NewRNG(seed)
	period := d.Period
	if period <= 0 {
		period = 64 / d.Rate
	}
	peak := d.Rate * (1 + d.Amplitude)
	reqs := make([]Request, 0, n)
	k := d.Chunks.PerRequest
	arena := make([]int, n*k)
	z := d.Chunks.Sampler(n)
	t := 0.0
	for len(reqs) < n {
		t += expo(g, 1/peak)
		rate := d.Rate * (1 + d.Amplitude*math.Sin(2*math.Pi*t/period))
		if g.Float64()*peak <= rate {
			ids := chunkList(arena, len(reqs), k)
			d.Chunks.Sample(g, z, t, ids)
			reqs = append(reqs, Request{Arrival: t, Chunks: ids, DecodeTokens: d.Decode.Sample(g)})
		}
	}
	return reqs
}

// MultiTenant interleaves per-tenant streams into one arrival-ordered
// stream: each tenant generates n requests from a tenant-derived seed,
// the merged stream keeps the earliest n overall, and requests are
// stamped with their tenant's index. Generating n per tenant (rather
// than n/k) keeps every tenant active across the whole simulated span
// even when their rates differ.
type MultiTenant struct {
	// Tenants holds one request stream per tenant; Tenants[i]'s requests
	// are stamped Tenant=i.
	Tenants []Workload
}

// Name implements Workload.
func (m MultiTenant) Name() string { return fmt.Sprintf("multi-tenant(%d)", len(m.Tenants)) }

// Validate implements Workload.
func (m MultiTenant) Validate() error {
	if len(m.Tenants) == 0 {
		return errors.New("multi-tenant: no tenants")
	}
	for i, w := range m.Tenants {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("multi-tenant: tenant %d: %w", i, err)
		}
	}
	return nil
}

// Generate implements Workload. Every sub-stream is in nondecreasing
// arrival order (the Workload contract), so a k-way merge interleaves
// them: the earliest head goes next, and an
// arrival tie goes to the lower tenant index, then to stream order. That
// is the stable sort of all streams on arrival, keeping the stream
// deterministic.
func (m MultiTenant) Generate(n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	streams := make([][]Request, len(m.Tenants))
	total := 0
	for i, w := range m.Tenants {
		streams[i] = w.Generate(n, seed+int64(i)*1_000_003)
		total += len(streams[i])
	}
	out := make([]Request, min(n, total))
	next := make([]int, len(streams)) // each stream's head
	for o := range out {
		t, at := -1, 0.0
		for i, s := range streams {
			if h := next[i]; h < len(s) && (t < 0 || s[h].Arrival < at) {
				t, at = i, s[h].Arrival
			}
		}
		// Stamp tenants on copies: a sub-workload may hand out a slice it
		// still owns (Trace.Generate returns its recorded stream).
		out[o] = streams[t][next[t]]
		out[o].Tenant = t
		next[t]++
	}
	return out
}

// TenantMix builds a k-tenant Poisson mix over one shared total rate and
// corpus: each tenant gets an equal rate share and a disjoint 1/k slice
// of the pool, per-tenant skew fans out linearly across [0.5, 1.5]× the
// base skew, from tenant 0 to tenant k−1, and odd tenants' popularity
// rankings drift a quarter of their slice every driftPeriod seconds
// (0 = no drift). Head weight follows sim.Zipf's exponent, which is not
// monotone in the skew, so the fan-out need not order the tenants by it:
// at base skew 0.8 over three tenants, the skews 0.4, 0.8 and 1.2 give
// the exponents 1.67, 5 and 2.2, and tenant 1 is the most head-heavy.
// Per-tenant mean generation lengths fan out the same way across
// [0.5, 1.5]× dec.Mean — tenant 0 gives terse answers, tenant k−1 long
// ones — clamped to at least one token; Decode{} keeps the whole mix
// prefill-only and seed-compatible with the pre-decode streams. It is
// the mix the serving CLI's -tenants flag and the golden multi-tenant
// traces use.
func TenantMix(k int, rate float64, ch Chunks, driftPeriod float64, dec Decode) MultiTenant {
	if k < 1 {
		k = 1
	}
	slice := ch.Pool / k
	tenants := make([]Workload, k)
	for i := 0; i < k; i++ {
		tc := ch
		tc.Pool = slice
		tc.Offset = ch.Offset + i*slice
		td := dec
		if k > 1 {
			fan := 0.5 + float64(i)/float64(k-1)
			tc.Skew = ch.Skew * fan
			if dec.Mean > 0 {
				td.Mean = dec.Mean * fan
				if td.Mean < 1 {
					td.Mean = 1
				}
			}
		}
		if i%2 == 1 {
			tc.DriftPeriod = driftPeriod
		}
		tenants[i] = Poisson{Rate: rate / float64(k), Chunks: tc, Decode: td}
	}
	return MultiTenant{Tenants: tenants}
}
