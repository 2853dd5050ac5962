package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// source yields a generator's stream in pieces as short as one request,
// making for each request exactly the draws the whole stream's Generate
// makes.
type source interface {
	// fill sets out to the stream's next len(out) requests and returns
	// how many it set: fewer once the stream is spent.
	fill(out []Request) int
}

// streamer is a workload whose stream opens as a source: Poisson,
// Bursty, Diurnal and MultiTenant.
type streamer interface {
	// open starts the stream Generate(n, seed) returns, handing out its
	// chunk lists from a.
	open(n int, seed int64, a *arena) source
}

// drain is every streamer's Generate: the first n requests of its
// stream.
func drain(s streamer, n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	out := make([]Request, n)
	return out[:s.open(n, seed, &arena{left: n}).fill(out)]
}

// openSource opens w's n-request stream from seed: lazily when w is a
// streamer, else (a Trace, a closed loop, a caller's Workload) through
// its Generate.
func openSource(w Workload, n int, seed int64, a *arena) source {
	if s, ok := w.(streamer); ok {
		return s.open(n, seed, a)
	}
	return &sliceSource{w.Generate(n, seed)}
}

// sliceSource yields a materialised stream.
type sliceSource struct{ reqs []Request }

func (s *sliceSource) fill(out []Request) int {
	k := copy(out, s.reqs)
	s.reqs = s.reqs[k:]
	return k
}

// draws is a generator's per-request sampling: its RNG, its chunk
// sampler sized for an n-request stream, its decode lengths, and the
// arena its chunk lists come from.
type draws struct {
	g   *tensor.RNG
	z   *sim.ZipfSampler
	ch  Chunks
	dec Decode
	a   *arena
}

func newDraws(ch Chunks, dec Decode, n int, seed int64, a *arena) draws {
	return draws{g: tensor.NewRNG(seed), z: ch.Sampler(n), ch: ch, dec: dec, a: a}
}

// draw sets r to the request arriving at virtual time at, drawing its
// chunks into ids and its decode length.
func (d *draws) draw(r *Request, at float64, ids []int) {
	d.ch.Sample(d.g, d.z, at, ids)
	*r = Request{Arrival: at, Chunks: ids, DecodeTokens: d.dec.Sample(d.g)}
}

// Poisson is the memoryless single-tenant generator the runtime was born
// with: exponential inter-arrival gaps at Rate, i.i.d. Zipf chunk draws.
// It consumes the seed exactly the way the pre-workload runtime did (all
// arrivals first, then chunk ids in arrival order), so the serve goldens
// that predate the workload subsystem keep their streams bit for bit.
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
func (p Poisson) Generate(n int, seed int64) []Request { return drain(p, n, seed) }

// open draws all n arrivals first, the seed-compatibility contract above,
// and each request's chunks and decode length as the request is pulled.
func (p Poisson) open(n int, seed int64, a *arena) source {
	s := &poissonSource{draws: newDraws(p.Chunks, p.Decode, n, seed, a)}
	s.arrivals = sim.PoissonArrivals(s.g, p.Rate, n)
	return s
}

type poissonSource struct {
	draws
	arrivals []float64
	pulled   int
}

func (s *poissonSource) fill(out []Request) int {
	at := s.arrivals[s.pulled:]
	out = out[:min(len(out), len(at))]
	k := s.ch.PerRequest
	ids := s.a.lists(len(out), k)
	for i := range out {
		s.draw(&out[i], at[i], chunkList(ids, i, k))
	}
	s.pulled += len(out)
	return len(out)
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

// Generate implements Workload.
func (b Bursty) Generate(n int, seed int64) []Request { return drain(b, n, seed) }

func (b Bursty) open(n int, seed int64, a *arena) source {
	cycle := b.Cycle
	if cycle <= 0 {
		cycle = 32 / b.Rate
	}
	meanOn := cycle / b.Burst
	return &burstySource{draws: newDraws(b.Chunks, b.Decode, n, seed, a),
		meanOn: meanOn, meanOff: cycle - meanOn, gap: 1 / (b.Rate * b.Burst)}
}

// burstySource keeps its clock, the open ON window's end and whether a
// window is open across pulls.
type burstySource struct {
	draws
	meanOn, meanOff, gap float64 // gap: the mean gap inside an ON window
	t, end               float64
	on                   bool
}

// fill draws gaps until one lands inside an ON window, for each request.
// A gap that overshoots the window's end is discarded and redrawn in the
// next window, after the OFF window — exact for a Poisson process by
// memorylessness.
func (s *burstySource) fill(out []Request) int {
	k := s.ch.PerRequest
	ids := s.a.lists(len(out), k)
	for i := 0; i < len(out); {
		if !s.on {
			s.end, s.on = s.t+expo(s.g, s.meanOn), true
		}
		s.t += expo(s.g, s.gap)
		if !(s.t > s.end) {
			s.draw(&out[i], s.t, chunkList(ids, i, k))
			i++
			continue
		}
		s.t, s.on = s.end, false
		if s.meanOff > 0 {
			s.t += expo(s.g, s.meanOff)
		}
	}
	return len(out)
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
	case math.IsInf(d.Rate*(1+d.Amplitude), 1):
		// Thinning draws at the peak rate; an infinite one never advances
		// the clock and rejects every draw.
		return fmt.Errorf("diurnal: rate %v at amplitude %v: the peak rate overflows", d.Rate, d.Amplitude)
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
func (d Diurnal) Generate(n int, seed int64) []Request { return drain(d, n, seed) }

func (d Diurnal) open(n int, seed int64, a *arena) source {
	period := d.Period
	if period <= 0 {
		period = 64 / d.Rate
	}
	return &diurnalSource{draws: newDraws(d.Chunks, d.Decode, n, seed, a),
		rate: d.Rate, amplitude: d.Amplitude, period: period, peak: d.Rate * (1 + d.Amplitude)}
}

// diurnalSource keeps its thinning clock t across pulls.
type diurnalSource struct {
	draws
	rate, amplitude, period, peak float64
	t                             float64
}

func (s *diurnalSource) fill(out []Request) int {
	k := s.ch.PerRequest
	ids := s.a.lists(len(out), k)
	for i := 0; i < len(out); {
		s.t += expo(s.g, 1/s.peak)
		// Once the phase overflows (the clock has, or a period lies far
		// below the clock's resolution) the curve averages out to the mean
		// rate. Thinning to it keeps an overflowing clock from rejecting
		// every draw: the stream ends in +Inf arrivals, which the runtime
		// rejects, instead of never ending.
		rate := s.rate
		if phase := 2 * math.Pi * s.t / s.period; finite(phase) {
			rate *= 1 + s.amplitude*math.Sin(phase)
		}
		if s.g.Float64()*s.peak <= rate {
			s.draw(&out[i], s.t, chunkList(ids, i, k))
			i++
		}
	}
	return len(out)
}

// MultiTenant interleaves per-tenant streams into one arrival-ordered
// stream: each tenant's stream is its n-request stream from a
// tenant-derived seed, the merged stream keeps the earliest n overall,
// and requests are stamped with their tenant's index. Sizing every
// tenant's stream at n (rather than n/k) keeps every tenant active
// across the whole simulated span even when their rates differ. Each
// tenant's stream is drawn as the merge takes it, so a merge of k tenants
// draws at most n+k−1 requests, not k·n: a Poisson tenant still draws
// its n arrivals first, and a tenant that is not one of this package's
// generators (a Trace, a closed loop, a caller's Workload) is drawn
// eagerly, through its Generate.
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
// them: the earliest head goes next, and an arrival tie goes to the
// lower tenant index, then to stream order. That is the stable sort of
// all streams on arrival, keeping the stream deterministic.
func (m MultiTenant) Generate(n int, seed int64) []Request { return drain(m, n, seed) }

// open opens every tenant's stream and pulls its head. The merge takes
// at most one list per tenant beyond the requests drained from it.
func (m MultiTenant) open(n int, seed int64, a *arena) source {
	k := len(m.Tenants)
	a.left += k
	s := &mergeSource{srcs: make([]source, k), heads: make([]Request, k), live: make([]bool, k), taken: -1}
	for i, w := range m.Tenants {
		s.srcs[i] = openSource(w, n, seed+int64(i)*1_000_003, a)
		s.pull(i)
	}
	return s
}

// mergeSource is MultiTenant's k-way merge. It pulls a tenant's next
// request only when it needs a request after taking that tenant's head.
type mergeSource struct {
	srcs  []source
	heads []Request // heads[i] is tenant i's next request while live[i]
	live  []bool
	taken int // the tenant whose head the merge took last; -1 for none
}

// pull replaces tenant i's head with its stream's next request.
func (s *mergeSource) pull(i int) { s.live[i] = s.srcs[i].fill(s.heads[i:i+1]) == 1 }

func (s *mergeSource) fill(out []Request) int {
	for o := range out {
		if s.taken >= 0 {
			s.pull(s.taken)
		}
		s.taken = -1
		for i := range s.heads {
			if s.live[i] && (s.taken < 0 || s.heads[i].Arrival < s.heads[s.taken].Arrival) {
				s.taken = i
			}
		}
		if s.taken < 0 {
			return o
		}
		out[o] = s.heads[s.taken]
		out[o].Tenant = s.taken
	}
	return len(out)
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
