package workload

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func testChunks() Chunks {
	return Chunks{Pool: 200, PerRequest: 6, Skew: 0.8}
}

// gaps returns the inter-arrival gaps of a stream.
func gaps(reqs []Request) []float64 {
	out := make([]float64, 0, len(reqs))
	prev := 0.0
	for _, r := range reqs {
		out = append(out, r.Arrival-prev)
		prev = r.Arrival
	}
	return out
}

func meanRate(reqs []Request) float64 {
	if len(reqs) == 0 || reqs[len(reqs)-1].Arrival <= 0 {
		return 0
	}
	return float64(len(reqs)) / reqs[len(reqs)-1].Arrival
}

// TestPoissonMatchesLegacySampling pins the seed compatibility serve.Run
// depends on: Poisson.Generate must consume the RNG exactly like the
// pre-workload runtime (all arrivals first, then chunk ids in order).
func TestPoissonMatchesLegacySampling(t *testing.T) {
	const n, seed = 50, 9
	ch := testChunks()
	got := Poisson{Rate: 2, Chunks: ch}.Generate(n, seed)

	g := tensor.NewRNG(seed)
	arrivals := sim.PoissonArrivals(g, 2, n)
	for i := 0; i < n; i++ {
		if got[i].Arrival != arrivals[i] {
			t.Fatalf("request %d arrival %v, legacy %v", i, got[i].Arrival, arrivals[i])
		}
		for j := 0; j < ch.PerRequest; j++ {
			want := sim.Zipf(g, ch.Pool, ch.Skew)
			if got[i].Chunks[j] != want {
				t.Fatalf("request %d chunk %d = %d, legacy %d", i, j, got[i].Chunks[j], want)
			}
		}
		if got[i].Tenant != 0 {
			t.Fatalf("single-tenant stream stamped tenant %d", got[i].Tenant)
		}
	}
}

// TestGeneratorsCommonProperties checks every generator yields valid,
// arrival-ordered, deterministic streams at roughly its nominal rate.
func TestGeneratorsCommonProperties(t *testing.T) {
	ch := testChunks()
	const rate = 4.0
	cases := []Workload{
		Poisson{Rate: rate, Chunks: ch},
		Bursty{Rate: rate, Burst: 8, Chunks: ch},
		Diurnal{Rate: rate, Amplitude: 0.8, Chunks: ch},
		TenantMix(4, rate, ch, 50, Decode{}),
	}
	for _, w := range cases {
		t.Run(w.Name(), func(t *testing.T) {
			if err := w.Validate(); err != nil {
				t.Fatal(err)
			}
			const n = 4000
			reqs := w.Generate(n, 3)
			if len(reqs) != n {
				t.Fatalf("generated %d requests, want %d", len(reqs), n)
			}
			prev := math.Inf(-1)
			for i, r := range reqs {
				if err := r.Validate(); err != nil {
					t.Fatalf("request %d invalid: %v", i, err)
				}
				if r.Arrival < prev {
					t.Fatalf("request %d arrival %v before %v", i, r.Arrival, prev)
				}
				prev = r.Arrival
			}
			// Long-run mean rate within 15% of nominal.
			if m := meanRate(reqs); m < 0.85*rate || m > 1.15*rate {
				t.Fatalf("measured mean rate %.2f, nominal %v", m, rate)
			}
			if !reflect.DeepEqual(reqs, w.Generate(n, 3)) {
				t.Fatal("same seed must reproduce the stream")
			}
			again := w.Generate(n, 4)
			if reflect.DeepEqual(reqs, again) {
				t.Fatal("different seeds produced identical streams")
			}
			// Chunk lists may share one array but never capacity: an
			// append to one request's list must leave the next one's ids.
			for i := 0; i+1 < n; i++ {
				next := slices.Clone(reqs[i+1].Chunks)
				reqs[i].Chunks = append(reqs[i].Chunks, -1)
				if !slices.Equal(reqs[i+1].Chunks, next) {
					t.Fatalf("appending to request %d's chunks changed request %d's: %v -> %v",
						i, i+1, next, reqs[i+1].Chunks)
				}
			}
		})
	}
}

// TestBurstyInflatesVariability: at equal mean rate, the bursty stream's
// inter-arrival coefficient of variation must far exceed Poisson's ≈1,
// and grow with the burst factor.
func TestBurstyInflatesVariability(t *testing.T) {
	ch := testChunks()
	const n, rate = 8000, 4.0
	cv := func(w Workload) float64 { return metrics.CoefVar(gaps(w.Generate(n, 5))) }
	poisson := cv(Poisson{Rate: rate, Chunks: ch})
	if poisson < 0.8 || poisson > 1.2 {
		t.Fatalf("poisson inter-arrival CV %.2f, want ≈1", poisson)
	}
	b4 := cv(Bursty{Rate: rate, Burst: 4, Chunks: ch})
	b16 := cv(Bursty{Rate: rate, Burst: 16, Chunks: ch})
	if b4 < 1.3*poisson {
		t.Fatalf("burst×4 CV %.2f not clearly above poisson %.2f", b4, poisson)
	}
	if b16 <= b4 {
		t.Fatalf("CV must grow with burstiness: ×16 %.2f vs ×4 %.2f", b16, b4)
	}
}

// TestBurstyDegeneratesToPoisson: Burst=1 has no OFF windows, so the
// stream is statistically Poisson (CV ≈ 1).
func TestBurstyDegeneratesToPoisson(t *testing.T) {
	cvv := metrics.CoefVar(gaps(Bursty{Rate: 4, Burst: 1, Chunks: testChunks()}.Generate(8000, 6)))
	if cvv < 0.8 || cvv > 1.2 {
		t.Fatalf("burst=1 inter-arrival CV %.2f, want ≈1", cvv)
	}
}

// TestDiurnalRateCurve: the first half of each period (sin > 0) must
// carry visibly more arrivals than the second half.
func TestDiurnalRateCurve(t *testing.T) {
	d := Diurnal{Rate: 4, Amplitude: 0.9, Period: 100, Chunks: testChunks()}
	reqs := d.Generate(6000, 7)
	var up, down int
	for _, r := range reqs {
		if math.Mod(r.Arrival, d.Period) < d.Period/2 {
			up++
		} else {
			down++
		}
	}
	if up < down*2 {
		t.Fatalf("day half %d arrivals vs night half %d: curve too flat", up, down)
	}
}

// TestMultiTenantMerge: tenants are stamped, the merge is
// arrival-ordered, and every tenant appears across the whole span.
func TestMultiTenantMerge(t *testing.T) {
	m := TenantMix(3, 6, Chunks{Pool: 300, PerRequest: 4, Skew: 0.8}, 0, Decode{})
	const n = 3000
	reqs := m.Generate(n, 8)
	if len(reqs) != n {
		t.Fatalf("generated %d, want %d", len(reqs), n)
	}
	seen := map[int]int{}
	for _, r := range reqs {
		seen[r.Tenant]++
	}
	if len(seen) != 3 {
		t.Fatalf("tenants seen: %v, want 3", seen)
	}
	for tenant, count := range seen {
		if count < n/6 {
			t.Fatalf("tenant %d only %d/%d requests — equal rate shares should balance", tenant, count, n)
		}
	}
	// Disjoint corpora: tenant i draws only from its pool slice.
	for i, r := range reqs {
		lo, hi := r.Tenant*100, (r.Tenant+1)*100
		for _, id := range r.Chunks {
			if id < lo || id >= hi {
				t.Fatalf("request %d (tenant %d) chunk %d outside slice [%d,%d)", i, r.Tenant, id, lo, hi)
			}
		}
	}
	// Late tenants still arrive near the stream's end.
	last := map[int]float64{}
	for _, r := range reqs {
		last[r.Tenant] = r.Arrival
	}
	end := reqs[n-1].Arrival
	for tenant, at := range last {
		if at < 0.9*end {
			t.Fatalf("tenant %d went quiet at %.1f of %.1f — truncation starved it", tenant, at, end)
		}
	}
}

// TestMultiTenantDoesNotMutateSubStreams: a Trace reused as several
// tenants hands out its own backing slice; stamping tenants must copy,
// not write through it. The merge also keeps its tie rule — equal
// arrivals go by tenant index, then by stream order — and the earliest n.
func TestMultiTenantDoesNotMutateSubStreams(t *testing.T) {
	// Eight requests in two arrival ties of four, chunk id = stream index;
	// three tenants replay the same trace.
	tr := Trace{Label: "shared"}
	for i := 0; i < 8; i++ {
		tr.Reqs = append(tr.Reqs, Request{Arrival: float64(1 + i/4), Chunks: []int{i}})
	}
	m := MultiTenant{Tenants: []Workload{tr, tr, tr}}
	reqs := m.Generate(20, 1)
	type key struct {
		arrival       float64
		tenant, chunk int
	}
	var want []key
	for _, tie := range []int{0, 4} {
		for tenant := range m.Tenants {
			for i := tie; i < tie+4; i++ {
				want = append(want, key{float64(1 + i/4), tenant, i})
			}
		}
	}
	want = want[:20]
	if len(reqs) != len(want) {
		t.Fatalf("got %d requests, want the earliest %d", len(reqs), len(want))
	}
	for i, w := range want {
		if r := reqs[i]; (key{r.Arrival, r.Tenant, r.Chunks[0]}) != w {
			t.Fatalf("request %d: arrival %v tenant %d chunk %d, want %+v", i, r.Arrival, r.Tenant, r.Chunks[0], w)
		}
	}
	for i, r := range tr.Reqs {
		if r.Tenant != 0 {
			t.Fatalf("Generate mutated the shared trace: request %d now tenant %d", i, r.Tenant)
		}
	}
}

// TestTenantMixSkewFansOut: higher-index tenants get heavier-headed
// popularity — their top decile of the slice draws a larger share.
func TestTenantMixSkewFansOut(t *testing.T) {
	m := TenantMix(3, 6, Chunks{Pool: 300, PerRequest: 4, Skew: 0.8}, 0, Decode{})
	reqs := m.Generate(9000, 11)
	headShare := func(tenant int) float64 {
		head, total := 0, 0
		for _, r := range reqs {
			if r.Tenant != tenant {
				continue
			}
			for _, id := range r.Chunks {
				total++
				if id-tenant*100 < 10 { // top decile of the tenant's slice
					head++
				}
			}
		}
		return float64(head) / float64(total)
	}
	t0, t2 := headShare(0), headShare(2)
	if t2 <= t0 {
		t.Fatalf("tenant 2 (skew 1.2×base) head share %.2f not above tenant 0 (0.4×base) %.2f", t2, t0)
	}
}

// TestPopularityDrift: with drift enabled, the most popular chunks of the
// stream's first quarter differ from the last quarter's.
func TestPopularityDrift(t *testing.T) {
	ch := Chunks{Pool: 100, PerRequest: 4, Skew: 1.2, DriftPeriod: 40}
	reqs := Poisson{Rate: 4, Chunks: ch}.Generate(4000, 12)
	top := func(part []Request) int {
		counts := map[int]int{}
		for _, r := range part {
			for _, id := range r.Chunks {
				counts[id]++
			}
		}
		best, bestN := -1, -1
		ids := make([]int, 0, len(counts))
		for id := range counts {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if counts[id] > bestN {
				best, bestN = id, counts[id]
			}
		}
		return best
	}
	early := top(reqs[:1000])
	late := top(reqs[3000:])
	if early == late {
		t.Fatalf("hot chunk %d did not drift over %d periods", early, int(reqs[len(reqs)-1].Arrival/ch.DriftPeriod))
	}

	still := Poisson{Rate: 4, Chunks: Chunks{Pool: 100, PerRequest: 4, Skew: 1.2}}.Generate(4000, 12)
	if top(still[:1000]) != top(still[3000:]) {
		t.Fatal("without drift the hot chunk should be stable")
	}
}

// TestValidateRejectsDegenerateParameters covers every generator's
// validation error paths with recognisable messages.
func TestValidateRejectsDegenerateParameters(t *testing.T) {
	ch := testChunks()
	type row struct {
		w    Workload
		want string
	}
	cases := []row{
		{Poisson{Rate: 0, Chunks: ch}, "rate"},
		{Poisson{Rate: 1, Chunks: Chunks{Pool: 0, PerRequest: 6}}, "chunk pool"},
		{Poisson{Rate: 1, Chunks: Chunks{Pool: 10, PerRequest: 0}}, "chunks per request"},
		{Poisson{Rate: 1, Chunks: Chunks{Pool: 10, PerRequest: 2, Skew: -0.5}}, "skew"},
		{Poisson{Rate: 1, Chunks: Chunks{Pool: 10, PerRequest: 2, Offset: -1}}, "offset"},
		{Poisson{Rate: 1, Chunks: Chunks{Pool: 10, PerRequest: 2, DriftPeriod: -1}}, "drift period"},
		{Bursty{Rate: -1, Burst: 4, Chunks: ch}, "rate"},
		{Bursty{Rate: 1, Burst: 0.5, Chunks: ch}, "burst factor"},
		{Bursty{Rate: 1, Burst: 2, Cycle: -3, Chunks: ch}, "cycle"},
		{Diurnal{Rate: 1, Amplitude: 1.5, Chunks: ch}, "amplitude"},
		{Diurnal{Rate: 0, Chunks: ch}, "rate"},
		{MultiTenant{}, "no tenants"},
		{MultiTenant{Tenants: []Workload{Poisson{Rate: 0, Chunks: ch}}}, "tenant 0"},
		{Trace{}, "no requests"},
	}
	// Non-finite parameters: a NaN or +Inf must be named, not passed on
	// to hang a generator or surface later as a bad arrival or chunk id.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		cases = append(cases, []row{
			{Poisson{Rate: bad, Chunks: ch}, "rate"},
			{Poisson{Rate: 1, Chunks: Chunks{Pool: 10, PerRequest: 2, Skew: bad}}, "skew"},
			{Poisson{Rate: 1, Chunks: Chunks{Pool: 10, PerRequest: 2, DriftPeriod: bad}}, "drift period"},
			{Bursty{Rate: bad, Burst: 4, Chunks: ch}, "rate"},
			{Bursty{Rate: 1, Burst: bad, Chunks: ch}, "burst factor"},
			{Bursty{Rate: 1, Burst: 2, Cycle: bad, Chunks: ch}, "cycle"},
			{Diurnal{Rate: bad, Chunks: ch}, "rate"},
			{Diurnal{Rate: 1, Amplitude: bad, Chunks: ch}, "amplitude"},
			{Diurnal{Rate: 1, Period: bad, Chunks: ch}, "period"},
		}...)
	}
	for _, c := range cases {
		err := c.w.Validate()
		if err == nil {
			t.Fatalf("%T %+v: expected error", c.w, c.w)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%T error %q does not mention %q", c.w, err, c.want)
		}
	}
	if err := (Poisson{Rate: 1, Chunks: ch}).Validate(); err != nil {
		t.Fatalf("valid generator rejected: %v", err)
	}
}
