package workload

import (
	"reflect"
	"slices"
	"testing"
)

// generateRef is MultiTenant.Generate as it was before the k-way merge:
// a stable sort of every tenant's (arrival, tenant, index) keys on
// arrival, over n requests drawn from each tenant by its reference
// (refStream). It is kept as the reference the merge must match.
func generateRef(m MultiTenant, n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	streams := make([][]Request, len(m.Tenants))
	total := 0
	for i, w := range m.Tenants {
		streams[i] = refStream(w, n, seed+int64(i)*1_000_003)
		total += len(streams[i])
	}
	type arrivalKey struct {
		at          float64
		tenant, idx int
	}
	keys := make([]arrivalKey, 0, total)
	for i, stream := range streams {
		for j, r := range stream {
			keys = append(keys, arrivalKey{at: r.Arrival, tenant: i, idx: j})
		}
	}
	slices.SortStableFunc(keys, func(a, b arrivalKey) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	out := make([]Request, len(keys))
	for i, k := range keys {
		out[i] = streams[k.tenant][k.idx]
		out[i].Tenant = k.tenant
	}
	return out
}

// TestMultiTenantMatchesReference: the generated mixes the serving
// benchmarks and goldens use, a Diurnal mix with a Poisson tenant, and a
// mix nesting both beside a trace merge exactly as the stable sort of the
// reference streams did, with n below, at and above one tenant's stream,
// and every tenant's own Generate equals its reference.
func TestMultiTenantMatchesReference(t *testing.T) {
	routed := make([]Workload, 4)
	for i := range routed {
		routed[i] = Bursty{Rate: 2, Burst: 4,
			Chunks: Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48, DriftPeriod: 60}}
	}
	diurnal := MultiTenant{Tenants: []Workload{
		Diurnal{Rate: 3, Amplitude: 0.9, Chunks: Chunks{Pool: 64, PerRequest: 3, Skew: 1.1}, Decode: Decode{Mean: 8}},
		Diurnal{Rate: 1, Amplitude: 0.5, Period: 5,
			Chunks: Chunks{Pool: 64, PerRequest: 2, Offset: 64, DriftPeriod: 7}, Decode: Decode{Mean: 3, Deterministic: true}},
		Poisson{Rate: 2, Chunks: Chunks{Pool: 64, PerRequest: 4, Skew: 1, Offset: 128}},
	}}
	trace := Trace{Reqs: []Request{{Arrival: 0.5, Chunks: []int{1}}, {Arrival: 0.5, Chunks: []int{2}}, {Arrival: 9, Chunks: []int{3}}}}
	for _, m := range []MultiTenant{
		{Tenants: routed},
		TenantMix(3, 6, Chunks{Pool: 300, PerRequest: 4, Skew: 0.8}, 10, Decode{Mean: 16}),
		TenantMix(1, 2, Chunks{Pool: 50, PerRequest: 2, Skew: 1.1}, 0, Decode{}),
		diurnal,
		{Tenants: []Workload{TenantMix(2, 4, Chunks{Pool: 40, PerRequest: 2, Skew: 0.8}, 0, Decode{}), diurnal, trace}},
	} {
		for _, n := range []int{0, 1, 7, 500} {
			for seed := int64(1); seed <= 3; seed++ {
				if got, want := m.Generate(n, seed), generateRef(m, n, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, n %d, seed %d: merge differs from the stable sort", m.Name(), n, seed)
				}
				for i, w := range m.Tenants {
					s := seed + int64(i)*1_000_003
					if got, want := w.Generate(n, s), refStream(w, n, s); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, n %d, seed %d: tenant %d (%s) differs from its reference", m.Name(), n, seed, i, w.Name())
					}
				}
			}
		}
	}
}

// countedTenant is a generator whose source counts the requests pulled
// from it into pulls.
type countedTenant struct {
	Workload // a Poisson, Bursty or Diurnal generator
	pulls    *int
}

func (c countedTenant) open(n int, seed int64, a *arena) source {
	return countedSource{c.Workload.(streamer).open(n, seed, a), c.pulls}
}

type countedSource struct {
	source
	pulls *int
}

func (c countedSource) fill(out []Request) int {
	k := c.source.fill(out)
	*c.pulls += k
	return k
}

// TestMultiTenantDrawsOnlyWhatItKeeps: a merge of k tenants draws a
// tenant's next request only when it takes that tenant's head, so
// Generate(n, …) pulls at most n+k requests in all, where drawing every
// tenant's whole stream would pull k·n. Every request it keeps is
// pulled, and counting the pulls changes no request.
func TestMultiTenantDrawsOnlyWhatItKeeps(t *testing.T) {
	const n = 2000
	routed := make([]Workload, 4) // serve-routed-tiered's mix
	for i := range routed {
		routed[i] = Bursty{Rate: 2, Burst: 4,
			Chunks: Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48, DriftPeriod: 60}}
	}
	for _, m := range []MultiTenant{
		{Tenants: routed},
		TenantMix(3, 6, Chunks{Pool: 300, PerRequest: 4, Skew: 0.8}, 10, Decode{Mean: 16}),
	} {
		pulls := 0
		counted := MultiTenant{Tenants: make([]Workload, len(m.Tenants))}
		for i, w := range m.Tenants {
			counted.Tenants[i] = countedTenant{w, &pulls}
		}
		got := counted.Generate(n, 5)
		if !reflect.DeepEqual(got, m.Generate(n, 5)) {
			t.Fatalf("%s: counting the pulls changed the stream", m.Name())
		}
		if k := len(m.Tenants); pulls < n || pulls > n+k {
			t.Fatalf("%s: pulled %d requests to keep %d, want n to n+k = %d", m.Name(), pulls, n, n+k)
		}
	}
}

// fuzzGenerator decodes one tenant from spec, a byte per choice (0 past
// its end): nil for a trace, or a Poisson, Bursty or Diurnal generator
// over small sets of rates, burst factors, amplitudes, pools, chunks per
// request, skews (uniform, integer-power and table Zipf draws), drift and
// decode lengths.
func fuzzGenerator(spec *[]byte) Workload {
	pick := func(n int) int {
		if len(*spec) == 0 {
			return 0
		}
		v := int((*spec)[0]) % n
		*spec = (*spec)[1:]
		return v
	}
	kind := pick(4)
	if kind == 0 {
		return nil
	}
	ch := Chunks{
		Pool:        []int{1, 7, 48}[pick(3)],
		PerRequest:  []int{1, 3, 6}[pick(3)],
		Skew:        []float64{0, 0.8, 1, 1.1}[pick(4)],
		Offset:      48 * pick(4),
		DriftPeriod: []float64{0, 2, 30}[pick(3)],
	}
	dec := []Decode{{}, {Mean: 16}, {Mean: 4, Deterministic: true}}[pick(3)]
	rate := []float64{0.5, 2, 8}[pick(3)]
	switch kind {
	case 1:
		return Poisson{Rate: rate, Chunks: ch, Decode: dec}
	case 2:
		return Bursty{Rate: rate, Burst: []float64{1, 4, 16}[pick(3)], Cycle: []float64{0, 3}[pick(2)], Chunks: ch, Decode: dec}
	}
	return Diurnal{Rate: rate, Amplitude: []float64{0, 0.5, 1}[pick(3)], Period: []float64{0, 5}[pick(2)], Chunks: ch, Decode: dec}
}

// FuzzMultiTenantMerge holds MultiTenant's merge to the stable sort it
// replaced, over the tenants' reference streams. Each of 1–6 tenants is
// decoded from spec (fuzzGenerator): a generator, or an arrival-ordered
// trace on a coarse half-second clock, so arrivals tie often within and
// across tenants. data's bytes are dealt to the trace tenants in turn,
// each one a request whose gap after its tenant's previous arrival is b%4
// half-seconds. n runs from below one trace's length to above all traces'
// total, and rawK also picks the seed. Every request and tenant stamp
// must equal the reference's, every generator tenant's own Generate must
// equal its reference, and no trace may change.
func FuzzMultiTenantMerge(f *testing.F) {
	f.Add(uint8(2), uint16(5), []byte{}, []byte{0, 0, 1, 0, 2, 0, 0, 3})
	f.Add(uint8(0), uint16(3), []byte{}, []byte{1, 2, 3})
	f.Add(uint8(5), uint16(40), []byte{}, []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 4, 8, 12, 2, 6, 0, 0})
	f.Add(uint8(3), uint16(0), []byte{}, []byte{7, 7, 7, 7})
	f.Add(uint8(4), uint16(9), []byte{}, []byte{})
	// Four drifting Bursty tenants, serve-routed-tiered's shape.
	f.Add(uint8(3), uint16(60), []byte{2, 2, 2, 3, 0, 2, 0, 1, 1, 0, 2, 2, 2, 3, 1, 2, 0, 1, 1, 0, 2, 2, 2, 3, 2, 2, 0, 1, 1, 0, 2, 2, 2, 3, 3, 2, 0, 1, 1, 0}, []byte{})
	// Poisson, Diurnal and a trace, with decode lengths.
	f.Add(uint8(8), uint16(30), []byte{1, 1, 1, 2, 0, 0, 1, 2, 0, 3, 2, 2, 1, 1, 1, 2, 2, 1, 1, 0}, []byte{0, 1, 2, 3, 0, 1})
	f.Add(uint8(13), uint16(50), []byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 2, 3, 3, 1, 2, 2, 1, 1, 1, 1, 0, 1, 1, 2, 2, 1, 2, 0}, []byte{5})

	f.Fuzz(func(t *testing.T, rawK uint8, rawN uint16, spec, data []byte) {
		k := 1 + int(rawK%6)
		seed := 1 + int64(rawK/6)
		m := MultiTenant{Tenants: make([]Workload, k)}
		var traced []int // the trace tenants, in order
		for i := range m.Tenants {
			if m.Tenants[i] = fuzzGenerator(&spec); m.Tenants[i] == nil {
				traced = append(traced, i)
			}
		}
		traces := make([]Trace, len(traced))
		clock := make([]int, len(traced))
		for j, b := range data {
			if len(traced) == 0 {
				break
			}
			i := j % len(traced)
			clock[i] += int(b % 4)
			traces[i].Reqs = append(traces[i].Reqs, Request{
				Arrival:      0.5 * float64(clock[i]),
				Chunks:       []int{j},
				DecodeTokens: int(b / 4),
			})
		}
		before := make([][]Request, len(traces))
		for i, tr := range traces {
			m.Tenants[traced[i]] = tr
			before[i] = cloneRequests(tr.Reqs)
		}
		n := int(rawN) % (len(data) + 64)
		got := m.Generate(n, seed)
		want := generateRef(m, n, seed)
		if len(got) != len(want) {
			t.Fatalf("n %d: merged %d requests, the stable sort %d", n, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("n %d, request %d: merged %+v, the stable sort gives %+v", n, i, got[i], want[i])
			}
		}
		for i, w := range m.Tenants {
			if _, ok := w.(Trace); ok {
				continue
			}
			s := seed + int64(i)*1_000_003
			if got, want := w.Generate(n, s), refStream(w, n, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("n %d: tenant %d (%+v) differs from its reference", n, i, w)
			}
		}
		for i, tr := range traces {
			for j, r := range tr.Reqs {
				if !reflect.DeepEqual(r, before[i][j]) {
					t.Fatalf("Generate changed trace tenant %d's request %d to %+v", traced[i], j, r)
				}
			}
		}
	})
}

// cloneRequests deep-copies reqs, chunk lists included.
func cloneRequests(reqs []Request) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		out[i] = r
		out[i].Chunks = slices.Clone(r.Chunks)
	}
	return out
}
