package workload

import (
	"reflect"
	"slices"
	"testing"
)

// generateRef is MultiTenant.Generate as it was before the k-way merge:
// a stable sort of every tenant's (arrival, tenant, index) keys on
// arrival. It is kept as the reference the merge must match.
func generateRef(m MultiTenant, n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	streams := make([][]Request, len(m.Tenants))
	total := 0
	for i, w := range m.Tenants {
		streams[i] = w.Generate(n, seed+int64(i)*1_000_003)
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
// benchmarks and goldens use merge exactly as the stable sort did, with
// n below, at and above one tenant's stream.
func TestMultiTenantMatchesReference(t *testing.T) {
	routed := make([]Workload, 4)
	for i := range routed {
		routed[i] = Bursty{Rate: 2, Burst: 4,
			Chunks: Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48, DriftPeriod: 60}}
	}
	for _, m := range []MultiTenant{
		{Tenants: routed},
		TenantMix(3, 6, Chunks{Pool: 300, PerRequest: 4, Skew: 0.8}, 10, Decode{Mean: 16}),
		TenantMix(1, 2, Chunks{Pool: 50, PerRequest: 2, Skew: 1.1}, 0, Decode{}),
	} {
		for _, n := range []int{0, 1, 7, 500} {
			for seed := int64(1); seed <= 3; seed++ {
				if got, want := m.Generate(n, seed), generateRef(m, n, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, n %d, seed %d: merge differs from the stable sort", m.Name(), n, seed)
				}
			}
		}
	}
}

// FuzzMultiTenantMerge holds MultiTenant's merge to the stable sort it
// replaced. It builds 1–6 arrival-ordered traces on a coarse half-second
// clock, so arrivals tie often within and across tenants: data's bytes
// are dealt to the tenants in turn, each one a request whose gap after
// its tenant's previous arrival is b%4 half-seconds. n runs from below
// one tenant's length to above all tenants' total. Every request and
// tenant stamp must equal the reference's, and no trace may change.
func FuzzMultiTenantMerge(f *testing.F) {
	f.Add(uint8(2), uint16(5), []byte{0, 0, 1, 0, 2, 0, 0, 3})
	f.Add(uint8(0), uint16(3), []byte{1, 2, 3})
	f.Add(uint8(5), uint16(40), []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 4, 8, 12, 2, 6, 0, 0})
	f.Add(uint8(3), uint16(0), []byte{7, 7, 7, 7})
	f.Add(uint8(4), uint16(9), []byte{})

	f.Fuzz(func(t *testing.T, rawK uint8, rawN uint16, data []byte) {
		k := 1 + int(rawK%6)
		traces := make([]Trace, k)
		clock := make([]int, k)
		for j, b := range data {
			i := j % k
			clock[i] += int(b % 4)
			traces[i].Reqs = append(traces[i].Reqs, Request{
				Arrival:      0.5 * float64(clock[i]),
				Chunks:       []int{j},
				DecodeTokens: int(b / 4),
			})
		}
		m := MultiTenant{Tenants: make([]Workload, k)}
		before := make([][]Request, k)
		for i, tr := range traces {
			m.Tenants[i] = tr
			before[i] = cloneRequests(tr.Reqs)
		}
		n := int(rawN) % (len(data) + 3)
		got := m.Generate(n, 1)
		want := generateRef(m, n, 1)
		if len(got) != len(want) {
			t.Fatalf("n %d: merged %d requests, the stable sort %d", n, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("n %d, request %d: merged %+v, the stable sort gives %+v", n, i, got[i], want[i])
			}
		}
		for i, tr := range traces {
			for j, r := range tr.Reqs {
				if !reflect.DeepEqual(r, before[i][j]) {
					t.Fatalf("Generate changed tenant %d's request %d to %+v", i, j, r)
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
