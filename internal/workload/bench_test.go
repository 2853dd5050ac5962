package workload

import "testing"

// BenchmarkGenerate times generating a 1000-request stream: Poisson and
// Bursty over BenchmarkServeHotPath's 1500-chunk corpus, and
// serve-routed-tiered's mix of four drifting Bursty tenants over
// disjoint 48-chunk corpora, which generates 1000 per tenant and merges
// them. ns/req divides by the 1000 requests returned.
func BenchmarkGenerate(b *testing.B) {
	const n = 1000
	hot := Chunks{Pool: 1500, PerRequest: 6, Skew: 0.8}
	tenants := make([]Workload, 4)
	for i := range tenants {
		tenants[i] = Bursty{Rate: 2, Burst: 4,
			Chunks: Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48, DriftPeriod: 60}}
	}
	for _, tc := range []struct {
		name string
		w    Workload
	}{
		{"poisson", Poisson{Rate: 2, Chunks: hot, Decode: Decode{Mean: 4}}},
		{"bursty", Bursty{Rate: 2, Burst: 4, Chunks: hot}},
		{"multi-tenant4", MultiTenant{Tenants: tenants}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := tc.w.Generate(n, int64(i)); len(got) != n {
					b.Fatalf("generated %d requests, want %d", len(got), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		})
	}
}
