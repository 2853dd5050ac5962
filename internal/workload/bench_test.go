package workload

import "testing"

// BenchmarkGenerate times generating a 1000-request stream: Poisson,
// Bursty and Diurnal over BenchmarkServeHotPath's 1500-chunk corpus;
// serve-routed-tiered's mix of four drifting Bursty tenants over
// disjoint 48-chunk corpora, each with its own skew-1.1 Zipf table
// sized for a 1000-request stream, whose k-way merge keeps the earliest
// 1000 and draws each tenant's requests only as it takes them (at most
// 1003 in all); a TenantMix of three Poisson tenants over the same
// corpus, where each tenant draws its 1000 arrivals up front and the
// chunks and decode length of only the requests the merge pulls; and
// serve-closed-decode's closed loop of 3 tenants × 8 clients, whose
// session issues one request per completion (each completed one virtual
// second after it arrives). ns/req divides by the 1000 requests returned
// or issued.
func BenchmarkGenerate(b *testing.B) {
	const n = 1000
	hot := Chunks{Pool: 1500, PerRequest: 6, Skew: 0.8}
	tenants := make([]Workload, 4)
	for i := range tenants {
		tenants[i] = Bursty{Rate: 2, Burst: 4,
			Chunks: Chunks{Pool: 48, PerRequest: 6, Skew: 1.1, Offset: i * 48, DriftPeriod: 60}}
	}
	generate := func(w Workload) func(int64) int {
		return func(seed int64) int { return len(w.Generate(n, seed)) }
	}
	closed := ClosedLoop{Tenants: 3, Clients: 8, Think: 2, Chunks: hot, Decode: Decode{Mean: 128}}
	for _, tc := range []struct {
		name string
		run  func(seed int64) int // requests generated
	}{
		{"poisson", generate(Poisson{Rate: 2, Chunks: hot, Decode: Decode{Mean: 4}})},
		{"bursty", generate(Bursty{Rate: 2, Burst: 4, Chunks: hot})},
		{"diurnal", generate(Diurnal{Rate: 2, Amplitude: 0.8, Chunks: hot})},
		{"multi-tenant4", generate(MultiTenant{Tenants: tenants})},
		{"tenant-mix3", generate(TenantMix(3, 2, hot, 60, Decode{Mean: 4}))},
		{"closed-loop3x8", func(seed int64) int { return drainSession(closed.Session(n, seed)) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := tc.run(int64(i)); got != n {
					b.Fatalf("generated %d requests, want %d", got, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		})
	}
}

// drainSession completes every issue of s one virtual second after it
// arrives, in issue order, until the budget is spent, and returns how
// many requests the session issued.
func drainSession(s Session) int {
	pending := s.Initial()
	issued := len(pending)
	for len(pending) > 0 {
		iss := pending[0]
		pending = pending[1:]
		if next, ok := s.Complete(iss.Client, iss.Req.Arrival+1); ok {
			pending = append(pending, next)
			issued++
		}
	}
	return issued
}
