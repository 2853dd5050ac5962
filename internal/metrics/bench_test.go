package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BenchmarkPercentile times one p95 over 1k and 100k lognormal samples:
// a serving run's TTFTs, and the TBTs of a decode-heavy one. Each call
// copies its input, so ns/sample includes the copy.
func BenchmarkPercentile(b *testing.B) {
	for _, n := range []int{1000, 100_000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g := rand.New(rand.NewSource(1))
			x := make([]float64, n)
			for i := range x {
				x[i] = math.Exp(g.NormFloat64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Percentile(x, 95)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
	// The serving runtime's TBT log in serve-closed-decode's shape: 100k
	// samples over 44 values, one of them 68% of the samples, added in
	// runs of 1–100 equal values.
	b.Run("runs-n100000", func(b *testing.B) {
		g := rand.New(rand.NewSource(1))
		var r Runs
		for r.Len() < 100_000 {
			v := float64(1+g.Intn(44)) / 1000
			if g.Intn(100) < 68 {
				v = 0.040
			}
			for k := 1 + g.Intn(100); k > 0; k-- {
				r.Add(v)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Percentile(95)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.Len()), "ns/sample")
	})
}
