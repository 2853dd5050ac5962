package sim

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// sleeper wakes itself one virtual second later, n times.
type sleeper struct {
	c *Clock
	n int
}

func (s *sleeper) Run(now float64) {
	if s.n > 0 {
		s.n--
		s.c.Wake(now+1, s)
	}
}

// BenchmarkWake times one Wake round trip: schedule, pop and resume a
// task — the cost of a simulated sleep.
func BenchmarkWake(b *testing.B) {
	c := NewClock()
	// A few idle events keep the heap at a runtime-like depth.
	for i := 0; i < 4; i++ {
		c.Wake(float64(b.N)+2, &sleeper{c: c})
	}
	c.Wake(0, &sleeper{c: c, n: b.N})
	b.ReportAllocs()
	b.ResetTimer()
	c.Run()
}

// handoffProducer pushes one item a virtual second, n times.
type handoffProducer struct {
	c *Clock
	q *Queue[int]
	n int
}

func (p *handoffProducer) Run(now float64) {
	if p.n == 0 {
		p.q.Close()
		return
	}
	p.n--
	p.q.Push(p.n)
	p.c.Wake(now+1, p)
}

// drainer takes everything queued, then parks until the next push.
type drainer struct{ q *Queue[int] }

func (d *drainer) Run(float64) {
	for {
		if _, ok := d.q.TryPop(); !ok {
			break
		}
	}
	if !d.q.Closed() {
		d.q.Wait(d)
	}
}

// BenchmarkQueueWaitHandoff times one parked-consumer hand-off: a Push
// that wakes a Wait-ing task, its resume and re-park, and the producer's
// own sleep.
func BenchmarkQueueWaitHandoff(b *testing.B) {
	c := NewClock()
	q := NewQueue[int](c)
	c.Wake(0, &drainer{q: q})
	c.Wake(0, &handoffProducer{c: c, q: q, n: b.N})
	b.ReportAllocs()
	b.ResetTimer()
	c.Run()
}

// BenchmarkTryPopMin times a min-pop from a queue held at the given depth
// (the slo scheduler's admission scan), reported per call.
func BenchmarkTryPopMin(b *testing.B) {
	for _, depth := range []int{8, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			q := NewQueue[int](NewClock())
			for i := 0; i < depth; i++ {
				q.Push(depth - i)
			}
			less := func(a, b int) bool { return a < b }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := q.TryPopMin(less)
				q.Push(v + depth)
			}
		})
	}
}

// BenchmarkZipf times 1000 draws over BenchmarkServeHotPath's
// 1500-chunk corpus at each skew the serving benchmarks use, first
// through sim.Zipf: 0.8 (exponent 5.000000000000001), 0.9 and 1.0
// multiply out an integer power, and 1.1 (exponent 2.1) calls math.Pow.
// The sampler cases draw through a ZipfSampler built outside the timer:
// at skew 1.1 over serve-routed-tiered's 48-chunk tenant corpora and the
// 1500-chunk one, where it looks the index up in its table, and at 0.8,
// where it has no table. ns/draw divides by the draws. The build cases
// time building the skew-1.1 table alone.
func BenchmarkZipf(b *testing.B) {
	const draws = 1000
	for _, s := range []float64{0.8, 0.9, 1.0, 1.1} {
		b.Run(fmt.Sprintf("s%g", s), func(b *testing.B) {
			g := tensor.NewRNG(1)
			sum := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < draws; j++ {
					sum += Zipf(g, 1500, s)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
			zipfSink = sum
		})
	}
	for _, tc := range []struct {
		n int
		s float64
	}{{48, 1.1}, {1500, 1.1}, {1500, 0.8}} {
		b.Run(fmt.Sprintf("sampler/n%d/s%g", tc.n, tc.s), func(b *testing.B) {
			z := NewZipfSampler(tc.n, tc.s, tc.n)
			g := tensor.NewRNG(1)
			sum := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < draws; j++ {
					sum += z.Draw(g)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
			zipfSink = sum
		})
	}
	for _, n := range []int{48, 1500} {
		b.Run(fmt.Sprintf("build/n%d/s1.1", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if NewZipfSampler(n, 1.1, n).bound == nil {
					b.Fatal("no table built")
				}
			}
		})
	}
}

var zipfSink int
