package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// zipfRef is Zipf as it was before zipfIndex's integer-power fast path,
// kept as the reference that path must match bit for bit.
func zipfRef(g *tensor.RNG, n int, s float64) int {
	if n <= 0 {
		panic("sim: Zipf over empty domain")
	}
	if s <= 0 {
		return g.Intn(n)
	}
	u := g.Float64()
	exp := 1 + s
	if s < 1 {
		exp = 1 / (1 - s)
	}
	return zipfIndexRef(u, n, exp)
}

// zipfIndexRef is zipfRef's index computation, always through math.Pow.
func zipfIndexRef(u float64, n int, exp float64) int {
	idx := int(math.Pow(u, exp) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// TestZipfMatchesReference draws 2M indices from Zipf and from the
// reference on equal seeds, for skews on both sides of s = 1 (0.5, 0.8,
// 0.9 and 1.0 multiply out an integer power, 1.1 calls math.Pow) and
// domains from one id to 100k. It then draws through a ZipfSampler built
// for every fuzzSkews skew and a few more, once for a stream of n draws
// (with a table, unless the exponent is multiplied out) and once for n−1
// (without one).
func TestZipfMatchesReference(t *testing.T) {
	const draws = 2_000_000
	for _, s := range []float64{0.5, 0.8, 0.9, 1.0, 1.1} {
		for _, n := range []int{1, 7, 48, 1500, 100_000} {
			s, n := s, n
			t.Run(fmt.Sprintf("s%g/n%d", s, n), func(t *testing.T) {
				t.Parallel()
				seed := int64(n) + int64(s*1000)
				a, b := tensor.NewRNG(seed), tensor.NewRNG(seed)
				for i := 0; i < draws; i++ {
					if got, want := Zipf(a, n, s), zipfRef(b, n, s); got != want {
						t.Fatalf("draw %d: Zipf = %d, reference gives %d", i, got, want)
					}
				}
			})
		}
	}
	const samplerDraws = 20_000
	for _, s := range append([]float64{0, 0.3, 1.65, 2.5}, fuzzSkews...) {
		s := s
		t.Run(fmt.Sprintf("sampler/s%g", s), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{1, 7, 48, 500, 1500, 100_000} {
				for _, stream := range []int{n, n - 1} {
					z := NewZipfSampler(n, s, stream)
					if want := stream >= n && s > 0 && intExponent(zipfExponent(s)) == 0; (z.bound != nil) != want {
						t.Fatalf("n %d, stream of %d draws: table built %v, want %v", n, stream, z.bound != nil, want)
					}
					seed := int64(n) + int64(s*1000) + int64(stream)
					a, b := tensor.NewRNG(seed), tensor.NewRNG(seed)
					for i := 0; i < samplerDraws; i++ {
						if got, want := z.Draw(a), zipfRef(b, n, s); got != want {
							t.Fatalf("n %d, stream of %d draws, draw %d: sampler = %d, reference gives %d",
								n, stream, i, got, want)
						}
					}
				}
			}
		})
	}
}

// TestZipfSamplerTableBounded: a sampler builds its table only for a
// stream of at least n draws over an exponent it cannot multiply out, so
// a billion-id domain drawn a few hundred times allocates the sampler
// and nothing else, and still draws the reference's indices.
func TestZipfSamplerTableBounded(t *testing.T) {
	for _, tc := range []struct {
		n, draws int
		s        float64
		table    bool
	}{
		{1_000_000_000, 1200, 1.1, false},
		{1_000_000_000, 1200, 0.4, false},
		{48, 47, 1.1, false},
		{48, 48, 1.1, true},
		{48, 12_000, 0.8, false}, // exponent 5.000000000000001, multiplied out
		{48, 12_000, 0, false},   // uniform
	} {
		var z *ZipfSampler
		allocs := testing.AllocsPerRun(1, func() { z = NewZipfSampler(tc.n, tc.s, tc.draws) })
		if (z.bound != nil) != tc.table {
			t.Fatalf("%+v: table built %v", tc, z.bound != nil)
		}
		if !tc.table && allocs != 1 {
			t.Fatalf("%+v: %v allocations, want the sampler's one", tc, allocs)
		}
		a, b := tensor.NewRNG(5), tensor.NewRNG(5)
		for i := 0; i < 1000; i++ {
			if got, want := z.Draw(a), zipfRef(b, tc.n, tc.s); got != want {
				t.Fatalf("%+v, draw %d: sampler = %d, reference gives %d", tc, i, got, want)
			}
		}
	}
}

// fuzzSkews is every skew the repo configures, and TenantMix's and
// ClosedLoop's per-tenant fan-outs of the common bases across two to
// four tenants.
var fuzzSkews = func() []float64 {
	out := []float64{0.1, 0.5, 0.75, 0.8, 0.9, 0.95, 1.0, 1.1, 1.2, 1.4}
	for _, base := range []float64{0.8, 0.9, 1.0, 1.1} {
		for k := 2; k <= 4; k++ {
			for i := 0; i < k; i++ {
				out = append(out, base*(0.5+float64(i)/float64(k-1)))
			}
		}
	}
	return out
}()

// FuzzZipf checks that zipfIndex, and the table of a ZipfSampler built
// for a stream of n draws, return the reference's index. The skew is
// fuzzSkews[sel], or s itself when sel is past the list. The draw u is
// ((i+ε)/n)^(1/exp): just off the point where u^exp·n crosses index i,
// with ε = eps·1e-15·max(i, 1), so inputs sit from about an ulp to about
// 2e-6 relative away from a boundary, on either side. i = 0 with ε ≤ 0
// gives u = 0. The table is checked on domains up to 65,536 ids and
// rebuilt only when the domain or the exponent changes.
func FuzzZipf(f *testing.F) {
	for sel := range fuzzSkews {
		f.Add(uint8(sel), 0.0, uint32(1500), uint32(700), int32(-3))
	}
	f.Add(uint8(0), 0.0, uint32(1500), uint32(0), int32(0))                   // u = 0
	f.Add(uint8(3), 0.0, uint32(0), uint32(1), int32(-1))                     // n = 1, u just below 1
	f.Add(uint8(3), 0.0, uint32(999_999), uint32(999_999), int32(-1))         // n = 1e6, top index
	f.Add(uint8(4), 0.0, uint32(47), uint32(24), int32(500))                  // guard edge, above
	f.Add(uint8(4), 0.0, uint32(47), uint32(24), int32(-500))                 // guard edge, below
	f.Add(uint8(6), 0.0, uint32(99_999), uint32(31_623), int32(1))            // s = 1, one ulp-ish off
	f.Add(uint8(255), 0.75, uint32(1499), uint32(1000), int32(2_000))         // fuzzed skew
	f.Add(uint8(255), 1e-17, uint32(1499), uint32(1000), int32(-2000))        // exponent exactly 1
	f.Add(uint8(255), 0.3, uint32(499), uint32(250), int32(4))                // exponent 1.43
	f.Add(uint8(255), 1.55, uint32(1499), uint32(37), int32(-7))              // exponent 2.55
	f.Add(uint8(255), 1-1e-6, uint32(1499), uint32(1200), int32(9))           // exponent 1e6
	f.Add(uint8(255), math.Nextafter(1, 0), uint32(47), uint32(20), int32(1)) // exponent 9e15
	f.Add(uint8(255), 100.0, uint32(47), uint32(3), int32(-1))                // exponent 101
	f.Add(uint8(255), 1.3, uint32(0), uint32(0), int32(0))                    // n = 1, u = 0
	f.Add(uint8(255), 1.3, uint32(0), uint32(1), int32(-1))                   // n = 1, u just below 1

	var z *ZipfSampler // the last domain's sampler
	f.Fuzz(func(t *testing.T, sel uint8, s float64, rawN, rawI uint32, eps int32) {
		if int(sel) < len(fuzzSkews) {
			s = fuzzSkews[sel]
		}
		if !(s > 0) || s > 100 {
			return
		}
		exp := zipfExponent(s)
		n := 1 + int(rawN%1_000_000)
		i := int(rawI % uint32(n+1))
		e := float64(eps) * 1e-15 * math.Max(float64(i), 1)
		u := math.Pow((float64(i)+e)/float64(n), 1/exp)
		switch {
		case !(u >= 0):
			u = 0
		case u >= 1:
			u = math.Nextafter(1, 0)
		}
		want := zipfIndexRef(u, n, exp)
		if got := zipfIndex(u, n, exp); got != want {
			t.Fatalf("zipfIndex(%v, %d, %v) = %d, math.Pow gives %d", u, n, exp, got, want)
		}
		if n > 1<<16 {
			return
		}
		if z == nil || z.n != n || z.exp != exp {
			z = NewZipfSampler(n, s, n)
		}
		if z.bound == nil {
			return // an exponent zipfIndex multiplies out: checked above
		}
		if got := z.lookup(u); got != want {
			t.Fatalf("sampler over %d ids at exponent %v: lookup(%v) = %d, math.Pow gives %d", n, exp, u, got, want)
		}
	})
}
