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
	return zipfIndexRef(g.Float64(), n, zipfExponent(s))
}

// zipfIndexRef is zipfRef's index computation, always through math.Pow.
func zipfIndexRef(u float64, n int, exp float64) int {
	idx := int(math.Pow(u, exp) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// zipfExponent is the exponent Zipf derives from a positive skew.
func zipfExponent(s float64) float64 {
	if s < 1 {
		return 1 / (1 - s)
	}
	return 1 + s
}

// TestZipfMatchesReference draws 2M indices from Zipf and from the
// reference on equal seeds, for skews on both sides of s = 1 (0.5, 0.8
// and 1.0 take the fast path, 1.1 never does) and domains from one id to
// 100k.
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

// FuzzZipf checks that zipfIndex returns the reference's index. The skew
// is fuzzSkews[sel], or s itself when sel is past the list. The draw u is
// ((i+ε)/n)^(1/exp): just off the point where u^exp·n crosses index i,
// with ε = eps·1e-15·max(i, 1), so inputs sit from about an ulp to about
// 2e-6 relative away from a boundary, on either side. i = 0 with ε ≤ 0
// gives u = 0.
func FuzzZipf(f *testing.F) {
	for sel := range fuzzSkews {
		f.Add(uint8(sel), 0.0, uint32(1500), uint32(700), int32(-3))
	}
	f.Add(uint8(0), 0.0, uint32(1500), uint32(0), int32(0))            // u = 0
	f.Add(uint8(3), 0.0, uint32(0), uint32(1), int32(-1))              // n = 1, u just below 1
	f.Add(uint8(3), 0.0, uint32(999_999), uint32(999_999), int32(-1))  // n = 1e6, top index
	f.Add(uint8(4), 0.0, uint32(47), uint32(24), int32(500))           // guard edge, above
	f.Add(uint8(4), 0.0, uint32(47), uint32(24), int32(-500))          // guard edge, below
	f.Add(uint8(6), 0.0, uint32(99_999), uint32(31_623), int32(1))     // s = 1, one ulp-ish off
	f.Add(uint8(255), 0.75, uint32(1499), uint32(1000), int32(2_000))  // fuzzed skew
	f.Add(uint8(255), 1e-17, uint32(1499), uint32(1000), int32(-2000)) // exponent exactly 1

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
		if got, want := zipfIndex(u, n, exp), zipfIndexRef(u, n, exp); got != want {
			t.Fatalf("zipfIndex(%v, %d, %v) = %d, math.Pow gives %d", u, n, exp, got, want)
		}
	})
}
