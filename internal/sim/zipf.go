package sim

import (
	"math"

	"repro/internal/tensor"
)

// Zipf draws an index in [0, n) with a skewed popularity distribution,
// deterministically from g: ⌊u^e·n⌋ for a uniform u in [0, 1), clamped
// to n−1. The skew s ≥ 0 sets the exponent e (zipfExponent); s = 0 draws
// uniformly. It models chunk reuse: a few context chunks are requested
// far more often than the tail, which is what makes KV caches worth
// storing. A stream of many draws over one domain should use a
// ZipfSampler, which returns the same indices faster.
func Zipf(g *tensor.RNG, n int, s float64) int {
	if n <= 0 {
		panic("sim: Zipf over empty domain")
	}
	if s <= 0 {
		return g.Intn(n)
	}
	return zipfIndex(g.Float64(), n, zipfExponent(s))
}

// zipfExponent is the exponent e Zipf derives from a positive skew s:
// 1/(1−s) below 1 and 1+s from 1. The map is not monotone. It rises
// without bound as s approaches 1 from below, then restarts at 2: skew
// 0.9 gives 10 and is far more head-heavy than skew 1.1, which gives
// 2.1. Every positive skew gives e > 1.
func zipfExponent(s float64) float64 {
	if s < 1 {
		return 1 / (1 - s)
	}
	return 1 + s
}

// intExponent returns the integer k in [1, 16] that exp lies within 1e-12
// of, or 0 when there is none.
func intExponent(exp float64) int {
	if k := math.Round(exp); k >= 1 && k <= 16 && math.Abs(exp-k) <= 1e-12 {
		return int(k)
	}
	return 0
}

// zipfIndex maps a uniform draw u in [0, 1) to int(math.Pow(u, exp)·n),
// clamped to n−1, without calling math.Pow where it can prove the same
// index.
//
// The exponents in use sit within rounding of small integers: s = 0.8
// gives 1/(1−0.8) = 5.000000000000001, s = 0.9 gives 10.000000000000002
// and s = 1 gives exactly 2, and for a fraction as small as 8.9e-16
// math.Pow still pays for an Exp and a Log. So when exp lies within
// 1e-12 of an integer k in [1, 16], u^k is multiplied out instead. The
// two products differ by the factor u^(exp−k) = e^((exp−k)·ln u) and a
// few ulps of rounding on each side: k−1 multiplications here, and
// math.Pow's own error. math/rand's Float64 returns 0 or at least
// 2^-63, so |ln u| ≤ 43.7 and the factor is within 4.4e-11 of 1. A u^k·n
// farther than a relative 1e-9 from every integer therefore truncates to
// the index math.Pow gives; nearer ones, and u = 0, call math.Pow. The
// margin holds for every positive double, whose |ln u| < 745 keeps the
// factor within 7.5e-10 of 1, and a u^k that underflows leaves u^k·n
// far below 1 on both paths.
func zipfIndex(u float64, n int, exp float64) int {
	if k := intExponent(exp); k > 0 && u > 0 {
		p := u
		for i := 1; i < k; i++ {
			p *= u
		}
		x := p * float64(n)
		if f := math.Floor(x); x-f > 1e-9*x && f+1-x > 1e-9*x {
			return min(int(f), n-1)
		}
	}
	idx := int(math.Pow(u, exp) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// ZipfSampler draws Zipf(g, n, s) for one domain n and skew s. It returns
// the index Zipf returns and consumes g exactly as Zipf does, but answers
// most draws from a table instead of math.Pow. A sampler is read-only
// once built, so the streams of one domain and skew may share it.
//
// The table holds bound[i] = (i/n)^(1/e), the least u whose u^e·n reaches
// i, with bound[0] = 0 and bound[n] = 1. guide[j] is the largest i with
// bound[i] ≤ j/n. A draw u starts at guide[⌊u·n⌋] and scans forward to
// the i with bound[i] ≤ u < bound[i+1]. The n slots of the guide hold n
// bounds in all, so a uniform u scans O(1) bounds in expectation, for any
// exponent.
//
// When u lies farther than a relative 1e-9 from both bounds, i is Zipf's
// index. A bound is within a few ulps of its true value. Every positive
// skew gives e > 1, so the margin puts ln(u^e·n) at least e·1e-9 from
// ln i and ln(i+1). math.Pow's error grows with the exponent too, but
// stays near e·2⁻⁵³ even where it squares repeatedly at huge exponents,
// far inside that margin. So math.Pow(u, e)·n truncates to i. Nearer
// draws, and u = 0, go through zipfIndex. This is zipfIndex's own
// margin.
type ZipfSampler struct {
	n     int
	exp   float64   // the Zipf exponent; 0 draws uniformly
	bound []float64 // n+1 index boundaries in u; nil without a table
	guide []int32   // per slot [j/n, (j+1)/n): the largest i with bound[i] ≤ j/n
}

// NewZipfSampler builds the sampler for a stream of draws draws from
// [0, n) at skew s. Building the table makes n−1 math.Pow calls and takes
// 12 bytes per index, so it is built only for a stream of at least n
// draws, which would make as many calls without it. A skew ≤ 0, or one
// whose exponent zipfIndex multiplies out, needs no table.
func NewZipfSampler(n int, s float64, draws int) *ZipfSampler {
	if n <= 0 {
		panic("sim: Zipf over empty domain")
	}
	z := &ZipfSampler{n: n}
	if s <= 0 {
		return z
	}
	z.exp = zipfExponent(s)
	if draws < n || n > math.MaxInt32 || intExponent(z.exp) > 0 {
		return z
	}
	z.bound = make([]float64, n+1)
	for i := 1; i < n; i++ {
		z.bound[i] = math.Pow(float64(i)/float64(n), 1/z.exp)
	}
	z.bound[n] = 1
	z.guide = make([]int32, n)
	i := 0
	for j := range z.guide {
		for z.bound[i+1] <= float64(j)/float64(n) {
			i++
		}
		z.guide[j] = int32(i)
	}
	return z
}

// Draw returns the index Zipf(g, n, s) would.
func (z *ZipfSampler) Draw(g *tensor.RNG) int {
	if z.exp == 0 {
		return g.Intn(z.n)
	}
	u := g.Float64()
	if z.bound == nil {
		return zipfIndex(u, z.n, z.exp)
	}
	return z.lookup(u)
}

// lookup maps a uniform draw u in [0, 1) to zipfIndex(u, n, exp) through
// the table.
func (z *ZipfSampler) lookup(u float64) int {
	b := z.bound
	i := int(z.guide[min(int(u*float64(z.n)), z.n-1)])
	for b[i+1] <= u {
		i++
	}
	if u-b[i] > 1e-9*u && b[i+1]-u > 1e-9*u {
		return i
	}
	return zipfIndex(u, z.n, z.exp)
}
