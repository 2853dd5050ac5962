// Package metrics implements the evaluation metrics the paper reports:
// token-overlap F1 (QA), Rouge-L (summarisation), plus the statistical
// helpers used by the deviation studies (Spearman rank correlation, CDFs,
// percentiles).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// F1 returns the token-overlap F1 score between a predicted and a
// reference token sequence, the standard SQuAD-style measure the paper
// uses for 2WikiMQA and Musique. Multiset overlap: repeated tokens count
// as many times as they appear in both.
func F1(pred, ref []string) float64 {
	if len(pred) == 0 || len(ref) == 0 {
		if len(pred) == 0 && len(ref) == 0 {
			return 1
		}
		return 0
	}
	counts := map[string]int{}
	for _, t := range ref {
		counts[t]++
	}
	overlap := 0
	for _, t := range pred {
		if counts[t] > 0 {
			counts[t]--
			overlap++
		}
	}
	if overlap == 0 {
		return 0
	}
	precision := float64(overlap) / float64(len(pred))
	recall := float64(overlap) / float64(len(ref))
	return 2 * precision * recall / (precision + recall)
}

// RougeL returns the Rouge-L F-measure between a predicted and a reference
// token sequence: the harmonic mean of LCS-precision and LCS-recall, the
// measure the paper uses for SAMSum and MultiNews.
func RougeL(pred, ref []string) float64 {
	if len(pred) == 0 || len(ref) == 0 {
		if len(pred) == 0 && len(ref) == 0 {
			return 1
		}
		return 0
	}
	l := lcs(pred, ref)
	if l == 0 {
		return 0
	}
	precision := float64(l) / float64(len(pred))
	recall := float64(l) / float64(len(ref))
	return 2 * precision * recall / (precision + recall)
}

// lcs returns the length of the longest common subsequence using the
// rolling single-row DP.
func lcs(a, b []string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Spearman returns Spearman's rank correlation coefficient between two
// equal-length samples (the statistic of the paper's Figure 8). Ties get
// fractional (average) ranks. Returns 0 for degenerate inputs.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx := ranks(x)
	ry := ranks(y)
	return pearson(rx, ry)
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	out := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Mean returns the arithmetic mean. Degenerate inputs are well-defined —
// the serving runtime's decode metrics hit them routinely (a stream of
// zero-generation requests yields no TBT samples at all): an empty slice
// returns 0, a single-element slice returns that element.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// CoefVar returns the coefficient of variation (population std/mean) of
// x, or 0 when x is degenerate. It is the burstiness measure the workload
// generators are tested against: a Poisson process's inter-arrival gaps
// have CV ≈ 1, on/off (MMPP) arrivals push it well above.
func CoefVar(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	if m == 0 {
		return 0
	}
	var v float64
	for _, s := range x {
		d := s - m
		v += d * d
	}
	return math.Sqrt(v/float64(len(x))) / m
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between order statistics. Degenerate inputs are
// well-defined — the serving runtime's decode metrics hit them routinely
// (zero-generation requests produce no TBT samples, one decode step
// produces exactly one): an empty slice returns 0 for every p; otherwise
// a NaN p returns NaN, a single-element slice returns that element for
// every other p, and p is clamped to [0, 100] (p ≤ 0 returns the minimum,
// p ≥ 100 the maximum). NaN samples order below every number, as
// sort.Float64s orders them.
//
// x is not modified: Percentile selects the one or two order statistics
// it interpolates from a copy of x in linear expected time, and returns
// what interpolating a sorted copy would.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return p
	}
	s := append([]float64(nil), x...)
	// Move the NaNs to the front, where sorting would put them.
	nans := 0
	for i, v := range s {
		if v != v {
			s[i], s[nans] = s[nans], v
			nans++
		}
	}
	n := len(s)
	if p <= 0 {
		if nans > 0 {
			return s[0]
		}
		return slices.Min(s)
	}
	if p >= 100 {
		if nans == n {
			return s[n-1]
		}
		return slices.Max(s[nans:])
	}
	return interpolate(n, p, func(lo int) (float64, float64) {
		if lo < nans {
			return s[lo], s[lo] // NaN, and so is any interpolation with it
		}
		num, k := s[nans:], lo-nans
		selectNth(num, 0, len(num)-1, k)
		if k+1 == len(num) {
			return num[k], 0
		}
		// Everything after num[k] is ≥ it, so the next order statistic is
		// the smallest of them.
		return num[k], slices.Min(num[k+1:])
	})
}

// interpolate is the rank arithmetic Percentile and Runs.Percentile
// share: the p-th percentile (0 < p < 100) of n samples lies frac of the
// way from the lo-th smallest (counting from 0) to the next. stats(lo)
// returns those two order statistics; the second is read only when
// lo+1 < n.
func interpolate(n int, p float64, stats func(lo int) (float64, float64)) float64 {
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	a, b := stats(lo)
	if lo+1 >= n {
		return a
	}
	return a*(1-frac) + b*frac
}

// selectNth reorders s[left:right+1], which holds no NaN, so that s[k]
// is the value sorting that range would put there, no larger value
// precedes it and no smaller one follows. It is Floyd and Rivest's
// SELECT (CACM 18(3), 1975): a range over 600 long first selects k
// within a sample around k, sized n^(2/3), whose result is the pivot,
// so one partition pass usually leaves only a short range around k.
// After 2·log2(n) passes it sorts what remains, bounding the worst case
// at O(n log n).
func selectNth(s []float64, left, right, k int) {
	for budget := 2 * bits.Len(uint(right-left+1)); left < right; budget-- {
		if budget == 0 {
			sort.Float64s(s[left : right+1])
			return
		}
		if right-left > 600 {
			n := float64(right - left + 1)
			i := float64(k - left + 1)
			z := math.Log(n)
			size := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*size*(n-size)/n)
			if i < n/2 {
				sd = -sd
			}
			lo := max(left, int(math.Floor(float64(k)-i*size/n+sd)))
			hi := min(right, int(math.Floor(float64(k)+(n-i)*size/n+sd)))
			selectNth(s, lo, hi, k)
		}
		// Hoare partition around t = s[k]. After the first swap s[left]
		// ≤ t ≤ s[right], which stops both scans inside the range.
		t := s[k]
		i, j := left, right
		s[left], s[k] = s[k], s[left]
		if s[right] > t {
			s[left], s[right] = s[right], s[left]
		}
		for i < j {
			s[i], s[j] = s[j], s[i]
			i++
			j--
			for s[i] < t {
				i++
			}
			for s[j] > t {
				j--
			}
		}
		// Put t in its sorted place j.
		if s[left] == t {
			s[left], s[j] = s[j], s[left]
		} else {
			j++
			s[j], s[right] = s[right], s[j]
		}
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}

// Runs is a sample log kept as runs of consecutive, bitwise-equal values
// — the serving runtime's time-between-tokens log. Every decoding member
// of a step records the same sample, and decode-only steps at one batch
// width repeat their durations, so a decode-heavy run's ~10⁵ samples
// fold into ~10³ runs. Its Mean and Percentile equal Mean and
// Percentile over the samples in Add order. The zero value is an empty
// log.
type Runs struct {
	runs []run
	n    int
	sum  float64 // running sum in Add order: exactly Mean's additions
}

// run is one value repeated n times in a row.
type run struct {
	v float64
	n int
}

// Add appends one sample, extending the last run when v is bitwise equal
// to its value.
func (r *Runs) Add(v float64) {
	r.n++
	r.sum += v
	if k := len(r.runs) - 1; k >= 0 && math.Float64bits(r.runs[k].v) == math.Float64bits(v) {
		r.runs[k].n++
		return
	}
	r.runs = append(r.runs, run{v: v, n: 1})
}

// Len returns the number of samples added.
func (r *Runs) Len() int { return r.n }

// Mean returns the samples' arithmetic mean, 0 when empty. It makes the
// additions Mean makes over the samples in Add order, so it returns the
// same value.
func (r *Runs) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Percentile returns Percentile over the samples. It folds the runs
// into one count per distinct value, sorts the values in Percentile's
// order, and walks the counts to the order statistics it interpolates —
// so its cost follows the runs and the distinct values, not the samples.
// It follows Percentile's rules for an empty log, a NaN p, p ≤ 0 and
// p ≥ 100, and leaves the log unchanged.
func (r *Runs) Percentile(p float64) float64 {
	if r.n == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return p
	}
	counts := make(map[uint64]int)
	for _, rn := range r.runs {
		counts[orderKey(rn.v)] += rn.n
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if p <= 0 {
		return keyValue(keys[0])
	}
	if p >= 100 {
		return keyValue(keys[len(keys)-1])
	}
	return interpolate(r.n, p, func(lo int) (float64, float64) {
		i, below := 0, 0 // value i holds order statistics below … below+counts−1
		for below+counts[keys[i]] <= lo {
			below += counts[keys[i]]
			i++
		}
		a := keyValue(keys[i])
		if lo+1 < below+counts[keys[i]] || i+1 == len(keys) {
			return a, a
		}
		return a, keyValue(keys[i+1])
	})
}

// orderKey maps v to a key whose unsigned order is Percentile's: every
// NaN first (key 0, which no number maps to), then −Inf … −0, +0 … +Inf.
// −0 orders before +0, so the ends match slices.Min and slices.Max.
func orderKey(v float64) uint64 {
	if v != v {
		return 0
	}
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b // negative: a larger magnitude orders lower
	}
	return b | 1<<63
}

// keyValue inverts orderKey; key 0 stands for NaN.
func keyValue(k uint64) float64 {
	switch {
	case k == 0:
		return math.NaN()
	case k>>63 == 1:
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability at X
}

// CDF returns the empirical CDF of x as sorted (value, probability) pairs,
// one per sample.
func CDF(x []float64) []CDFPoint {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, v := range s {
		out[i] = CDFPoint{X: v, P: float64(i+1) / float64(len(s))}
	}
	return out
}

// Histogram counts integer-valued observations — the serving runtime
// uses it for batch-size distributions. The zero value is ready to use.
type Histogram struct {
	small  [histSmall]int64 // small[v] counts v for 0 ≤ v < histSmall
	counts map[int]int64    // every other value
	n, sum int64
}

// histSmall bounds the values Histogram counts in an array instead of a
// map; every batch cap in the repo is far below it.
const histSmall = 64

// Observe records one observation of v.
func (h *Histogram) Observe(v int) {
	if v >= 0 && v < histSmall {
		h.small[v]++
	} else {
		if h.counts == nil {
			h.counts = map[int]int64{}
		}
		h.counts[v]++
	}
	h.n++
	h.sum += int64(v)
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Counts returns the value→count map of every observed value; it is
// empty, not nil, when nothing was observed.
func (h *Histogram) Counts() map[int]int64 {
	out := make(map[int]int64, len(h.counts))
	for v, c := range h.small {
		if c > 0 {
			out[v] = c
		}
	}
	for v, c := range h.counts {
		out[v] = c
	}
	return out
}

// FormatCounts renders a value→count map as "v:count" pairs in ascending
// value order — the shared rendering for batch-size histograms.
func FormatCounts(counts map[int]int64) string {
	vals := make([]int, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	s := ""
	for i, v := range vals {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d", v, counts[v])
	}
	return s
}

// Ratio returns num/den as a float, or 0 when den is 0 — the shared
// guard for hit-rate style fractions (e.g. per-tier hits over lookups).
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Utilization returns busy/total, clamped to [0, 1] (0 when total ≤ 0) —
// the per-replica GPU utilization measure of the serving runtime.
func Utilization(busy, total float64) float64 {
	if total <= 0 {
		return 0
	}
	u := busy / total
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// CDFAt interpolates the cumulative probability of v on an empirical CDF.
func CDFAt(cdf []CDFPoint, v float64) float64 {
	if len(cdf) == 0 {
		return 0
	}
	if v < cdf[0].X {
		return 0
	}
	for i := len(cdf) - 1; i >= 0; i-- {
		if v >= cdf[i].X {
			return cdf[i].P
		}
	}
	return 0
}
