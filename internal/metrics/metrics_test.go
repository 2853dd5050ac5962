package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestF1Basics(t *testing.T) {
	if F1(nil, nil) != 1 {
		t.Fatal("empty vs empty must be 1")
	}
	if F1([]string{"a"}, nil) != 0 || F1(nil, []string{"a"}) != 0 {
		t.Fatal("empty vs non-empty must be 0")
	}
	if F1([]string{"paris"}, []string{"paris"}) != 1 {
		t.Fatal("exact match must be 1")
	}
	if F1([]string{"london"}, []string{"paris"}) != 0 {
		t.Fatal("disjoint must be 0")
	}
	// Half overlap: pred {a,b}, ref {a}: P=0.5 R=1 → F1=2/3.
	if !eq(F1([]string{"a", "b"}, []string{"a"}), 2.0/3, 1e-9) {
		t.Fatal("partial overlap F1 wrong")
	}
}

func TestF1Multiset(t *testing.T) {
	// Repeated tokens only count as often as they appear in the reference.
	got := F1([]string{"a", "a", "a"}, []string{"a"})
	want := 2 * (1.0 / 3) * 1.0 / (1.0/3 + 1.0)
	if !eq(got, want, 1e-9) {
		t.Fatalf("multiset F1 = %v want %v", got, want)
	}
}

func TestF1Symmetry(t *testing.T) {
	f := func(a, b []string) bool {
		return eq(F1(a, b), F1(b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRougeLBasics(t *testing.T) {
	if RougeL(nil, nil) != 1 {
		t.Fatal("empty vs empty must be 1")
	}
	if RougeL(strings.Fields("a b c"), strings.Fields("a b c")) != 1 {
		t.Fatal("identical must be 1")
	}
	if RougeL(strings.Fields("x y"), strings.Fields("a b")) != 0 {
		t.Fatal("disjoint must be 0")
	}
	// pred "a c", ref "a b c": LCS=2, P=1, R=2/3 → 0.8
	if !eq(RougeL(strings.Fields("a c"), strings.Fields("a b c")), 0.8, 1e-9) {
		t.Fatal("RougeL value wrong")
	}
}

func TestRougeLOrderSensitive(t *testing.T) {
	ref := strings.Fields("a b c d")
	inOrder := RougeL(strings.Fields("a b d"), ref)
	shuffled := RougeL(strings.Fields("d b a"), ref)
	if inOrder <= shuffled {
		t.Fatalf("Rouge-L must reward order: %v vs %v", inOrder, shuffled)
	}
}

func TestLCSKnown(t *testing.T) {
	if lcs(strings.Fields("a b c b d a b"), strings.Fields("b d c a b a")) != 4 {
		t.Fatal("lcs of classic example must be 4")
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	if !eq(Spearman(x, y), 1, 1e-9) {
		t.Fatal("monotone increasing must give 1")
	}
	yr := []float64{50, 40, 30, 20, 10}
	if !eq(Spearman(x, yr), -1, 1e-9) {
		t.Fatal("monotone decreasing must give -1")
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties the coefficient stays in [-1, 1] and equal vectors give 1.
	x := []float64{1, 2, 2, 3}
	if !eq(Spearman(x, x), 1, 1e-9) {
		t.Fatal("self correlation with ties must be 1")
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if Spearman([]float64{1}, []float64{1}) != 0 {
		t.Fatal("length-1 must be 0")
	}
	if Spearman([]float64{1, 2}, []float64{3}) != 0 {
		t.Fatal("length mismatch must be 0")
	}
	if Spearman([]float64{2, 2, 2}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant input must be 0")
	}
}

func TestSpearmanRange(t *testing.T) {
	f := func(seed int64) bool {
		// Deterministic pseudo-random vectors from the seed.
		n := 20
		x := make([]float64, n)
		y := make([]float64, n)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%1000) / 1000
		}
		for i := range x {
			x[i] = next()
			y[i] = next()
		}
		r := Spearman(x, y)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if Mean([]float64{}) != 0 {
		t.Fatal("empty non-nil mean must be 0")
	}
	if Mean([]float64{7.25}) != 7.25 {
		t.Fatal("single-element mean must be the element")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

// TestMeanPercentileDegenerate pins the empty- and single-element-slice
// contract the serving runtime's decode metrics rely on: a stream of
// zero-generation requests yields no TBT samples (empty → 0 everywhere)
// and a one-token generation yields exactly one (singleton → that element
// for every p).
func TestMeanPercentileDegenerate(t *testing.T) {
	for _, p := range []float64{-10, 0, 1, 50, 95, 100, 250} {
		if got := Percentile(nil, p); got != 0 {
			t.Fatalf("Percentile(nil, %v) = %v, want 0", p, got)
		}
		if got := Percentile([]float64{}, p); got != 0 {
			t.Fatalf("Percentile(empty, %v) = %v, want 0", p, got)
		}
		if got := Percentile([]float64{3.5}, p); got != 3.5 {
			t.Fatalf("Percentile([3.5], %v) = %v, want 3.5", p, got)
		}
	}
	// p clamps to the order statistics' range on larger slices too.
	x := []float64{2, 1}
	if Percentile(x, -5) != 1 || Percentile(x, 400) != 2 {
		t.Fatal("out-of-range p must clamp to min/max")
	}
	// A NaN p has no rank: NaN for any sample, still 0 for none.
	for _, xs := range [][]float64{{3.5}, x} {
		if got := Percentile(xs, math.NaN()); !math.IsNaN(got) {
			t.Fatalf("Percentile(%v, NaN) = %v, want NaN", xs, got)
		}
	}
	if got := Percentile(nil, math.NaN()); got != 0 {
		t.Fatalf("Percentile(nil, NaN) = %v, want 0", got)
	}
	// The input slice is never mutated (Percentile selects from a copy).
	if x[0] != 2 || x[1] != 1 {
		t.Fatal("Percentile mutated its input")
	}
}

// percentileSorted is Percentile as it was before it stopped sorting: a
// sorted copy, interpolated. FuzzPercentile holds Percentile to it.
func percentileSorted(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// specialValues are the samples FuzzPercentile mixes in: NaN, both
// infinities and zeros, and the extremes of the float64 range.
var specialValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}

// FuzzPercentile checks that Percentile returns what interpolating a
// sorted copy returns — equal under ==, or NaN for both — and never
// modifies its input; and that a Runs log fed the same samples in order
// returns the same Len, Mean (bit for bit, or NaN for both) and
// Percentile (under the same rule, and at p ≤ 0 and p ≥ 100 bit for bit
// unless both are NaN, so signed zeros show). The fuzzer picks a sample
// of 0 to 2000 values, how many of them are special values, how many
// distinct values the rest tie on (0 = no ties), the sample's layout (as
// drawn, ascending, descending, or ascending runs of 50, like a run's
// time-ordered latencies) and p in [-10, 110].
func FuzzPercentile(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(0), uint8(0), uint16(600))       // empty
	f.Add(int64(2), uint16(1), uint8(0), uint8(0), uint8(0), uint16(1050))      // one sample
	f.Add(int64(3), uint16(2), uint8(0), uint8(0), uint8(0), uint16(850))       // two samples, p 75
	f.Add(int64(4), uint16(1000), uint8(0), uint8(0), uint8(0), uint16(1050))   // p 95, no ties
	f.Add(int64(5), uint16(2000), uint8(3), uint8(0), uint8(0), uint16(600))    // median of three values
	f.Add(int64(6), uint16(2000), uint8(1), uint8(0), uint8(0), uint16(1097))   // all equal
	f.Add(int64(7), uint16(1500), uint8(20), uint8(64), uint8(0), uint16(1051)) // ties and specials
	f.Add(int64(8), uint16(300), uint8(0), uint8(255), uint8(0), uint16(377))   // specials only
	f.Add(int64(9), uint16(999), uint8(5), uint8(16), uint8(0), uint16(0))      // p -10
	f.Add(int64(10), uint16(999), uint8(5), uint8(16), uint8(0), uint16(1200))  // p 110
	f.Add(int64(11), uint16(64), uint8(2), uint8(128), uint8(0), uint16(100))   // p 0
	f.Add(int64(12), uint16(64), uint8(2), uint8(128), uint8(0), uint16(1100))  // p 100
	f.Add(int64(13), uint16(2000), uint8(0), uint8(8), uint8(1), uint16(1050))  // ascending
	f.Add(int64(14), uint16(2000), uint8(0), uint8(0), uint8(2), uint16(1050))  // descending
	f.Add(int64(15), uint16(2000), uint8(9), uint8(0), uint8(3), uint16(1049))  // runs

	f.Fuzz(func(t *testing.T, seed int64, rawN uint16, ties, specials, layout uint8, rawP uint16) {
		checkPercentile(t, seed, int(rawN%2001), ties, specials, layout, float64(rawP%1201)/10-10)
	})
}

// TestPercentileMatchesSort runs FuzzPercentile's check over a fixed grid
// of sizes, value mixes, layouts and percentiles.
func TestPercentileMatchesSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 601, 1034, 2000} {
		for _, ties := range []uint8{0, 3} {
			for _, specials := range []uint8{0, 16} {
				for layout := uint8(0); layout < 4; layout++ {
					for _, p := range []float64{-10, 0, 4.5, 25, 50, 75, 90, 95, 99, 100, 110} {
						checkPercentile(t, int64(n)+int64(p), n, ties, specials, layout, p)
					}
				}
			}
		}
	}
}

// checkPercentile draws a sample of n values from seed — specials/256 of
// them special values, the rest tied on `ties` distinct values (0 = no
// ties), laid out as drawn, ascending, descending or in ascending runs of
// 50 — and checks Percentile against percentileSorted at p.
func checkPercentile(t *testing.T, seed int64, n int, ties, specials, layout uint8, p float64) {
	t.Helper()
	g := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		switch {
		case g.Intn(256) < int(specials):
			x[i] = specialValues[g.Intn(len(specialValues))]
		case ties > 0:
			// Tenths are inexact, so repeated adds round unlike a multiply.
			x[i] = (float64(g.Intn(int(ties))) - float64(ties)/2) / 10
		default:
			x[i] = g.NormFloat64() * 1e3
		}
	}
	switch layout % 4 {
	case 1:
		sort.Float64s(x)
	case 2:
		sort.Sort(sort.Reverse(sort.Float64Slice(x)))
	case 3:
		for i := 0; i < n; i += 50 {
			sort.Float64s(x[i:min(i+50, n)])
		}
	}
	orig := append([]float64(nil), x...)
	got := Percentile(x, p)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("Percentile mutated x[%d]: %v -> %v", i, orig[i], x[i])
		}
	}
	want := percentileSorted(x, p)
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("Percentile(n=%d, layout=%d, p=%v) = %v, sorted copy gives %v", n, layout%4, p, got, want)
	}
	var r Runs
	for _, v := range x {
		r.Add(v)
	}
	if r.Len() != n {
		t.Fatalf("Runs.Len() = %d after %d samples", r.Len(), n)
	}
	// NaN payloads follow operand order, which the compiler may commute.
	if rm, m := r.Mean(), Mean(x); math.Float64bits(rm) != math.Float64bits(m) && !(math.IsNaN(rm) && math.IsNaN(m)) {
		t.Fatalf("Runs.Mean(n=%d, layout=%d) = %v, Mean gives %v", n, layout%4, rm, m)
	}
	rp := r.Percentile(p)
	if rp != want && !(math.IsNaN(rp) && math.IsNaN(want)) {
		t.Fatalf("Runs.Percentile(n=%d, layout=%d, p=%v) = %v, sorted copy gives %v", n, layout%4, p, rp, want)
	}
	if (p <= 0 || p >= 100) && math.Float64bits(rp) != math.Float64bits(got) && !(math.IsNaN(rp) && math.IsNaN(got)) {
		t.Fatalf("Runs.Percentile(n=%d, layout=%d, p=%v) = %v (bits %x), Percentile gives %v (bits %x)",
			n, layout%4, p, rp, math.Float64bits(rp), got, math.Float64bits(got))
	}
}

// TestRuns pins the run log on the cases FuzzPercentile reaches only by
// chance: a long run of an inexact value, whose repeated adds Mean must
// reproduce rather than multiply out, and signed zeros, which compare
// equal but must stay distinct runs so the extremes keep their signs.
func TestRuns(t *testing.T) {
	var r Runs
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 0.1
		r.Add(0.1)
	}
	if r.Mean() != Mean(x) || r.Mean() == 0.1 {
		t.Fatalf("Mean of 1000 × 0.1 = %v, want Mean's %v (repeated adds, not 0.1)", r.Mean(), Mean(x))
	}
	if r.Len() != 1000 || r.Percentile(95) != 0.1 {
		t.Fatalf("Len %d, p95 %v", r.Len(), r.Percentile(95))
	}
	negZero := math.Copysign(0, -1)
	for _, zs := range [][]float64{{negZero, 0}, {0, negZero}, {negZero, negZero, 0, 0}} {
		var z Runs
		for _, v := range zs {
			z.Add(v)
		}
		for _, p := range []float64{0, 100} {
			if got, want := z.Percentile(p), Percentile(zs, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v: Runs.Percentile(%v) = %v, Percentile gives %v", zs, p, got, want)
			}
		}
	}
	var empty Runs
	if empty.Len() != 0 || empty.Mean() != 0 || empty.Percentile(50) != 0 {
		t.Fatal("an empty log must report 0")
	}
	if !math.IsNaN(r.Percentile(math.NaN())) {
		t.Fatal("a NaN p must return NaN")
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if Percentile(x, 0) != 1 || Percentile(x, 100) != 5 {
		t.Fatal("extremes wrong")
	}
	if Percentile(x, 50) != 3 {
		t.Fatal("median wrong")
	}
	if !eq(Percentile(x, 25), 2, 1e-9) {
		t.Fatal("p25 wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	// Interpolation between order statistics.
	if !eq(Percentile([]float64{0, 10}, 75), 7.5, 1e-9) {
		t.Fatal("interpolated percentile wrong")
	}
}

func TestCDF(t *testing.T) {
	c := CDF([]float64{3, 1, 2})
	if len(c) != 3 || c[0].X != 1 || c[2].X != 3 {
		t.Fatalf("CDF not sorted: %+v", c)
	}
	if !eq(c[0].P, 1.0/3, 1e-9) || !eq(c[2].P, 1, 1e-9) {
		t.Fatalf("CDF probabilities wrong: %+v", c)
	}
	if CDFAt(c, 0.5) != 0 {
		t.Fatal("below min must be 0")
	}
	if !eq(CDFAt(c, 2.5), 2.0/3, 1e-9) {
		t.Fatal("interpolated CDF wrong")
	}
	if CDFAt(c, 99) != 1 {
		t.Fatal("above max must be 1")
	}
	if CDFAt(nil, 1) != 0 {
		t.Fatal("empty CDF must be 0")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if c := h.Counts(); h.Mean() != 0 || c == nil || len(c) != 0 {
		t.Fatalf("zero-value histogram: Mean %v, Counts %#v; want 0 and an empty map", h.Mean(), c)
	}
	// 63 is the last array-counted value; 64, 65 and -3 take the map.
	obs := []int{1, 1, 2, 4, 4, 4, 0, 63, 64, 64, 65, -3}
	sum := 0
	for _, v := range obs {
		h.Observe(v)
		sum += v
	}
	want := map[int]int64{0: 1, 1: 2, 2: 1, 4: 3, 63: 1, 64: 2, 65: 1, -3: 1}
	if got := h.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %v, want %v", got, want)
	}
	if s := FormatCounts(h.Counts()); s != "-3:1 0:1 1:2 2:1 4:3 63:1 64:2 65:1" {
		t.Fatalf("FormatCounts = %q", s)
	}
	if !eq(h.Mean(), float64(sum)/float64(len(obs)), 1e-12) {
		t.Fatalf("Mean = %v, want %v", h.Mean(), float64(sum)/float64(len(obs)))
	}
	c := h.Counts()
	c[1], c[64] = 99, 99 // mutating the copy must not touch the histogram
	if got := h.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts() returned a live reference: %v", got)
	}
}

func TestUtilization(t *testing.T) {
	cases := []struct{ busy, total, want float64 }{
		{0, 10, 0},
		{5, 10, 0.5},
		{10, 10, 1},
		{15, 10, 1}, // clamp high
		{-1, 10, 0}, // clamp low
		{1, 0, 0},   // no elapsed time
	}
	for _, c := range cases {
		if got := Utilization(c.busy, c.total); !eq(got, c.want, 1e-12) {
			t.Fatalf("Utilization(%v, %v) = %v, want %v", c.busy, c.total, got, c.want)
		}
	}
}

func TestCoefVar(t *testing.T) {
	if got := CoefVar([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant sample CV = %v, want 0", got)
	}
	// Population std of {1,3} is 1, mean 2 → CV 0.5.
	if got := CoefVar([]float64{1, 3}); !eq(got, 0.5, 1e-12) {
		t.Fatalf("CV({1,3}) = %v, want 0.5", got)
	}
	// Degenerate inputs: too short or zero mean.
	if CoefVar(nil) != 0 || CoefVar([]float64{7}) != 0 || CoefVar([]float64{-1, 1}) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
}
