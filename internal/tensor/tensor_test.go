package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrom(2, 2, []float32{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2)=%v want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row aliasing broken: %v", row)
	}
	row[0] = 3
	if m.At(1, 0) != 3 {
		t.Fatal("Row must alias storage")
	}
}

// vecMatDense is the dense vector-matrix product VecMatInto replaces: the
// oracle its bit-identity is checked against.
func vecMatDense(x []float32, a *Matrix) []float32 {
	out := make([]float32, a.Cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.Row(i)
		for j := range out {
			out[j] += xv * row[j]
		}
	}
	return out
}

func vecMat(x []float32, a *Matrix) []float32 {
	out := make([]float32, a.Cols)
	VecMatInto(out, x, a, NewRuns(a))
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestVecMatIntoKnown(t *testing.T) {
	a := NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	got := vecMat([]float32{7, 8}, a)
	want := []float32{39, 54, 69}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("out[%d]=%v want %v", i, got[i], w)
		}
	}
}

func TestVecMatIntoIdentity(t *testing.T) {
	g := NewRNG(1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	x := make([]float32, 4)
	for i := range x {
		x[i] = g.Normal(0, 1)
	}
	if got := vecMat(x, id); !sameBits(got, x) {
		t.Fatalf("identity multiply changed %v into %v", x, got)
	}
}

func TestVecMatIntoShapePanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	w := New(2, 3)
	r := NewRuns(w)
	mustPanic("short x", func() { VecMatInto(make([]float32, 3), make([]float32, 1), w, r) })
	mustPanic("short dst", func() { VecMatInto(make([]float32, 2), make([]float32, 2), w, r) })
	mustPanic("foreign index", func() { VecMatInto(make([]float32, 3), make([]float32, 2), w, NewRuns(New(3, 3))) })
}

// TestVecMatIntoMatchesDense checks VecMatInto against the dense loop bit
// for bit, on dense rows, identity-block rows, all-zero rows and rows with
// signed-zero weights, with negative, zero and negative-zero inputs.
func TestVecMatIntoMatchesDense(t *testing.T) {
	g := NewRNG(3)
	const rows, cols = 24, 40
	negZero := float32(math.Copysign(0, -1))
	input := func() []float32 {
		x := make([]float32, rows)
		for i := range x {
			switch g.Intn(5) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = negZero
			case 2:
				x[i] = -4 * float32(g.Float64())
			default:
				x[i] = g.Normal(0, 3)
			}
		}
		return x
	}
	patterns := []struct {
		name string
		fill func(w *Matrix)
	}{
		{"dense", func(w *Matrix) { g.FillNormal(w, 1) }},
		{"identity-blocks", func(w *Matrix) {
			for i := 0; i < 8; i++ {
				w.Set(2+i, 5+i, 1.75)
				w.Set(12+i, 5+i, -3)
				w.Set(12+i, 30+i, 0.5)
			}
		}},
		{"all-zero", func(w *Matrix) {}},
		{"signed-zeros", func(w *Matrix) {
			for i := range w.Data {
				switch g.Intn(4) {
				case 0:
					w.Data[i] = negZero
				case 1:
					w.Data[i] = g.Normal(0, 1)
				}
			}
		}},
		{"zero-rows-between-dense", func(w *Matrix) {
			for i := 0; i < rows; i += 3 {
				for j := range w.Row(i) {
					w.Row(i)[j] = g.Normal(0, 1)
				}
			}
		}},
	}
	for _, p := range patterns {
		w := New(rows, cols)
		p.fill(w)
		r := NewRuns(w)
		dst := make([]float32, cols)
		for trial := 0; trial < 50; trial++ {
			x := input()
			want := vecMatDense(x, w)
			VecMatInto(dst, x, w, r)
			if !sameBits(dst, want) {
				t.Fatalf("%s trial %d: VecMatInto differs from the dense loop:\n got %v\nwant %v", p.name, trial, dst, want)
			}
		}
	}
}

func TestNewRunsIndexesNonzeroColumns(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	w := NewFrom(3, 6, []float32{
		0, 1, 2, 0, 0, 3,
		0, 0, negZero, 0, 0, 0,
		4, 5, 6, 7, 8, 9,
	})
	r := NewRuns(w)
	if got, want := r.NonzeroRows(), []int{0, 2}; len(got) != len(want) || got[0] != 0 || got[1] != 2 {
		t.Fatalf("nonzero rows %v, want %v", got, want)
	}
	want := []int{1, 3, 5, 6, 0, 6}
	if len(r.bounds) != len(want) {
		t.Fatalf("bounds %v, want %v", r.bounds, want)
	}
	for i := range want {
		if r.bounds[i] != want[i] {
			t.Fatalf("bounds %v, want %v", r.bounds, want)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	Softmax(x)
	var sum float64
	prev := float64(-1)
	for _, v := range x {
		if v < 0 || v > 1 {
			t.Fatalf("softmax out of range: %v", v)
		}
		if float64(v) < prev {
			t.Fatal("softmax must be monotone in inputs")
		}
		prev = float64(v)
		sum += float64(v)
	}
	if !almostEq(sum, 1, 1e-5) {
		t.Fatalf("softmax sum=%v", sum)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := []float32{1000, 1001, 1002}
	Softmax(x)
	var sum float64
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflow")
		}
		sum += float64(v)
	}
	if !almostEq(sum, 1, 1e-5) {
		t.Fatalf("softmax sum=%v", sum)
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	Softmax(nil) // must not panic
}

func TestSoftmaxSumProperty(t *testing.T) {
	f := func(in []float32) bool {
		if len(in) == 0 {
			return true
		}
		x := make([]float32, len(in))
		for i, v := range in {
			// Clamp to a sane range; quick generates extreme float32s.
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			if v > 100 {
				v = 100
			}
			if v < -100 {
				v = -100
			}
			x[i] = v
		}
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRMSNorm(t *testing.T) {
	x := []float32{3, 4}
	out := make([]float32, 2)
	RMSNorm(out, x, nil, 0)
	// rms = sqrt((9+16)/2) = sqrt(12.5)
	rms := math.Sqrt(12.5)
	if !almostEq(float64(out[0]), 3/rms, 1e-5) || !almostEq(float64(out[1]), 4/rms, 1e-5) {
		t.Fatalf("rmsnorm got %v", out)
	}
	// With gain.
	gain := []float32{2, 0.5}
	RMSNorm(out, x, gain, 0)
	if !almostEq(float64(out[0]), 2*3/rms, 1e-5) || !almostEq(float64(out[1]), 0.5*4/rms, 1e-5) {
		t.Fatalf("rmsnorm with gain got %v", out)
	}
}

func TestRMSNormUnitOutputNorm(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		x := make([]float32, 16)
		for i := range x {
			x[i] = g.Normal(0, 3)
		}
		out := make([]float32, 16)
		RMSNorm(out, x, nil, 1e-6)
		// After RMS norm the mean square is ~1, so L2 ≈ sqrt(n).
		return almostEq(L2(out), math.Sqrt(16), 0.05)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSiLU(t *testing.T) {
	x := []float32{0}
	SiLU(x)
	if x[0] != 0 {
		t.Fatalf("silu(0)=%v", x[0])
	}
	x = []float32{10}
	SiLU(x)
	if !almostEq(float64(x[0]), 10, 1e-3) {
		t.Fatalf("silu(10)=%v want ≈10", x[0])
	}
	x = []float32{-10}
	SiLU(x)
	if !almostEq(float64(x[0]), 0, 1e-3) {
		t.Fatalf("silu(-10)=%v want ≈0", x[0])
	}
}

func TestArgmax(t *testing.T) {
	if Argmax(nil) != -1 {
		t.Fatal("argmax(nil) != -1")
	}
	if Argmax([]float32{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	// Tie breaks low.
	if Argmax([]float32{5, 5}) != 0 {
		t.Fatal("argmax tie must break low")
	}
}

func TestL2AndDiff(t *testing.T) {
	if !almostEq(L2([]float32{3, 4}), 5, 1e-9) {
		t.Fatal("L2 wrong")
	}
	if !almostEq(L2Diff([]float32{1, 1}, []float32{1, 1}), 0, 1e-9) {
		t.Fatal("L2Diff of equal vectors must be 0")
	}
	if !almostEq(L2Diff([]float32{0, 0}, []float32{3, 4}), 5, 1e-9) {
		t.Fatal("L2Diff wrong")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	got := MaxAbsDiff([]float32{1, 2, 3}, []float32{1, 5, 2})
	if !almostEq(got, 3, 1e-9) {
		t.Fatalf("MaxAbsDiff=%v want 3", got)
	}
}

func TestAddScale(t *testing.T) {
	y := []float32{7, 10}
	Add(y, []float32{1, 1})
	if y[0] != 8 || y[1] != 11 {
		t.Fatalf("add got %v", y)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).NewNormal(3, 3, 1)
	b := NewRNG(42).NewNormal(3, 3, 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must produce identical weights")
		}
	}
	c := NewRNG(43).NewNormal(3, 3, 1)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should produce different weights")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewFrom(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestVecMatIntoAssociativity(t *testing.T) {
	// xᵀ(A×B) == (xᵀA)×B — property test over random seeds, with A×B built
	// one row at a time.
	f := func(seed int64) bool {
		g := NewRNG(seed)
		a := g.NewNormal(4, 5, 1)
		b := g.NewNormal(5, 6, 1)
		ab := New(4, 6)
		for i := 0; i < a.Rows; i++ {
			VecMatInto(ab.Row(i), a.Row(i), b, NewRuns(b))
		}
		x := make([]float32, 4)
		for i := range x {
			x[i] = g.Normal(0, 1)
		}
		left := vecMat(x, ab)
		right := vecMat(vecMat(x, a), b)
		for i := range left {
			if !almostEq(float64(left[i]), float64(right[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
