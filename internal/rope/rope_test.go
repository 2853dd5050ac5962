package rope

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randomVec(g *tensor.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = g.Normal(0, 1)
	}
	return v
}

func TestNewTablePanicsOnOddDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd head dim")
		}
	}()
	NewTable(7, 10000)
}

func TestApplyAtZeroIsIdentity(t *testing.T) {
	tab := NewTable(8, 10000)
	g := tensor.NewRNG(1)
	v := randomVec(g, 8)
	w := append([]float32(nil), v...)
	tab.Apply(w, 0)
	for i := range v {
		if math.Abs(float64(v[i]-w[i])) > 1e-7 {
			t.Fatalf("Apply at pos 0 must be identity: %v vs %v", v, w)
		}
	}
}

func TestApplyPreservesNorm(t *testing.T) {
	tab := NewTable(16, 10000)
	f := func(seed int64, pos uint16) bool {
		g := tensor.NewRNG(seed)
		v := randomVec(g, 16)
		before := tensor.L2(v)
		tab.Apply(v, int(pos))
		return math.Abs(tensor.L2(v)-before) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftEqualsApplyAtTarget(t *testing.T) {
	// The positional-recovery property: applying RoPE at position m and then
	// shifting m→m' must equal applying RoPE at m' directly.
	tab := NewTable(32, 10000)
	f := func(seed int64, m8, mp8 uint8) bool {
		m, mp := int(m8), int(mp8)
		g := tensor.NewRNG(seed)
		raw := randomVec(g, 32)

		shifted := append([]float32(nil), raw...)
		tab.Apply(shifted, m)
		tab.Shift(shifted, m, mp)

		direct := append([]float32(nil), raw...)
		tab.Apply(direct, mp)

		return tensor.MaxAbsDiff(shifted, direct) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreDependsOnlyOnRelativePosition(t *testing.T) {
	// Proposition A.1: q(m+l)·k(m) depends only on l.
	tab := NewTable(16, 10000)
	g := tensor.NewRNG(7)
	q := randomVec(g, 16)
	k := randomVec(g, 16)
	l := 5
	ref := tab.Score(q, k, 0+l, 0)
	for _, m := range []int{1, 13, 100, 999} {
		got := tab.Score(q, k, m+l, m)
		if math.Abs(got-ref) > 1e-3 {
			t.Fatalf("score at offset m=%d is %v, want %v (relative-position invariance)", m, got, ref)
		}
	}
}

func TestRotationMatrixMatchesApply(t *testing.T) {
	// The explicit Appendix-A matrix and the fast pairwise rotation must
	// agree exactly.
	tab := NewTable(8, 10000)
	g := tensor.NewRNG(3)
	for _, pos := range []int{0, 1, 7, 250} {
		v := randomVec(g, 8)
		fast := append([]float32(nil), v...)
		tab.Apply(fast, pos)

		rm := tab.RotationMatrix(pos)
		slow := make([]float32, 8)
		for i := 0; i < 8; i++ {
			var s float64
			for j := 0; j < 8; j++ {
				s += float64(rm[i*8+j]) * float64(v[j])
			}
			slow[i] = float32(s)
		}
		if tensor.MaxAbsDiff(fast, slow) > 1e-5 {
			t.Fatalf("pos %d: pairwise %v vs matrix %v", pos, fast, slow)
		}
	}
}

func TestShiftComposition(t *testing.T) {
	// Shift(a→b) followed by Shift(b→c) equals Shift(a→c).
	tab := NewTable(16, 10000)
	g := tensor.NewRNG(11)
	v := randomVec(g, 16)
	tab.Apply(v, 10)

	two := append([]float32(nil), v...)
	tab.Shift(two, 10, 40)
	tab.Shift(two, 40, 25)

	one := append([]float32(nil), v...)
	tab.Shift(one, 10, 25)

	if tensor.MaxAbsDiff(two, one) > 1e-4 {
		t.Fatalf("shift composition broken: %v vs %v", two, one)
	}
}

func TestDifferentBasesDiffer(t *testing.T) {
	a := NewTable(8, 10000)
	b := NewTable(8, 500000)
	g := tensor.NewRNG(5)
	v := randomVec(g, 8)
	va := append([]float32(nil), v...)
	vb := append([]float32(nil), v...)
	a.Apply(va, 100)
	b.Apply(vb, 100)
	if tensor.MaxAbsDiff(va, vb) < 1e-6 {
		t.Fatal("different RoPE bases should rotate differently")
	}
	if a.Base() != 10000 || b.Base() != 500000 {
		t.Fatal("Base accessor wrong")
	}
	if a.HeadDim() != 8 {
		t.Fatal("HeadDim accessor wrong")
	}
}

func TestApplyLengthPanic(t *testing.T) {
	tab := NewTable(8, 10000)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong vector length")
		}
	}()
	tab.Apply(make([]float32, 6), 1)
}

// TestRotateMatchesApplyAndShift checks that rotating by precomputed
// angles gives exactly the bits of Apply and Shift, at positive, zero and
// negative positions and deltas, on vectors holding signed zeros.
func TestRotateMatchesApplyAndShift(t *testing.T) {
	tab := NewTable(8, 10000)
	negZero := float32(math.Copysign(0, -1))
	g := tensor.NewRNG(5)
	vecs := [][]float32{
		randomVec(g, 8),
		{0, negZero, negZero, 0, 1.5, negZero, -2, 0},
		{negZero, negZero, 0, 0, negZero, 3, 0, -0.25},
	}
	same := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	cs := make([]float32, 8)
	for _, pos := range []int{-1000, -7, -1, 0, 1, 3, 512, 4097} {
		tab.Angles(cs, pos)
		for vi, v := range vecs {
			want := append([]float32(nil), v...)
			tab.Apply(want, pos)
			got := append([]float32(nil), v...)
			Rotate(got, cs)
			if !same(got, want) {
				t.Fatalf("pos %d vector %d: Rotate %v, Apply %v", pos, vi, got, want)
			}
			from := 11
			want = append(want[:0], v...)
			tab.Shift(want, from, from+pos)
			if !same(got, want) {
				t.Fatalf("delta %d vector %d: Rotate %v, Shift %v", pos, vi, got, want)
			}
		}
	}
}

func TestAnglesAndRotatePanicOnLength(t *testing.T) {
	tab := NewTable(8, 10000)
	for name, f := range map[string]func(){
		"Angles": func() { tab.Angles(make([]float32, 6), 1) },
		"Rotate": func() { Rotate(make([]float32, 8), make([]float32, 6)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a length panic", name)
				}
			}()
			f()
		}()
	}
}
