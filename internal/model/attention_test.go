package model

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// axpy is the per-row value oracle the attention value sums are checked
// against: y += alpha·x, one row at a time.
func axpy(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// sameBits reports whether a and b hold exactly the same float32 bits.
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

// spreadMatrix returns a rows×cols matrix of normal samples scaled across
// six orders of magnitude, so summing its entries in another order rounds
// differently.
func spreadMatrix(seed int64, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	tensor.NewRNG(seed).FillNormal(m, 1)
	for i := range m.Data {
		m.Data[i] *= float32(math.Pow(10, float64(i%7-3)))
	}
	return m
}

// TestScoreKeysMatchesDot checks the score loop bit-for-bit against one
// tensor.Dot per key, on queries holding zeros, negative zeros and
// negative entries and on a dense query, at key counts that are and are
// not multiples of four, and at every KV-head offset.
func TestScoreKeysMatchesDot(t *testing.T) {
	const d, kvHeads, keys = 8, 3, 14
	negZero := float32(math.Copysign(0, -1))
	K := spreadMatrix(3, keys, kvHeads*d)
	g := tensor.NewRNG(4)
	dense := make([]float32, d)
	for i := range dense {
		dense[i] = g.Normal(0, 2)
	}
	queries := [][]float32{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{negZero, 0, negZero, 0, 0, negZero, 0, 0},
		{0, 0, 0, -1.75, 0, 0, 0, 0},
		{3.5, negZero, 0, -2.25, 0, 1e-3, negZero, -7},
		{-4, 0.5, -1e-2, 6, 0, 0, 0.125, 30},
		dense,
	}
	scale := float32(1 / math.Sqrt(d))
	want := make([]float32, keys)
	got := make([]float32, keys)
	for qi, q := range queries {
		dims := nonzeros(make([]int, d), q)
		for n := 0; n <= keys; n++ {
			for off := 0; off < kvHeads*d; off += d {
				for k := 0; k < n; k++ {
					want[k] = tensor.Dot(q, K.Row(k)[off:off+d]) * scale
				}
				scoreKeysAt(got[:n], q, dims, K, off, scale)
				if !sameBits(got[:n], want[:n]) {
					t.Fatalf("query %d, %d keys, offset %d: scoreKeysAt %v, want %v", qi, n, off, got[:n], want[:n])
				}
			}
		}
	}
}

// TestSumValuesMatchesAXPY checks the value loop bit-for-bit against one
// axpy per nonzero weight in ascending row order, over read-dim sets that
// are empty, single, scattered and full, with weights holding zeros and
// at row counts that are and are not multiples of four. Dims outside the
// read set must keep their starting values.
func TestSumValuesMatchesAXPY(t *testing.T) {
	const d, kvHeads, keys = 8, 2, 15
	negZero := float32(math.Copysign(0, -1))
	V := spreadMatrix(5, keys, kvHeads*d)
	w := make([]float32, keys)
	g := tensor.NewRNG(6)
	for i := range w {
		switch i % 5 {
		case 1:
			w[i] = 0
		case 3:
			w[i] = negZero
		default:
			w[i] = float32(g.Float64() * math.Pow(10, float64(i%4-2)))
		}
	}
	start := make([]float32, d)
	for i := range start {
		start[i] = g.Normal(0, 1)
	}
	start[2] = negZero
	readSets := [][]int{{}, {5}, {0, 3, 4, 7}, {0, 1, 2, 3, 4, 5, 6, 7}}
	for n := 0; n <= keys; n++ {
		rows := nonzeros(make([]int, n), w[:n])
		for off := 0; off < kvHeads*d; off += d {
			want := append([]float32(nil), start...)
			for k := 0; k < n; k++ {
				if w[k] != 0 {
					axpy(w[k], V.Row(k)[off:off+d], want)
				}
			}
			for _, read := range readSets {
				got := append([]float32(nil), start...)
				sumValuesAt(got, read, w, rows, V, off)
				exp := append([]float32(nil), start...)
				for _, i := range read {
					exp[i] = want[i]
				}
				if !sameBits(got, exp) {
					t.Fatalf("%d rows, offset %d, read %v: sumValuesAt %v, want %v", n, off, read, got, exp)
				}
			}
		}
	}
}

func TestNonzerosSkipsSignedZeros(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	x := []float32{0, -3, negZero, 2, 0, 1e-30, negZero}
	got := nonzeros(make([]int, 0, len(x)), x)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("nonzeros %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nonzeros %v, want %v", got, want)
		}
	}
}

// TestReadDimsFollowWo checks the per-head read-dim index against a direct
// scan of Wo: a head-output dim is read exactly when its Wo row holds a
// nonzero; a row of signed zeros counts as unread.
func TestReadDimsFollowWo(t *testing.T) {
	m := NewZero(testCfg)
	hd := testCfg.HeadDim
	wo := m.Layer[1].Wo
	wo.Set(0*hd+3, 5, 1)
	wo.Set(2*hd+0, 0, -2)
	wo.Set(2*hd+7, 9, 0.5)
	wo.Set(2*hd+4, 1, float32(math.Copysign(0, -1)))
	for li := range m.Layer {
		read := m.index().layer[li].read
		if len(read) != testCfg.Heads {
			t.Fatalf("layer %d: %d read sets, want %d", li, len(read), testCfg.Heads)
		}
		for hh := 0; hh < testCfg.Heads; hh++ {
			var want []int
			for i := 0; i < hd; i++ {
				if tensor.L2(m.Layer[li].Wo.Row(hh*hd+i)) != 0 {
					want = append(want, i)
				}
			}
			if len(read[hh]) != len(want) {
				t.Fatalf("layer %d head %d: read dims %v, want %v", li, hh, read[hh], want)
			}
			for i := range want {
				if read[hh][i] != want[i] {
					t.Fatalf("layer %d head %d: read dims %v, want %v", li, hh, read[hh], want)
				}
			}
		}
	}
}
