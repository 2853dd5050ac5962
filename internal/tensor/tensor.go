// Package tensor provides the small set of float32 linear-algebra kernels
// needed by the transformer substrate: row-major matrices, vector-matrix
// products over an index of nonzero weights, softmax, RMS normalisation and
// activation functions.
//
// The package is deliberately minimal — it is a substrate for a scaled-down
// but real transformer, not a general numerics library. All operations are
// deterministic; random initialisation takes an explicit seed.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
//
// The zero value is an empty matrix. Use New or NewFrom to construct one
// with a defined shape.
type Matrix struct {
	Rows int
	Cols int
	Data []float32
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewFrom wraps data as a rows×cols matrix without copying.
// len(data) must equal rows*cols.
func NewFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Runs indexes the nonzero entries of a matrix as maximal runs of
// consecutive nonzero columns in each row. The constructed QA model's
// weights (package qamodel) are almost entirely zero, so a product that
// visits only the runs skips nearly all of its work. A dense row is a
// single run spanning every column, so dense weights cost what a plain
// row-by-row product does.
//
// An index describes its matrix as it was when NewRuns built it: writes to
// the matrix afterwards make the index stale.
type Runs struct {
	rows, cols int
	// nonzero lists the rows holding at least one nonzero, ascending. The
	// runs of row nonzero[k] are the [lo, hi) column pairs in
	// bounds[start[k]:start[k+1]], two entries per run.
	nonzero []int
	start   []int
	bounds  []int
}

// NewRuns indexes the nonzero columns of every row of w.
func NewRuns(w *Matrix) *Runs {
	r := &Runs{rows: w.Rows, cols: w.Cols, start: []int{0}}
	for i := 0; i < w.Rows; i++ {
		row := w.Row(i)
		n := len(r.bounds)
		for j := 0; j < len(row); j++ {
			if row[j] == 0 {
				continue
			}
			lo := j
			for j < len(row) && row[j] != 0 {
				j++
			}
			r.bounds = append(r.bounds, lo, j)
		}
		if len(r.bounds) > n {
			r.nonzero = append(r.nonzero, i)
			r.start = append(r.start, len(r.bounds))
		}
	}
	return r
}

// NonzeroRows returns the rows of the indexed matrix that hold a nonzero,
// ascending: the only rows VecMatInto reads from w, and so the only
// entries of x it reads. The slice belongs to the index; do not modify it.
func (r *Runs) NonzeroRows() []int { return r.nonzero }

// VecMatInto computes dst = xᵀ×w, where len(x) = w.Rows, len(dst) = w.Cols
// and r = NewRuns(w). It visits only the runs of nonzero weights, yet each
// output still sums its terms over the rows of w in ascending order,
// starting from +0, as the dense row-by-row product does. For finite x the
// result is therefore bit-identical to that product: a skipped term is
// x·(±0) = ±0, and adding a signed zero to such a sum never changes it,
// because the sum is never -0 (an exact cancellation rounds to +0).
func VecMatInto(dst, x []float32, w *Matrix, r *Runs) {
	if len(x) != w.Rows || len(dst) != w.Cols || r.rows != w.Rows || r.cols != w.Cols {
		panic(fmt.Sprintf("tensor: vecmat shape mismatch %d × %dx%d (index %dx%d) into %d",
			len(x), w.Rows, w.Cols, r.rows, r.cols, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for k, i := range r.nonzero {
		xv := x[i]
		if xv == 0 {
			continue
		}
		row := w.Row(i)
		for b := r.bounds[r.start[k]:r.start[k+1]]; len(b) >= 2; b = b[2:] {
			out := dst[b[0]:b[1]]
			in := row[b[0]:b[1]]
			in = in[:len(out)]
			for j := range out {
				out[j] += xv * in[j]
			}
		}
	}
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Add computes dst[i] += src[i] element-wise.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: add length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Softmax normalises x in place into a probability distribution using the
// numerically stable max-subtraction form. It returns the indices of the
// nonzero weights, ascending, stored in nz's array; it does not allocate
// when cap(nz) ≥ len(x).
//
// An entry whose d = v − max lies below skipBelow once the float64 sum has
// reached sumFloor is not exponentiated, since neither output it feeds can
// tell: its weight is float32(e) = +0 (e < 2^-150 rounds to zero), and
// adding e to a sum ≥ 2^-96 rounds back to the sum (e is below half of its
// ulp, which is at least 2^-148). The result is bit-identical to
// exponentiating every entry. NaN and +Inf entries, whose d is NaN, and
// entries met while the sum is below sumFloor or NaN take the full path.
func Softmax(x []float32, nz []int) []int {
	nz = nz[:0]
	if len(x) == 0 {
		return nz
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		d := v - maxv
		if d < skipBelow && sum >= sumFloor {
			x[i] = 0
			continue
		}
		e := math.Exp(float64(d))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i, v := range x {
		v *= inv
		x[i] = v
		if v != 0 {
			nz = append(nz, i)
		}
	}
	return nz
}

// skipBelow and sumFloor bound the entries Softmax skips.
// TestSkippedExpRoundsToZero checks math.Exp(float64(d)) < 2^-150 for
// every float32 d in [−130, skipBelow); below −130 it is under 2^-187.
const (
	skipBelow = -104
	sumFloor  = 0x1p-96
)

// RMSNorm applies root-mean-square layer normalisation with elementwise gain:
// out[i] = x[i] / rms(x) * gain[i]. If gain is nil a gain of 1 is used.
func RMSNorm(out, x, gain []float32, eps float32) {
	if len(out) != len(x) || (gain != nil && len(gain) != len(x)) {
		panic("tensor: rmsnorm length mismatch")
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1.0 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	if gain == nil {
		for i, v := range x {
			out[i] = v * inv
		}
		return
	}
	for i, v := range x {
		out[i] = v * inv * gain[i]
	}
}

// SiLU applies the sigmoid-linear unit x*sigmoid(x) element-wise in place.
func SiLU(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// Argmax returns the index of the largest element of x, or -1 if x is empty.
// Ties break toward the lower index, keeping decode deterministic.
func Argmax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// L2 returns the Euclidean norm of x.
func L2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// L2Diff returns the Euclidean norm of (a-b).
func L2Diff(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: l2diff length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the largest absolute element-wise difference between a
// and b.
func MaxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: maxabsdiff length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}
