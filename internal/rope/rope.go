// Package rope implements Rotary Positional Embedding (RoPE, Su et al.) and
// the positional-recovery rotation CacheBlend uses when a pre-computed KV
// cache is placed at a different position in a new LLM input (paper §4.3
// footnote 3 and Appendix A).
//
// RoPE encodes the position m of a query/key vector by rotating each
// consecutive pair of dimensions (2i, 2i+1) by the angle m·θᵢ with
// θᵢ = base^(-2i/d). Because rotations compose additively, a key that was
// embedded at position m can be exactly re-positioned to position m' by
// rotating it a further (m'-m)·θᵢ — this is what lets CacheBlend reuse a KV
// cache computed for a chunk at offset 0 when the chunk lands at an
// arbitrary offset in a fused input, at negligible cost.
package rope

import (
	"fmt"
	"math"
)

// Table holds precomputed per-dimension rotation frequencies for a given
// head dimension and base, so that repeated rotations avoid recomputing
// powers.
type Table struct {
	headDim int
	base    float64
	theta   []float64 // theta[i] is the frequency for dim pair (2i, 2i+1)
}

// NewTable builds a frequency table for head vectors of length headDim
// (which must be even) with the given base (10000 in the original RoFormer
// and in Llama/Mistral-family models).
func NewTable(headDim int, base float64) *Table {
	if headDim <= 0 || headDim%2 != 0 {
		panic(fmt.Sprintf("rope: head dim must be positive and even, got %d", headDim))
	}
	t := &Table{headDim: headDim, base: base, theta: make([]float64, headDim/2)}
	for i := 0; i < headDim/2; i++ {
		t.theta[i] = math.Pow(base, -2*float64(i)/float64(headDim))
	}
	return t
}

// HeadDim returns the head dimension the table was built for.
func (t *Table) HeadDim() int { return t.headDim }

// Base returns the frequency base the table was built for.
func (t *Table) Base() float64 { return t.base }

// Apply rotates x (length headDim) in place to encode position pos.
func (t *Table) Apply(x []float32, pos int) {
	t.rotate(x, float64(pos))
}

// Shift re-positions x in place from position `from` to position `to`.
// Because R(m')·R(m)ᵀ = R(m'-m), this is a single rotation by the position
// delta — the positional-recovery step of CacheBlend (Appendix A).
func (t *Table) Shift(x []float32, from, to int) {
	t.rotate(x, float64(to-from))
}

// Angles writes the rotation of position pos into cs (length headDim):
// cs[2i] and cs[2i+1] are the cosine and sine of pos·θᵢ. Vectors that
// share a position, or a shift that share a delta, can then share one
// evaluation of the trigonometry: Rotate(x, cs) after Angles(cs, pos) is
// bit-identical to Apply(x, pos), and after Angles(cs, to-from) to
// Shift(x, from, to).
func (t *Table) Angles(cs []float32, pos int) {
	if len(cs) != t.headDim {
		panic(fmt.Sprintf("rope: angle buffer length %d != head dim %d", len(cs), t.headDim))
	}
	for i := range t.theta {
		cs[2*i], cs[2*i+1] = t.cosSin(i, float64(pos))
	}
}

// Rotate rotates x in place by the angles cs that Angles wrote; x and cs
// have the same length.
func Rotate(x, cs []float32) {
	if len(x) != len(cs) {
		panic(fmt.Sprintf("rope: vector length %d != angle length %d", len(x), len(cs)))
	}
	for i := 0; i+1 < len(x); i += 2 {
		rotatePair(x[i:i+2], cs[i], cs[i+1])
	}
}

func (t *Table) rotate(x []float32, m float64) {
	if len(x) != t.headDim {
		panic(fmt.Sprintf("rope: vector length %d != head dim %d", len(x), t.headDim))
	}
	for i := range t.theta {
		c, s := t.cosSin(i, m)
		rotatePair(x[2*i:2*i+2], c, s)
	}
}

// cosSin returns the cosine and sine of pair i's angle at position m.
func (t *Table) cosSin(i int, m float64) (c, s float32) {
	angle := m * t.theta[i]
	return float32(math.Cos(angle)), float32(math.Sin(angle))
}

// rotatePair rotates the plane p = (p[0], p[1]) by the angle with cosine c
// and sine s.
func rotatePair(p []float32, c, s float32) {
	a, b := p[0], p[1]
	p[0] = a*c - b*s
	p[1] = a*s + b*c
}

// RotationMatrix returns the explicit d×d block-diagonal rotation matrix
// R^d_{Θ,m} from Definition 1 of the paper's Appendix A, stored row-major.
// It exists to validate the fast pairwise implementation against the
// paper's matrix formulation and is used only in tests and documentation
// examples. Angles/Rotate are the production path; Apply/Shift are kept
// as the reference the Rotate tests compare against.
func (t *Table) RotationMatrix(pos int) []float32 {
	d := t.headDim
	m := make([]float32, d*d)
	for i := 0; i < d/2; i++ {
		c, s := t.cosSin(i, float64(pos))
		r, cIdx := 2*i, 2*i
		m[r*d+cIdx] = c
		m[r*d+cIdx+1] = -s
		m[(r+1)*d+cIdx] = s
		m[(r+1)*d+cIdx+1] = c
	}
	return m
}

// Score returns the RoPE-rotated attention logit qᵀ(pos_q)·k(pos_k) for raw
// (unrotated) vectors q and k. Proposition A.1 of the paper shows this
// depends only on pos_q - pos_k; tests verify that property against this
// reference implementation.
func (t *Table) Score(q, k []float32, posQ, posK int) float64 {
	qr := append([]float32(nil), q...)
	kr := append([]float32(nil), k...)
	t.Apply(qr, posQ)
	t.Apply(kr, posK)
	var s float64
	for i := range qr {
		s += float64(qr[i]) * float64(kr[i])
	}
	return s
}
