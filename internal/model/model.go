package model

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/kvcache"
	"repro/internal/rope"
	"repro/internal/tensor"
)

// LayerWeights holds the parameters of one transformer layer.
type LayerWeights struct {
	// AttnGain is the pre-attention RMS-norm gain (nil under NormNone).
	AttnGain []float32
	// Wq maps hidden → Heads×HeadDim, Wk/Wv map hidden → KVHeads×HeadDim.
	Wq, Wk, Wv *tensor.Matrix
	// Wo maps the concatenated head outputs back to hidden.
	Wo *tensor.Matrix
	// FFNGain is the pre-FFN RMS-norm gain (nil under NormNone).
	FFNGain []float32
	// W1 (gate) and W3 (up) map hidden → FFNDim; W2 (down) maps back.
	// All nil when FFNDim is 0.
	W1, W2, W3 *tensor.Matrix
}

// Model is a complete transformer: embeddings, layers and output head.
type Model struct {
	Cfg Config
	// Embed is the Vocab×Hidden token embedding table.
	Embed *tensor.Matrix
	// Layer holds per-layer weights.
	Layer []LayerWeights
	// FinalGain is the last RMS-norm gain (nil under NormNone).
	FinalGain []float32
	// LMHead maps hidden → vocab logits.
	LMHead *tensor.Matrix
	// Rope is the rotary table over the first RotaryDims of each head
	// (nil when RotaryDims is 0).
	Rope *rope.Table

	// runs indexes the nonzero weights, built by the first forward pass.
	runsOnce sync.Once
	runs     *modelRuns
	// scratch pools the working buffers of forward passes (*scratch).
	scratch sync.Pool
}

// modelRuns holds the nonzero-run index of every weight matrix.
type modelRuns struct {
	layer  []layerRuns
	lmHead *tensor.Runs
}

type layerRuns struct {
	wq, wk, wv, wo, w1, w2, w3 *tensor.Runs
}

// index returns the nonzero-run index of the weights, building it on
// first use (see the package comment on weight immutability).
func (m *Model) index() *modelRuns {
	m.runsOnce.Do(func() {
		r := &modelRuns{layer: make([]layerRuns, len(m.Layer)), lmHead: tensor.NewRuns(m.LMHead)}
		for i := range m.Layer {
			lw, lr := &m.Layer[i], &r.layer[i]
			lr.wq, lr.wk, lr.wv, lr.wo = tensor.NewRuns(lw.Wq), tensor.NewRuns(lw.Wk), tensor.NewRuns(lw.Wv), tensor.NewRuns(lw.Wo)
			if lw.W1 != nil {
				lr.w1, lr.w2, lr.w3 = tensor.NewRuns(lw.W1), tensor.NewRuns(lw.W2), tensor.NewRuns(lw.W3)
			}
		}
		m.runs = r
	})
	return m.runs
}

// scratch holds the working buffers of one forward call, so a call
// allocates only the matrices it returns.
type scratch struct {
	qs, normed, headOut, proj, gate, up, scores []float32
}

// getScratch takes a scratch set from the model's pool.
func (m *Model) getScratch() *scratch {
	if s, ok := m.scratch.Get().(*scratch); ok {
		return s
	}
	return &scratch{}
}

// sized returns buf resliced to n elements, reallocated if too small.
func sized(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// NewRandom builds a model with deterministic Xavier-style random weights
// derived from seed. Two calls with the same config and seed produce
// identical models.
func NewRandom(cfg Config, seed int64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := tensor.NewRNG(seed)
	hidden := cfg.Hidden()
	m := &Model{Cfg: cfg}
	if cfg.RotaryDims > 0 {
		m.Rope = rope.NewTable(cfg.RotaryDims, cfg.RopeBase)
	}
	m.Embed = g.NewNormal(cfg.Vocab, hidden, 1.0/math.Sqrt(float64(hidden)))
	std := 1.0 / math.Sqrt(float64(hidden))
	qkScale := cfg.QKInitScale
	if qkScale == 0 {
		qkScale = 1
	}
	ones := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for i := 0; i < cfg.Layers; i++ {
		lw := LayerWeights{
			Wq: g.NewNormal(hidden, cfg.Heads*cfg.HeadDim, std*qkScale),
			Wk: g.NewNormal(hidden, cfg.KVDim(), std*qkScale),
			Wv: g.NewNormal(hidden, cfg.KVDim(), std),
			Wo: g.NewNormal(cfg.Heads*cfg.HeadDim, hidden, std),
		}
		if cfg.FFNDim > 0 {
			lw.W1 = g.NewNormal(hidden, cfg.FFNDim, std)
			lw.W3 = g.NewNormal(hidden, cfg.FFNDim, std)
			lw.W2 = g.NewNormal(cfg.FFNDim, hidden, 1.0/math.Sqrt(float64(cfg.FFNDim)))
		}
		if cfg.Norm == NormRMS {
			lw.AttnGain = ones(hidden)
			lw.FFNGain = ones(hidden)
		}
		m.Layer = append(m.Layer, lw)
	}
	if cfg.Norm == NormRMS {
		m.FinalGain = ones(hidden)
	}
	m.LMHead = g.NewNormal(hidden, cfg.Vocab, std)
	return m
}

// NewZero builds a model whose weights are all zero — the starting point
// for constructed-weight models (package qamodel) that fill in exactly the
// blocks they need.
func NewZero(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hidden := cfg.Hidden()
	m := &Model{Cfg: cfg}
	if cfg.RotaryDims > 0 {
		m.Rope = rope.NewTable(cfg.RotaryDims, cfg.RopeBase)
	}
	m.Embed = tensor.New(cfg.Vocab, hidden)
	for i := 0; i < cfg.Layers; i++ {
		lw := LayerWeights{
			Wq: tensor.New(hidden, cfg.Heads*cfg.HeadDim),
			Wk: tensor.New(hidden, cfg.KVDim()),
			Wv: tensor.New(hidden, cfg.KVDim()),
			Wo: tensor.New(cfg.Heads*cfg.HeadDim, hidden),
		}
		if cfg.FFNDim > 0 {
			lw.W1 = tensor.New(hidden, cfg.FFNDim)
			lw.W3 = tensor.New(hidden, cfg.FFNDim)
			lw.W2 = tensor.New(cfg.FFNDim, hidden)
		}
		m.Layer = append(m.Layer, lw)
	}
	m.LMHead = tensor.New(hidden, cfg.Vocab)
	return m
}

// NewCache returns an empty KV cache shaped for this model and sequence
// length.
func (m *Model) NewCache(tokens int) *kvcache.Cache {
	return kvcache.New(m.Cfg.Layers, m.Cfg.KVDim(), tokens)
}

// EmbedTokens returns the len(tokens)×hidden embedding matrix. Token id -1
// (unknown) embeds as the zero vector.
func (m *Model) EmbedTokens(tokens []int) *tensor.Matrix {
	h := tensor.New(len(tokens), m.Cfg.Hidden())
	for i, t := range tokens {
		if t < 0 {
			continue
		}
		if t >= m.Cfg.Vocab {
			panic(fmt.Sprintf("model: token %d out of vocab %d", t, m.Cfg.Vocab))
		}
		copy(h.Row(i), m.Embed.Row(t))
	}
	return h
}

func (m *Model) normInto(dst, x, gain []float32) {
	if m.Cfg.Norm == NormNone {
		copy(dst, x)
		return
	}
	tensor.RMSNorm(dst, x, gain, m.Cfg.Eps)
}

// ForwardLayerPartial computes layer li for the token positions listed in
// idx (strictly ascending). h holds the layer-li residual-stream rows for
// those positions (len(idx)×hidden). c is the full-sequence KV cache whose
// rows at idx are overwritten with freshly computed K/V before attention,
// so selected tokens see each other's updated keys and values exactly as
// they would under full prefill (paper Figure 5(b)). All other positions'
// K/V are reused from c as-is.
//
// Absolute positions are c.BasePos + index; rotary encoding (if enabled)
// is applied to the first RotaryDims of each head.
//
// The returned matrix holds the layer-(li+1) residual rows for idx. When
// wantAttn is true the second result holds the attention probabilities of
// the selected rows — len(idx) rows, Heads×c.Tokens columns — which is the
// "forward attention matrix" used for deviation measurements (§4.1);
// otherwise it is nil.
func (m *Model) ForwardLayerPartial(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache, wantAttn bool) (*tensor.Matrix, *tensor.Matrix) {
	cfg := m.Cfg
	if h.Rows != len(idx) || h.Cols != cfg.Hidden() {
		panic(fmt.Sprintf("model: hidden shape %dx%d, want %dx%d", h.Rows, h.Cols, len(idx), cfg.Hidden()))
	}
	if li < 0 || li >= cfg.Layers {
		panic(fmt.Sprintf("model: layer %d out of range", li))
	}
	lw, lr := &m.Layer[li], &m.index().layer[li]
	nSel := len(idx)
	headDim := cfg.HeadDim
	qDim := cfg.Heads * headDim
	group := cfg.GroupSize()
	s := m.getScratch()
	defer m.scratch.Put(s)

	// Pass 1: project Q/K/V for the selected tokens and write K/V into
	// the cache so pass 2 attends over the updated entries.
	qs := sized(&s.qs, nSel*qDim)
	normed := sized(&s.normed, cfg.Hidden())
	for r, j := range idx {
		if r > 0 && idx[r-1] >= j {
			panic("model: idx must be strictly ascending")
		}
		if j < 0 || j >= c.Tokens {
			panic(fmt.Sprintf("model: token index %d out of cache range %d", j, c.Tokens))
		}
		m.normInto(normed, h.Row(r), lw.AttnGain)
		q := qs[r*qDim : (r+1)*qDim]
		tensor.VecMatInto(q, normed, lw.Wq, lr.wq)
		m.projectKV(li, j, c, normed, lw, lr)
		if m.Rope != nil {
			rot, pos := cfg.RotaryDims, c.BasePos+j
			for hh := 0; hh < cfg.Heads; hh++ {
				m.Rope.Apply(q[hh*headDim:hh*headDim+rot], pos)
			}
		}
	}

	// Pass 2: attention over the full (updated ∪ reused) KV, then FFN.
	var attn *tensor.Matrix
	if wantAttn {
		attn = tensor.New(nSel, cfg.Heads*c.Tokens)
	}
	out := tensor.New(nSel, cfg.Hidden())
	scale := float32(1.0 / math.Sqrt(float64(headDim)))
	scores := sized(&s.scores, c.Tokens)
	headOut := sized(&s.headOut, qDim)
	proj := sized(&s.proj, cfg.Hidden())
	K := c.K[li]
	V := c.V[li]
	for r, j := range idx {
		q := qs[r*qDim : (r+1)*qDim]
		for i := range headOut {
			headOut[i] = 0
		}
		for hh := 0; hh < cfg.Heads; hh++ {
			g := hh / group
			qh := q[hh*headDim : (hh+1)*headDim]
			n := j + 1 // causal: attend to positions 0..j
			scoreKeys(scores[:n], qh, K, g*headDim, scale)
			tensor.Softmax(scores[:n])
			oh := headOut[hh*headDim : (hh+1)*headDim]
			for t := 0; t < n; t++ {
				w := scores[t]
				if w == 0 {
					continue
				}
				tensor.AXPY(w, V.Row(t)[g*headDim:(g+1)*headDim], oh)
			}
			if wantAttn {
				copy(attn.Row(r)[hh*c.Tokens:hh*c.Tokens+n], scores[:n])
			}
		}
		res := out.Row(r)
		copy(res, h.Row(r))
		tensor.VecMatInto(proj, headOut, lw.Wo, lr.wo)
		tensor.Add(res, proj)

		if cfg.FFNDim > 0 {
			m.normInto(normed, res, lw.FFNGain)
			gate := sized(&s.gate, cfg.FFNDim)
			up := sized(&s.up, cfg.FFNDim)
			tensor.VecMatInto(gate, normed, lw.W1, lr.w1)
			tensor.VecMatInto(up, normed, lw.W3, lr.w3)
			tensor.SiLU(gate)
			for i := range gate {
				gate[i] *= up[i]
			}
			tensor.VecMatInto(proj, gate, lw.W2, lr.w2)
			tensor.Add(res, proj)
		}
	}
	return out, attn
}

// scoreKeys writes scale·(q·k) for the keys of rows 0..len(scores)-1 of K,
// taking each key from column off, into scores. It scores four keys per
// pass with an accumulator each, so the four sums advance independently;
// every sum still adds its terms in ascending order from +0, exactly as
// tensor.Dot does, so the scores are bit-identical to one Dot per key.
func scoreKeys(scores, q []float32, K *tensor.Matrix, off int, scale float32) {
	d, stride := len(q), K.Cols
	t := 0
	for ; t+4 <= len(scores); t += 4 {
		at := t*stride + off
		k0 := K.Data[at:][:d]
		k1 := K.Data[at+stride:][:d]
		k2 := K.Data[at+2*stride:][:d]
		k3 := K.Data[at+3*stride:][:d]
		var s0, s1, s2, s3 float32
		for i, qv := range q {
			s0 += qv * k0[i]
			s1 += qv * k1[i]
			s2 += qv * k2[i]
			s3 += qv * k3[i]
		}
		scores[t] = s0 * scale
		scores[t+1] = s1 * scale
		scores[t+2] = s2 * scale
		scores[t+3] = s3 * scale
	}
	for ; t < len(scores); t++ {
		at := t*stride + off
		scores[t] = tensor.Dot(q, K.Data[at:][:d]) * scale
	}
}

// projectKV writes the K/V projections of the normalised row normed into
// the cache at token j of layer li, rotating the keys to their position.
func (m *Model) projectKV(li, j int, c *kvcache.Cache, normed []float32, lw *LayerWeights, lr *layerRuns) {
	k, v := c.RowK(li, j), c.RowV(li, j)
	tensor.VecMatInto(k, normed, lw.Wk, lr.wk)
	tensor.VecMatInto(v, normed, lw.Wv, lr.wv)
	if m.Rope != nil {
		rot, pos, headDim := m.Cfg.RotaryDims, c.BasePos+j, m.Cfg.HeadDim
		for hh := 0; hh < m.Cfg.KVHeads; hh++ {
			m.Rope.Apply(k[hh*headDim:hh*headDim+rot], pos)
		}
	}
}

// ProjectKV computes and stores fresh K/V cache entries on layer li for
// the token positions in idx without running attention or the FFN. h holds
// the layer-li residual rows for idx. CacheBlend uses this on its HKVD
// selection layer: new K/V for every token are needed to measure KV
// deviation against the loaded cache, but attention only runs for the
// tokens that survive selection — so the projection cost is paid for all
// tokens on one layer while the quadratic attention cost is not.
func (m *Model) ProjectKV(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache) {
	cfg := m.Cfg
	if h.Rows != len(idx) || h.Cols != cfg.Hidden() {
		panic(fmt.Sprintf("model: hidden shape %dx%d, want %dx%d", h.Rows, h.Cols, len(idx), cfg.Hidden()))
	}
	lw, lr := &m.Layer[li], &m.index().layer[li]
	s := m.getScratch()
	defer m.scratch.Put(s)
	normed := sized(&s.normed, cfg.Hidden())
	for r, j := range idx {
		m.normInto(normed, h.Row(r), lw.AttnGain)
		m.projectKV(li, j, c, normed, lw, lr)
	}
}

// PrefillResult bundles the outputs of a prefill pass.
type PrefillResult struct {
	// Cache is the KV cache of the whole sequence.
	Cache *kvcache.Cache
	// Hidden is the final-layer residual stream (tokens×hidden).
	Hidden *tensor.Matrix
	// Attn, when requested, holds one forward-attention matrix per layer.
	Attn []*tensor.Matrix
}

// Prefill runs full prefill over tokens with the sequence starting at
// absolute position basePos. It is implemented as ForwardLayerPartial with
// every token selected, which keeps the full and selective paths
// bit-identical by construction.
func (m *Model) Prefill(tokens []int, basePos int, wantAttn bool) *PrefillResult {
	c := m.NewCache(len(tokens))
	c.BasePos = basePos
	h := m.EmbedTokens(tokens)
	idx := make([]int, len(tokens))
	for i := range idx {
		idx[i] = i
	}
	res := &PrefillResult{Cache: c}
	for li := 0; li < m.Cfg.Layers; li++ {
		var attn *tensor.Matrix
		h, attn = m.ForwardLayerPartial(li, h, idx, c, wantAttn)
		if wantAttn {
			res.Attn = append(res.Attn, attn)
		}
	}
	res.Hidden = h
	return res
}

// Logits applies the final norm and LM head to one residual-stream row.
func (m *Model) Logits(h []float32) []float32 {
	s := m.getScratch()
	defer m.scratch.Put(s)
	normed := sized(&s.normed, len(h))
	m.normInto(normed, h, m.FinalGain)
	out := make([]float32, m.Cfg.Vocab)
	tensor.VecMatInto(out, normed, m.LMHead, m.index().lmHead)
	return out
}

// Generate decodes greedily from the cache. lastHidden must be the
// final-layer residual of the last prefilled token. Decoding appends each
// generated token's KV to c (which grows) and stops after maxNew tokens or
// when stop (if non-nil) returns true for a generated token; the stopping
// token is not included in the result.
func (m *Model) Generate(c *kvcache.Cache, lastHidden []float32, maxNew int, stop func(tok int) bool) []int {
	var out []int
	h := append([]float32(nil), lastHidden...)
	for n := 0; n < maxNew; n++ {
		tok := tensor.Argmax(m.Logits(h))
		if tok < 0 || (stop != nil && stop(tok)) {
			break
		}
		out = append(out, tok)
		// Append the new token's position and run all layers for it.
		c.Grow(1)
		j := c.Tokens - 1
		hm := m.EmbedTokens([]int{tok})
		for li := 0; li < m.Cfg.Layers; li++ {
			hm, _ = m.ForwardLayerPartial(li, hm, []int{j}, c, false)
		}
		h = hm.Row(0)
	}
	return out
}
