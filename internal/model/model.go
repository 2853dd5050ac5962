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
	// read[h] lists, ascending, the dims of head h's output whose Wo row
	// holds a nonzero: the only ones the output projection reads.
	read [][]int
}

// index returns the nonzero-run index of the weights, building it on
// first use (see the package comment on weight immutability).
func (m *Model) index() *modelRuns {
	m.runsOnce.Do(func() {
		r := &modelRuns{layer: make([]layerRuns, len(m.Layer)), lmHead: tensor.NewRuns(m.LMHead)}
		for i := range m.Layer {
			lw, lr := &m.Layer[i], &r.layer[i]
			lr.wq, lr.wk, lr.wv, lr.wo = tensor.NewRuns(lw.Wq), tensor.NewRuns(lw.Wk), tensor.NewRuns(lw.Wv), tensor.NewRuns(lw.Wo)
			lr.read = make([][]int, m.Cfg.Heads)
			for _, row := range lr.wo.NonzeroRows() {
				hh := row / m.Cfg.HeadDim
				lr.read[hh] = append(lr.read[hh], row%m.Cfg.HeadDim)
			}
			if lw.W1 != nil {
				lr.w1, lr.w2, lr.w3 = tensor.NewRuns(lw.W1), tensor.NewRuns(lw.W2), tensor.NewRuns(lw.W3)
			}
		}
		m.runs = r
	})
	return m.runs
}

// scratch holds the working buffers of one forward call, so a call
// allocates only the matrices it returns, and of one helper goroutine.
type scratch struct {
	// qs holds a call's rotated queries, one row of Heads×HeadDim per
	// selected token; a helper's scratch holds none.
	qs                                              []float32
	normed, headOut, proj, gate, up, scores, angles []float32
	// qdims lists a query head's nonzero dims; rows the keys whose
	// attention weight is nonzero.
	qdims, rows []int
	// f32 and ints back every buffer above, carved by fit.
	f32  []float32
	ints []int
	// pass describes the call to the helpers it wakes (see split.go).
	pass layerPass
}

// getScratch takes a scratch set from the model's pool.
func (m *Model) getScratch() *scratch {
	if s, ok := m.scratch.Get().(*scratch); ok {
		return s
	}
	return &scratch{}
}

// fit carves s's buffers for nq query rows of cfg attending over tokens
// keys, from one float32 and one int allocation, made only when the ones
// s holds are too small.
func (s *scratch) fit(cfg Config, nq, tokens int) {
	hidden, qDim := cfg.Hidden(), cfg.Heads*cfg.HeadDim
	f := sized(&s.f32, nq*qDim+2*hidden+qDim+2*cfg.FFNDim+tokens+cfg.RotaryDims)
	carve := func(n int) []float32 {
		b := f[:n:n]
		f = f[n:]
		return b
	}
	s.qs, s.normed, s.proj, s.headOut = carve(nq*qDim), carve(hidden), carve(hidden), carve(qDim)
	s.gate, s.up, s.scores, s.angles = carve(cfg.FFNDim), carve(cfg.FFNDim), carve(tokens), carve(cfg.RotaryDims)
	ints := sized(&s.ints, cfg.HeadDim+tokens)
	s.qdims, s.rows = ints[:cfg.HeadDim:cfg.HeadDim], ints[cfg.HeadDim:]
}

// sized returns buf resliced to n elements, reallocated if too small.
func sized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
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
//
// The layer runs in two passes over the rows of idx. The first projects
// each row's Q/K/V and writes its K/V into c; the second, which starts
// once every row of the first has finished, runs attention, Wo and the
// FFN. Within a pass every row is independent: it writes only its own
// query, K/V and output rows. A call whose attended work Σ(idx[r]+1)
// reaches 2048 (splitWork) therefore shares each pass's rows among up to
// GOMAXPROCS goroutines, the caller included, with a bit-identical
// result; smaller calls, such as a chunk prefill or a decode step, run
// on the caller. The arguments are checked on the caller's goroutine
// before any row runs, so a bad call panics there.
func (m *Model) ForwardLayerPartial(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache, wantAttn bool) (*tensor.Matrix, *tensor.Matrix) {
	work := m.check(li, h, idx, c)
	s := m.getScratch()
	defer m.scratch.Put(s)
	s.fit(m.Cfg, len(idx), c.Tokens)
	p := m.begin(s, li, h, idx, c)
	defer p.end()
	p.qs = s.qs
	n := workers(work)

	// Pass 1: project Q/K/V for the selected tokens and write K/V into
	// the cache so pass 2 attends over the updated entries.
	p.each(s, n, false)

	// Pass 2: attention over the full (updated ∪ reused) KV, then FFN.
	p.out = tensor.New(len(idx), m.Cfg.Hidden())
	if wantAttn {
		p.attn = tensor.New(len(idx), m.Cfg.Heads*c.Tokens)
	}
	p.each(s, n, true)
	return p.out, p.attn
}

// check panics unless li is a layer of m, h holds one hidden row per
// position of idx, idx is strictly ascending within c's tokens and c has
// m's layers and KV width. It returns the call's attended work,
// Σ(idx[r]+1).
func (m *Model) check(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache) int {
	cfg := m.Cfg
	if li < 0 || li >= cfg.Layers {
		panic(fmt.Sprintf("model: layer %d out of range", li))
	}
	if h.Rows != len(idx) || h.Cols != cfg.Hidden() {
		panic(fmt.Sprintf("model: hidden shape %dx%d, want %dx%d", h.Rows, h.Cols, len(idx), cfg.Hidden()))
	}
	if c.NumLayers != cfg.Layers || c.KVDim != cfg.KVDim() {
		panic(fmt.Sprintf("model: cache of %d layers × %d KV dims, want %d × %d", c.NumLayers, c.KVDim, cfg.Layers, cfg.KVDim()))
	}
	work := 0
	for r, j := range idx {
		if r > 0 && idx[r-1] >= j {
			panic("model: idx must be strictly ascending")
		}
		if j < 0 || j >= c.Tokens {
			panic(fmt.Sprintf("model: token index %d out of cache range %d", j, c.Tokens))
		}
		work += j + 1
	}
	return work
}

// project runs the projection pass on row r: its rotated query into qs,
// when the call has one, and its K/V into the cache.
func (p *layerPass) project(s *scratch, r int) {
	m, lw, lr, j := p.m, p.lw, p.lr, p.idx[r]
	m.normInto(s.normed, p.h.Row(r), lw.AttnGain)
	if m.Rope != nil {
		m.Rope.Angles(s.angles, p.c.BasePos+j)
	}
	if p.qs != nil {
		qDim := m.Cfg.Heads * m.Cfg.HeadDim
		q := p.qs[r*qDim : (r+1)*qDim]
		tensor.VecMatInto(q, s.normed, lw.Wq, lr.wq)
		m.rotateHeads(q, s.angles)
	}
	k, v := p.c.RowK(p.li, j), p.c.RowV(p.li, j)
	tensor.VecMatInto(k, s.normed, lw.Wk, lr.wk)
	tensor.VecMatInto(v, s.normed, lw.Wv, lr.wv)
	m.rotateHeads(k, s.angles)
}

// rotateHeads turns the rotary dims of each head of x by angles, the
// rotation of the row's position (x is left alone without rotary
// encoding).
func (m *Model) rotateHeads(x, angles []float32) {
	if m.Rope == nil {
		return
	}
	for off := 0; off < len(x); off += m.Cfg.HeadDim {
		rope.Rotate(x[off:off+len(angles)], angles)
	}
}

// attendRow runs the attention pass on row r: attention over the cache's
// keys 0..idx[r], then Wo and the FFN, into row r of out (and of attn).
// Work whose result Wo never reads is skipped: a head none of whose
// output dims Wo reads (unless its attention is wanted), and every unread
// dim of the value sums. Scores sum over a head's nonzero query dims
// only.
func (p *layerPass) attendRow(s *scratch, r int) {
	m, lw, lr, cfg := p.m, p.lw, p.lr, p.m.Cfg
	headDim, T := cfg.HeadDim, p.c.Tokens
	qDim := cfg.Heads * headDim
	group := cfg.GroupSize()
	scale := float32(1.0 / math.Sqrt(float64(headDim)))
	K, V := p.c.K[p.li], p.c.V[p.li]
	q := p.qs[r*qDim : (r+1)*qDim]
	headOut := s.headOut
	clear(headOut)
	n := p.idx[r] + 1 // causal: attend to positions 0..idx[r]
	for hh := 0; hh < cfg.Heads; hh++ {
		read := lr.read[hh]
		if len(read) == 0 && p.attn == nil {
			continue
		}
		off := hh / group * headDim
		qh := q[hh*headDim : (hh+1)*headDim]
		w := s.scores[:n]
		scoreKeysAt(w, qh, nonzeros(s.qdims, qh), K, off, scale)
		rows := tensor.Softmax(w, s.rows)
		if p.attn != nil {
			copy(p.attn.Row(r)[hh*T:hh*T+n], w)
		}
		if len(read) == 0 {
			continue
		}
		sumValuesAt(headOut[hh*headDim:(hh+1)*headDim], read, w, rows, V, off)
	}
	res := p.out.Row(r)
	copy(res, p.h.Row(r))
	tensor.VecMatInto(s.proj, headOut, lw.Wo, lr.wo)
	tensor.Add(res, s.proj)

	if cfg.FFNDim > 0 {
		m.normInto(s.normed, res, lw.FFNGain)
		tensor.VecMatInto(s.gate, s.normed, lw.W1, lr.w1)
		tensor.VecMatInto(s.up, s.normed, lw.W3, lr.w3)
		tensor.SiLU(s.gate)
		for i := range s.gate {
			s.gate[i] *= s.up[i]
		}
		tensor.VecMatInto(s.proj, s.gate, lw.W2, lr.w2)
		tensor.Add(res, s.proj)
	}
}

// nonzeros returns the indices of the nonzero entries of x, ascending,
// stored in dst's array; it does not allocate when cap(dst) ≥ len(x).
func nonzeros(dst []int, x []float32) []int {
	dst = dst[:0]
	for i, v := range x {
		if v != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// scoreKeysAt writes scale·(q·k) for the keys of rows 0..len(scores)-1 of
// K, taking each key from column off, into scores. It sums only the terms
// of the dims listed in dims (ascending), which must hold every nonzero of
// q: a skipped term is (±0)·k = ±0 for a finite key, and adding a signed
// zero to a sum that starts at +0 never changes it (the sum is never -0).
// It scores four keys per pass with an accumulator each, so the four sums
// advance independently; every sum still adds its terms in ascending
// order from +0, exactly as tensor.Dot does, so the scores are
// bit-identical to one Dot per key.
func scoreKeysAt(scores, q []float32, dims []int, K *tensor.Matrix, off int, scale float32) {
	d, stride := len(q), K.Cols
	t := 0
	for ; t+4 <= len(scores); t += 4 {
		at := t*stride + off
		k0 := K.Data[at:][:d]
		k1 := K.Data[at+stride:][:d]
		k2 := K.Data[at+2*stride:][:d]
		k3 := K.Data[at+3*stride:][:d]
		var s0, s1, s2, s3 float32
		for _, i := range dims {
			qv := q[i]
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
		k := K.Data[t*stride+off:][:d]
		var s0 float32
		for _, i := range dims {
			s0 += q[i] * k[i]
		}
		scores[t] = s0 * scale
	}
}

// sumValuesAt adds w[t]·v_t into the dims of o listed in dims for each
// row t listed in rows (ascending), where v_t is row t of V from column
// off; the other dims of o are left as they are. It adds four rows per
// pass, and each o[i] still adds its terms one row at a time in ascending
// row order, so o is bit-identical to one y += w·x pass per row.
func sumValuesAt(o []float32, dims []int, w []float32, rows []int, V *tensor.Matrix, off int) {
	d, stride := len(o), V.Cols
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		t0, t1, t2, t3 := rows[k], rows[k+1], rows[k+2], rows[k+3]
		w0, w1, w2, w3 := w[t0], w[t1], w[t2], w[t3]
		v0 := V.Data[t0*stride+off:][:d]
		v1 := V.Data[t1*stride+off:][:d]
		v2 := V.Data[t2*stride+off:][:d]
		v3 := V.Data[t3*stride+off:][:d]
		for _, i := range dims {
			s := o[i]
			s += w0 * v0[i]
			s += w1 * v1[i]
			s += w2 * v2[i]
			s += w3 * v3[i]
			o[i] = s
		}
	}
	for ; k < len(rows); k++ {
		t := rows[k]
		wt, v := w[t], V.Data[t*stride+off:][:d]
		for _, i := range dims {
			o[i] += wt * v[i]
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
//
// It checks its arguments as ForwardLayerPartial does, on the caller's
// goroutine, and splits its rows by the same rule: it is that call's
// first pass.
func (m *Model) ProjectKV(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache) {
	work := m.check(li, h, idx, c)
	s := m.getScratch()
	defer m.scratch.Put(s)
	s.fit(m.Cfg, 0, 0)
	p := m.begin(s, li, h, idx, c)
	defer p.end()
	p.each(s, workers(work), false)
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
	s.fit(m.Cfg, 0, 0)
	m.normInto(s.normed, h, m.FinalGain)
	out := make([]float32, m.Cfg.Vocab)
	tensor.VecMatInto(out, s.normed, m.LMHead, m.index().lmHead)
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
