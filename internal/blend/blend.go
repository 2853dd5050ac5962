// Package blend implements CacheBlend's core contribution: fusing the
// independently pre-computed KV caches of multiple text chunks into one
// cache that approximates full prefill, by selectively recomputing the KV
// of a small fraction of High-KV-Deviation (HKVD) tokens on each layer
// (paper §4).
//
// A fusion in blend mode runs:
//
//  1. Assemble: check the input and lay out the fused token sequence, the
//     chunks in input order and then the fresh suffix (the user query),
//     with an empty fused cache.
//  2. Load the chunk caches into the fused cache, and re-position every
//     chunk's keys to its offset in the fused input via RoPE re-rotation
//     (§4.3 footnote 3, Appendix A). Only the layers the fusion reads are
//     loaded, from FirstReadLayer up: the layers below the selection
//     layer are recomputed for every token (step 3) before attention
//     reads them, so their stored KV is never used.
//  3. Layer 0: recompute every token fully. Layer-0 KV depends only on
//     embeddings, so the stored KV would already be exact (tests assert
//     this) — what this pass buys is correct *layer-1 inputs* for every
//     token, which is where cross-chunk attention first flows.
//  4. Selection layer (layer 1): project fresh K/V for every token, measure
//     each context token's KV deviation against the loaded cache, and keep
//     the top r₁ fraction as HKVD tokens (r₁ slightly above the target r).
//  5. Layers ≥ 2: gradual filtering (§4.3, Figure 9). Only the surviving
//     HKVD set is recomputed; its deviation on each layer picks the next,
//     slightly smaller set, converging to the target ratio r.
//
// Steps 3–5 are Recompute. Full recompute runs step 3 on every layer and
// loads nothing; full reuse loads every layer and recomputes only the
// suffix.
//
// Suffix tokens have no pre-computed KV and are recomputed on every layer
// unconditionally, exactly like the tail of a prefix-cache hit.
//
// Fuse runs Assemble, the load and Recompute back to back. Assemble and
// Recompute are exported so that a caller can load the chunk KV itself,
// concurrently with the recompute: Recompute calls a per-layer callback
// before it first touches a layer's cache, and the callback returns once
// that layer is loaded. That callback is the synchronize() of the paper's
// vLLM integration (§6); package engine's pipelined loader uses it.
package blend

import (
	"fmt"
	"sort"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Mode selects the fusion strategy.
type Mode int

const (
	// ModeBlend is CacheBlend's selective KV recompute.
	ModeBlend Mode = iota
	// ModeFullReuse reuses every chunk's KV untouched (PromptCache-style,
	// §3.3): only suffix tokens are computed. Fast, ignores cross-attention.
	ModeFullReuse
	// ModeFullRecompute ignores the stored caches and prefills everything
	// (the quality gold standard, §2).
	ModeFullRecompute
)

// String returns the scheme name used in experiment output.
func (m Mode) String() string {
	switch m {
	case ModeBlend:
		return "cacheblend"
	case ModeFullReuse:
		return "full-kv-reuse"
	case ModeFullRecompute:
		return "full-recompute"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configure the fusor.
type Options struct {
	// Mode selects the strategy; ModeBlend is the default.
	Mode Mode
	// RecomputeRatio is the target fraction r of context tokens whose KV
	// is recomputed per layer (the paper's default operating point is
	// 0.15). Clamped to [0,1].
	RecomputeRatio float64
	// ScheduleDecay holds the gradual-filtering multipliers applied to r
	// on the first selection layers: the i-th selection uses
	// r×ScheduleDecay[i] (clamped to 1.0), converging to r once the list
	// is exhausted. Nil uses DefaultSchedule.
	ScheduleDecay []float64
	// CollectAttention records each layer's forward-attention matrix for
	// the suffix tokens (needed by the deviation experiments). Costs
	// memory; leave false in serving paths.
	CollectAttention bool
	// DisableGradualFilter, when true, selects HKVD tokens once on the
	// selection layer and keeps that set for all deeper layers (the
	// ablation discussed in §4.3: layer-1-only selection).
	DisableGradualFilter bool
	// SelectionLayer is the layer on which the all-token KV deviation is
	// measured and the first HKVD set picked. Layers below it are fully
	// recomputed, and their chunk KV is not loaded. 0 (the zero value)
	// means the default of layer 1, which matches the paper's models
	// where cross-chunk content reaches KV projections after one
	// attention layer; see SelectionLayer for the clamp. The constructed
	// QA model (package qamodel) stages its cross-chunk joins through two
	// attention layers, so its experiments select on layer 2.
	SelectionLayer int
	// RandomSelection replaces HKVD ranking with a seeded random token
	// choice of the same size — the ablation behind Insight 1: random
	// recompute needs a much larger budget to reach the same attention
	// deviation.
	RandomSelection bool
	// RandomSeed seeds RandomSelection.
	RandomSeed int64
	// DisableReposition skips the RoPE re-rotation of reused chunk keys
	// (§4.3 footnote 3 / Appendix A), leaving every chunk's keys at their
	// precompute positions — the positional-accuracy failure PromptCache
	// had to solve with dummy prefixes. Ablation only.
	DisableReposition bool
}

// DefaultSchedule is the gradual-filtering ratio schedule: the first
// selection keeps slightly more tokens than the target, then tightens.
var DefaultSchedule = []float64{1.5, 1.25, 1.1}

// Input bundles what the fusor needs for one request.
type Input struct {
	// Model is the transformer to run.
	Model *model.Model
	// Chunks holds the pre-computed KV cache of each context chunk, in
	// input order, each computed with BasePos 0 (chunk alone).
	Chunks []*kvcache.Cache
	// ChunkTokens holds the token ids of each chunk (same order).
	ChunkTokens [][]int
	// SuffixTokens is the fresh tail of the input (user query); it has no
	// pre-computed KV.
	SuffixTokens []int
}

// Result reports the fused cache and fusion statistics.
type Result struct {
	// Cache is the fused full-sequence KV cache.
	Cache *kvcache.Cache
	// Hidden holds the final-layer residual rows of the suffix tokens;
	// generation starts from its last row.
	Hidden *tensor.Matrix
	// SuffixStart is the index of the first suffix token.
	SuffixStart int
	// Tokens is the fused token sequence (contexts ++ suffix).
	Tokens []int
	// SelectedPerLayer[i] is the number of *context* tokens whose KV was
	// recomputed on layer i (suffix tokens excluded).
	SelectedPerLayer []int
	// HKVD[i] lists the context token indices recomputed on layer i.
	HKVD [][]int
	// DeviationByToken is the per-context-token KV deviation measured on
	// the selection layer (index = token position; suffix positions 0).
	DeviationByToken []float64
	// Attn, when requested, holds per-layer forward-attention matrices of
	// the suffix rows.
	Attn []*tensor.Matrix
	// ComputedTokenLayers counts token×layer units actually recomputed
	// (attention+FFN), the basis for honest compute accounting.
	ComputedTokenLayers int
	// ProjectedTokenLayers counts token×layer units where only the KV
	// projection ran (the selection layer's all-token projection).
	ProjectedTokenLayers int
}

// SelectionLayer returns the layer a fusion selects HKVD tokens on when
// Options.SelectionLayer (or the engine's) asks for `requested` on a
// model of `layers` layers: 0 means the default of layer 1, and the
// result is clamped to [1, layers-1] (layer 0 on a one-layer model).
func SelectionLayer(requested, layers int) int {
	if requested <= 0 {
		requested = 1
	}
	if requested >= layers {
		requested = layers - 1
	}
	return requested
}

// FirstReadLayer returns the lowest layer whose loaded chunk KV a fusion
// in mode reads, selecting on SelectionLayer(requested, layers): every
// layer for full reuse, the selection layer and above for blend, and none
// (layers) for full recompute. Each layer below it is recomputed for every
// token, which overwrites each loaded row before attention reads it, so a
// loader need not fetch it.
func FirstReadLayer(mode Mode, requested, layers int) int {
	switch mode {
	case ModeFullRecompute:
		return layers
	case ModeFullReuse:
		return 0
	default:
		return SelectionLayer(requested, layers)
	}
}

// Fuse combines the chunk caches and suffix into one KV cache according to
// opts: it assembles the fusion, loads the chunk KV and recomputes with no
// per-layer callback. The input chunk caches are not modified. It panics
// on input Assemble rejects.
func Fuse(in Input, opts Options) *Result {
	res, err := Assemble(in)
	if err != nil {
		panic(err)
	}
	load(in, res, opts)
	Recompute(in.Model, res, opts, nil)
	return res
}

// Assemble is the fusion's first step (see the package doc). It checks in
// against its model and returns the Result the other steps fill: the
// fused token sequence (the chunks in input order, then the suffix), an
// empty fused cache and zeroed per-layer statistics. A caller that loads
// the chunk KV itself, instead of through Fuse, copies each chunk's rows
// to its offset in the fused cache on every layer from FirstReadLayer up,
// re-positioning its keys to that offset (kvcache.Cache.RotateKeys).
func Assemble(in Input) (*Result, error) {
	m := in.Model
	if m == nil {
		return nil, fmt.Errorf("blend: nil model")
	}
	if len(in.Chunks) != len(in.ChunkTokens) {
		return nil, fmt.Errorf("blend: %d chunk caches but %d chunk token lists", len(in.Chunks), len(in.ChunkTokens))
	}
	cfg := m.Cfg
	var tokens []int
	for ci, cc := range in.Chunks {
		if cc.Tokens != len(in.ChunkTokens[ci]) {
			return nil, fmt.Errorf("blend: chunk %d cache has %d tokens, text has %d", ci, cc.Tokens, len(in.ChunkTokens[ci]))
		}
		if cc.NumLayers != cfg.Layers || cc.KVDim != cfg.KVDim() {
			return nil, fmt.Errorf("blend: chunk %d cache is %d layers × %d, model is %d × %d", ci, cc.NumLayers, cc.KVDim, cfg.Layers, cfg.KVDim())
		}
		tokens = append(tokens, in.ChunkTokens[ci]...)
	}
	suffixStart := len(tokens)
	tokens = append(tokens, in.SuffixTokens...)
	return &Result{
		Cache:            m.NewCache(len(tokens)),
		SuffixStart:      suffixStart,
		Tokens:           tokens,
		SelectedPerLayer: make([]int, cfg.Layers),
		HKVD:             make([][]int, cfg.Layers),
		DeviationByToken: make([]float64, len(tokens)),
	}, nil
}

// load is the fusion's second step: it copies each chunk's rows to its
// offset in res.Cache on every layer the fusion reads, and re-positions
// the copied keys in place.
func load(in Input, res *Result, opts Options) {
	m := in.Model
	cfg := m.Cfg
	fused := res.Cache
	first := FirstReadLayer(opts.Mode, opts.SelectionLayer, cfg.Layers)
	angles := make([]float32, cfg.RotaryDims)
	off := 0
	for _, cc := range in.Chunks {
		// A zero delta is skipped: rotating by it could turn a -0 key
		// entry into +0.
		rotate := m.Rope != nil && !opts.DisableReposition && off != cc.BasePos
		if rotate {
			m.Rope.Angles(angles, off-cc.BasePos)
		}
		for li := first; li < cfg.Layers; li++ {
			copy(fused.K[li].Data[off*fused.KVDim:], cc.K[li].Data)
			copy(fused.V[li].Data[off*fused.KVDim:], cc.V[li].Data)
			if rotate {
				fused.RotateKeys(li, off, off+cc.Tokens, cfg.KVHeads, cfg.HeadDim, angles)
			}
		}
		off += cc.Tokens
	}
}

// Recompute is the fusion's last step: it runs opts.Mode's recompute over
// an assembled res whose cache holds the loaded chunk KV, and fills in the
// suffix hidden rows and the statistics. If ready is not nil, Recompute
// calls it once per layer, for layers 0 to Layers-1 in ascending order,
// before it first touches that layer's cache; on the selection layer that
// is before it snapshots the loaded rows to measure deviation. Layer li's
// chunk KV, if li ≥ FirstReadLayer, must be in res.Cache when ready(li)
// returns, so a loader may fill the cache concurrently and ready is the
// per-layer synchronize() of paper §6. Fuse loads first and passes nil.
func Recompute(m *model.Model, res *Result, opts Options, ready func(li int)) {
	if ready == nil {
		ready = func(int) {}
	}
	if opts.Mode == ModeFullReuse {
		fuseFullReuse(m, res, opts, ready)
		return
	}
	// Full recompute, and blend below its selection layer, recompute
	// every token, into rows no loader fills. For blend this establishes
	// correct selection-layer inputs; on layer 0 the written KV matches
	// what loading would have given (position-recovered) because layer-0
	// K/V depend only on embeddings.
	full := FirstReadLayer(opts.Mode, opts.SelectionLayer, m.Cfg.Layers)
	idx := allIdx(len(res.Tokens))
	h := m.EmbedTokens(res.Tokens)
	for li := 0; li < full; li++ {
		ready(li)
		var attn *tensor.Matrix
		h, attn = m.ForwardLayerPartial(li, h, idx, res.Cache, opts.CollectAttention)
		res.appendSuffixAttn(attn, idx, opts)
		res.SelectedPerLayer[li] = res.SuffixStart
		res.HKVD[li] = idx[:res.SuffixStart]
		res.ComputedTokenLayers += len(idx)
	}
	if full == m.Cfg.Layers {
		res.Hidden = rowsFor(h, idx, res.suffixIdx())
		return
	}
	fuseBlend(m, res, full, h, idx, opts, ready)
}

// suffixIdx returns [suffixStart, len(tokens)).
func (r *Result) suffixIdx() []int {
	idx := make([]int, len(r.Tokens)-r.SuffixStart)
	for i := range idx {
		idx[i] = r.SuffixStart + i
	}
	return idx
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func fuseFullReuse(m *model.Model, res *Result, opts Options, ready func(int)) {
	idx := res.suffixIdx()
	h := m.EmbedTokens(res.Tokens[res.SuffixStart:])
	for li := 0; li < m.Cfg.Layers; li++ {
		ready(li)
		var attn *tensor.Matrix
		h, attn = m.ForwardLayerPartial(li, h, idx, res.Cache, opts.CollectAttention)
		if opts.CollectAttention {
			res.Attn = append(res.Attn, attn)
		}
		res.ComputedTokenLayers += len(idx)
	}
	res.Hidden = h
}

// fuseBlend runs the selective recompute from selLayer up; h holds the
// selLayer input rows of every token, idx.
func fuseBlend(m *model.Model, res *Result, selLayer int, h *tensor.Matrix, idx []int, opts Options, ready func(int)) {
	cfg := m.Cfg
	total := len(res.Tokens)
	ctxLen := res.SuffixStart
	r := opts.RecomputeRatio
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	sched := opts.ScheduleDecay
	if sched == nil {
		sched = DefaultSchedule
	}

	// Selection layer: fresh K/V for every token to measure the
	// per-token KV deviation against the loaded cache, then pick HKVD.
	// preK/preV snapshot the loaded rows here and, on every later layer,
	// the rows of the surviving candidates.
	ready(selLayer)
	preK := res.Cache.K[selLayer].Clone()
	preV := res.Cache.V[selLayer].Clone()
	m.ProjectKV(selLayer, h, idx, res.Cache)
	res.ProjectedTokenLayers += total
	dev := res.DeviationByToken[:ctxLen]
	for j := range dev {
		dk := tensor.L2Diff(res.Cache.K[selLayer].Row(j), preK.Row(j))
		dv := tensor.L2Diff(res.Cache.V[selLayer].Row(j), preV.Row(j))
		dev[j] = dk + dv
	}

	ratioAt := func(step int) float64 {
		mult := 1.0
		if step < len(sched) {
			mult = sched[step]
		}
		rr := r * mult
		if rr > 1 {
			rr = 1
		}
		return rr
	}
	// First selection over all context tokens.
	keep := int(ratioAt(0)*float64(ctxLen) + 0.5)
	var hkvd []int
	if opts.RandomSelection {
		g := tensor.NewRNG(opts.RandomSeed)
		perm := g.Perm(ctxLen)
		if keep > ctxLen {
			keep = ctxLen
		}
		hkvd = append(hkvd, perm[:keep]...)
	} else {
		hkvd = kvcache.TopKIndices(dev, keep)
	}
	sort.Ints(hkvd)

	// Recompute attention+FFN on the selection layer for HKVD ∪ suffix.
	suffix := res.suffixIdx()
	sel := append(append([]int{}, hkvd...), suffix...)
	hs := rowsFor(h, idx, sel)
	var attn *tensor.Matrix
	hs, attn = m.ForwardLayerPartial(selLayer, hs, sel, res.Cache, opts.CollectAttention)
	res.appendSuffixAttn(attn, sel, opts)
	res.SelectedPerLayer[selLayer] = len(hkvd)
	res.HKVD[selLayer] = hkvd
	res.ComputedTokenLayers += len(sel)

	// Layers past the selection layer: gradual filtering.
	cur := sel
	curCtx := hkvd
	for li, step := selLayer+1, 1; li < cfg.Layers; li, step = li+1, step+1 {
		ready(li)
		if len(curCtx) > 0 {
			var next []int
			if opts.DisableGradualFilter || opts.RandomSelection {
				// Random selection keeps its set fixed so the ablation
				// isolates *which* tokens are recomputed, not how many.
				next = curCtx
			} else {
				// Measure deviation of the surviving candidates on this
				// layer before overwriting their KV.
				for i, j := range curCtx {
					copy(preK.Row(i), res.Cache.RowK(li, j))
					copy(preV.Row(i), res.Cache.RowV(li, j))
				}
				// Project fresh KV for the candidate rows (their hidden
				// rows are the prefix of hs since sel is sorted with
				// context first — recover by position).
				ctxRows := rowsFor(hs, cur, curCtx)
				m.ProjectKV(li, ctxRows, curCtx, res.Cache)
				res.ProjectedTokenLayers += len(curCtx)
				devs := make([]float64, len(curCtx))
				for i, j := range curCtx {
					dk := tensor.L2Diff(res.Cache.RowK(li, j), preK.Row(i))
					dv := tensor.L2Diff(res.Cache.RowV(li, j), preV.Row(i))
					devs[i] = dk + dv
				}
				keep := int(ratioAt(step)*float64(ctxLen) + 0.5)
				if keep > len(curCtx) {
					keep = len(curCtx)
				}
				top := kvcache.TopKIndices(devs, keep)
				next = make([]int, len(top))
				for i, t := range top {
					next[i] = curCtx[t]
				}
				sort.Ints(next)
				// Restore the loaded KV of dropped candidates: their fresh
				// projection was only needed for the deviation measurement.
				dropped := diffSorted(curCtx, next)
				for _, j := range dropped {
					i := indexOf(curCtx, j)
					copy(res.Cache.K[li].Row(j), preK.Row(i))
					copy(res.Cache.V[li].Row(j), preV.Row(i))
				}
			}
			curCtx = next
		}
		// The kept rows are a subset of cur, so a set of the same size is
		// the same set and its hidden rows are already in place.
		if len(curCtx)+len(suffix) < len(cur) {
			sel = append(append([]int{}, curCtx...), suffix...)
			hs = rowsFor(hs, cur, sel)
			cur = sel
		}
		hs, attn = m.ForwardLayerPartial(li, hs, cur, res.Cache, opts.CollectAttention)
		res.appendSuffixAttn(attn, cur, opts)
		res.SelectedPerLayer[li] = len(curCtx)
		res.HKVD[li] = curCtx
		res.ComputedTokenLayers += len(cur)
	}
	res.Hidden = rowsFor(hs, cur, suffix)
}

// appendSuffixAttn stores the suffix rows of a layer attention matrix.
func (r *Result) appendSuffixAttn(attn *tensor.Matrix, idx []int, opts Options) {
	if !opts.CollectAttention || attn == nil {
		return
	}
	r.Attn = append(r.Attn, rowsFor(attn, idx, r.suffixIdx()))
}

// rowsFor maps positions to rows: h's rows correspond to sorted positions
// `from`; the result holds the rows for positions `want` ⊆ from.
func rowsFor(h *tensor.Matrix, from, want []int) *tensor.Matrix {
	out := tensor.New(len(want), h.Cols)
	fi := 0
	for wi, w := range want {
		for fi < len(from) && from[fi] < w {
			fi++
		}
		if fi >= len(from) || from[fi] != w {
			panic(fmt.Sprintf("blend: position %d not in source row set", w))
		}
		copy(out.Row(wi), h.Row(fi))
	}
	return out
}

// diffSorted returns the elements of a (sorted) not present in b (sorted).
func diffSorted(a, b []int) []int {
	var out []int
	bi := 0
	for _, x := range a {
		for bi < len(b) && b[bi] < x {
			bi++
		}
		if bi >= len(b) || b[bi] != x {
			out = append(out, x)
		}
	}
	return out
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
