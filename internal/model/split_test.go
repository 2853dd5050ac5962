package model_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/blend"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/tensor"
)

// bits hashes the exact bits of a fusion path's outputs.
type bits struct{ h hash.Hash }

func newBits() *bits { return &bits{sha256.New()} }

func (b *bits) floats(xs ...[]float32) {
	var buf [4]byte
	for _, x := range xs {
		for _, v := range x {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			b.h.Write(buf[:])
		}
	}
}

func (b *bits) float64s(xs []float64) {
	var buf [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		b.h.Write(buf[:])
	}
}

func (b *bits) ints(xs ...int) {
	var buf [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		b.h.Write(buf[:])
	}
}

func (b *bits) matrices(ms ...*tensor.Matrix) {
	for _, m := range ms {
		b.ints(m.Rows, m.Cols)
		b.floats(m.Data)
	}
}

func (b *bits) cache(c *kvcache.Cache) {
	b.ints(c.NumLayers, c.KVDim, c.Tokens, c.BasePos)
	b.matrices(c.K...)
	b.matrices(c.V...)
}

func (b *bits) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

// splitCase is one model with the tokens of a fusion request: chunks,
// then a suffix.
type splitCase struct {
	m        *model.Model
	chunks   [][]int
	suffix   []int
	selLayer int
}

func splitCases() []splitCase {
	qa, v := qamodel.Build()
	cfg := dataset.MusiqueConfig()
	cfg.Cases, cfg.ChunksPerCase, cfg.FactsPerChunk = 1, 6, 6
	c := dataset.Generate(v, cfg).Cases[0]
	sim := model.NewRandom(model.Mistral7BSim, 3)
	g := tensor.NewRNG(4)
	toks := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = g.Intn(sim.Cfg.Vocab)
		}
		return out
	}
	return []splitCase{
		{m: qa, chunks: c.Chunks, suffix: c.Query, selLayer: qamodel.SelectionLayer},
		{m: sim, chunks: [][]int{toks(24), toks(24), toks(24), toks(24)}, suffix: toks(8), selLayer: 1},
	}
}

// attendedWork is a pass's Σ(idx[r]+1).
func attendedWork(idx []int) int {
	w := 0
	for _, j := range idx {
		w += j + 1
	}
	return w
}

// named suffixes "+attn" to name when the output includes attention.
func named(name string, wantAttn bool) string {
	if wantAttn {
		return name + "+attn"
	}
	return name
}

// outputs runs every fusion-path entry point on sc and returns the bits
// of each output, by name. Its all-token passes and its sparse pass reach
// SplitWork, so at GOMAXPROCS above 1 they share their rows with helpers.
func (sc splitCase) outputs(t *testing.T) map[string]string {
	m := sc.m
	var all []int
	for _, ch := range sc.chunks {
		all = append(all, ch...)
	}
	all = append(all, sc.suffix...)
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	var sparse []int
	for j := 0; j < len(all)-len(sc.suffix); j += 3 {
		sparse = append(sparse, j)
	}
	sparse = append(sparse, idx[len(all)-len(sc.suffix):]...)
	if attendedWork(sparse) < model.SplitWork {
		t.Fatalf("%s: the sparse pass's attended work %d is below SplitWork %d", m.Cfg.Name, attendedWork(sparse), model.SplitWork)
	}
	out := map[string]string{}

	var base *kvcache.Cache
	for _, wantAttn := range []bool{true, false} {
		pre := m.Prefill(all, 3, wantAttn)
		b := newBits()
		b.cache(pre.Cache)
		b.matrices(pre.Hidden)
		b.matrices(pre.Attn...)
		out[named("prefill", wantAttn)] = b.sum()
		base = pre.Cache
	}

	hs := m.EmbedTokens(all)
	h := tensor.New(len(sparse), hs.Cols)
	for r, j := range sparse {
		copy(h.Row(r), hs.Row(j))
	}
	for _, wantAttn := range []bool{false, true} {
		c := base.Clone()
		res, attn := m.ForwardLayerPartial(1, h, sparse, c, wantAttn)
		b := newBits()
		b.cache(c)
		b.matrices(res)
		if wantAttn {
			b.matrices(attn)
		}
		out[named("sparse", wantAttn)] = b.sum()
	}
	c := base.Clone()
	m.ProjectKV(sc.selLayer, hs, idx, c)
	b := newBits()
	b.cache(c)
	out["ProjectKV"] = b.sum()

	req := engine.Request{ChunkTokens: sc.chunks, SuffixTokens: sc.suffix}
	for _, ch := range sc.chunks {
		req.Chunks = append(req.Chunks, m.Prefill(ch, 0, false).Cache)
	}
	in := blend.Input{Model: m, Chunks: req.Chunks, ChunkTokens: req.ChunkTokens, SuffixTokens: req.SuffixTokens}
	for _, mode := range []blend.Mode{blend.ModeBlend, blend.ModeFullReuse, blend.ModeFullRecompute} {
		res := blend.Fuse(in, blend.Options{Mode: mode, RecomputeRatio: 0.15,
			SelectionLayer: sc.selLayer, CollectAttention: true})
		b := newBits()
		b.cache(res.Cache)
		b.matrices(res.Hidden)
		b.matrices(res.Attn...)
		b.ints(res.SelectedPerLayer...)
		for _, hk := range res.HKVD {
			b.ints(len(hk))
			b.ints(hk...)
		}
		b.float64s(res.DeviationByToken)
		b.ints(res.ComputedTokenLayers, res.ProjectedTokenLayers)
		out["Fuse/"+mode.String()] = b.sum()
	}

	eres, err := engine.Config{Model: m, Device: device.NVMeSSD, RecomputeRatio: 0.15,
		SelectionLayer: sc.selLayer, Pipelined: true}.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	b = newBits()
	b.cache(eres.Cache)
	b.matrices(eres.Hidden)
	b.ints(eres.SelectedPerLayer...)
	out["engine.Run"] = b.sum()
	return out
}

// TestSplitMatchesSerial runs every fusion-path entry point with
// GOMAXPROCS at 1, where every pass stays on the caller, and at 4, where
// passes of SplitWork or more attended work share their rows with helper
// goroutines, and requires every output bit to match: Prefill with and
// without attention, a sparse ForwardLayerPartial, ProjectKV, blend.Fuse
// in all three modes and pipelined engine.Run, on the constructed QA
// model and the dense Mistral7BSim.
func TestSplitMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range splitCases() {
		runtime.GOMAXPROCS(1)
		want := sc.outputs(t)
		runtime.GOMAXPROCS(4)
		got := sc.outputs(t)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s %s: split output differs from the serial one", sc.m.Cfg.Name, name)
			}
		}
	}
}
