package model

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/tensor"
)

var testCfg = Config{
	Name: "test", Layers: 3, Heads: 4, KVHeads: 2, HeadDim: 8,
	FFNDim: 32, Vocab: 64, RotaryDims: 8, RopeBase: 10000, Norm: NormRMS, Eps: 1e-5,
}

func seqTokens(n, vocab int, seed int64) []int {
	g := tensor.NewRNG(seed)
	out := make([]int, n)
	for i := range out {
		out[i] = g.Intn(vocab)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	good := testCfg
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.Heads = 0 },
		func(c *Config) { c.KVHeads = 3 }, // not a divisor of 4
		func(c *Config) { c.HeadDim = 0 },
		func(c *Config) { c.Vocab = 0 },
		func(c *Config) { c.RotaryDims = 10 }, // > HeadDim
		func(c *Config) { c.RotaryDims = 3 },  // odd
		func(c *Config) { c.RopeBase = 0 },    // rotary without base
		func(c *Config) { c.FFNDim = -1 },
	}
	for i, mutate := range cases {
		c := testCfg
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestSimConfigsValid(t *testing.T) {
	for _, c := range SimConfigs() {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestNewRandomDeterminism(t *testing.T) {
	a := NewRandom(testCfg, 7)
	b := NewRandom(testCfg, 7)
	if tensor.MaxAbsDiff(a.Layer[1].Wq.Data, b.Layer[1].Wq.Data) != 0 {
		t.Fatal("same seed must give identical weights")
	}
	c := NewRandom(testCfg, 8)
	if tensor.MaxAbsDiff(a.Layer[1].Wq.Data, c.Layer[1].Wq.Data) == 0 {
		t.Fatal("different seeds must differ")
	}
}

func TestPrefillShapes(t *testing.T) {
	m := NewRandom(testCfg, 1)
	toks := seqTokens(10, testCfg.Vocab, 2)
	res := m.Prefill(toks, 0, true)
	if res.Cache.Tokens != 10 || res.Cache.NumLayers != 3 {
		t.Fatalf("cache geometry wrong: %d tokens %d layers", res.Cache.Tokens, res.Cache.NumLayers)
	}
	if res.Hidden.Rows != 10 || res.Hidden.Cols != testCfg.Hidden() {
		t.Fatalf("hidden shape %dx%d", res.Hidden.Rows, res.Hidden.Cols)
	}
	if len(res.Attn) != 3 {
		t.Fatalf("want 3 attention matrices, got %d", len(res.Attn))
	}
	if res.Attn[0].Rows != 10 || res.Attn[0].Cols != testCfg.Heads*10 {
		t.Fatalf("attn shape %dx%d", res.Attn[0].Rows, res.Attn[0].Cols)
	}
}

func TestAttentionRowsAreCausalDistributions(t *testing.T) {
	m := NewRandom(testCfg, 3)
	toks := seqTokens(8, testCfg.Vocab, 4)
	res := m.Prefill(toks, 0, true)
	T := 8
	for li, attn := range res.Attn {
		for r := 0; r < T; r++ {
			row := attn.Row(r)
			for h := 0; h < testCfg.Heads; h++ {
				var sum float64
				for tt := 0; tt < T; tt++ {
					w := float64(row[h*T+tt])
					if tt > r && w != 0 {
						t.Fatalf("layer %d: token %d attends to future token %d", li, r, tt)
					}
					if w < 0 {
						t.Fatalf("negative attention weight %v", w)
					}
					sum += w
				}
				if math.Abs(sum-1) > 1e-4 {
					t.Fatalf("layer %d token %d head %d: attention sums to %v", li, r, h, sum)
				}
			}
		}
	}
}

func TestSelectiveAllTokensEqualsFullPrefill(t *testing.T) {
	// Running the partial path over a garbage-filled cache with every
	// token selected must overwrite everything and match full prefill
	// exactly — the core equivalence CacheBlend relies on.
	m := NewRandom(testCfg, 5)
	toks := seqTokens(12, testCfg.Vocab, 6)
	ref := m.Prefill(toks, 0, false)

	g := tensor.NewRNG(99)
	c := m.NewCache(len(toks))
	for i := 0; i < testCfg.Layers; i++ {
		g.FillNormal(c.K[i], 1)
		g.FillNormal(c.V[i], 1)
	}
	h := m.EmbedTokens(toks)
	idx := make([]int, len(toks))
	for i := range idx {
		idx[i] = i
	}
	for li := 0; li < testCfg.Layers; li++ {
		h, _ = m.ForwardLayerPartial(li, h, idx, c, false)
	}
	if tensor.MaxAbsDiff(h.Data, ref.Hidden.Data) > 1e-5 {
		t.Fatal("hidden states differ between full and all-selected partial prefill")
	}
	for i := 0; i < testCfg.Layers; i++ {
		if tensor.MaxAbsDiff(c.K[i].Data, ref.Cache.K[i].Data) > 1e-5 ||
			tensor.MaxAbsDiff(c.V[i].Data, ref.Cache.V[i].Data) > 1e-5 {
			t.Fatalf("layer %d KV differs", i)
		}
	}
}

func TestPrefixCacheReuseMatchesFullPrefill(t *testing.T) {
	// The defining property of prefix caching (§3.2): a prefix's KV is
	// independent of what follows, so prefill(prefix)+partial(suffix)
	// must equal prefill(prefix+suffix).
	m := NewRandom(testCfg, 11)
	full := seqTokens(14, testCfg.Vocab, 12)
	prefix, suffix := full[:9], full[9:]

	ref := m.Prefill(full, 0, false)

	pre := m.Prefill(prefix, 0, false)
	c := pre.Cache
	c.Grow(len(suffix))
	h := m.EmbedTokens(suffix)
	idx := make([]int, len(suffix))
	for i := range idx {
		idx[i] = 9 + i
	}
	for li := 0; li < testCfg.Layers; li++ {
		h, _ = m.ForwardLayerPartial(li, h, idx, c, false)
	}
	for r := range suffix {
		if tensor.MaxAbsDiff(h.Row(r), ref.Hidden.Row(9+r)) > 1e-4 {
			t.Fatalf("suffix token %d hidden differs from full prefill", r)
		}
	}
	for i := 0; i < testCfg.Layers; i++ {
		if tensor.MaxAbsDiff(c.K[i].Data, ref.Cache.K[i].Data) > 1e-4 {
			t.Fatalf("layer %d keys differ", i)
		}
	}
}

func TestChunkShiftEqualsPrefillAtOffset(t *testing.T) {
	// A chunk prefilled at base 0 and RoPE-shifted to base 20 must carry
	// the same keys as the chunk prefilled at base 20 directly (Appendix
	// A positional recovery). Values and hidden states are position-
	// independent under pure relative encoding.
	m := NewRandom(testCfg, 13)
	toks := seqTokens(6, testCfg.Vocab, 14)

	at0 := m.Prefill(toks, 0, false)
	cs := make([]float32, testCfg.RotaryDims)
	m.Rope.Angles(cs, 20)
	for i := 0; i < testCfg.Layers; i++ {
		at0.Cache.RotateKeys(i, 0, len(toks), testCfg.KVHeads, testCfg.HeadDim, cs)
	}
	at20 := m.Prefill(toks, 20, false)

	for i := 0; i < testCfg.Layers; i++ {
		if tensor.MaxAbsDiff(at0.Cache.K[i].Data, at20.Cache.K[i].Data) > 1e-3 {
			t.Fatalf("layer %d shifted keys differ from direct keys", i)
		}
		if tensor.MaxAbsDiff(at0.Cache.V[i].Data, at20.Cache.V[i].Data) > 1e-3 {
			t.Fatalf("layer %d values differ (should be position-independent)", i)
		}
	}
	if tensor.MaxAbsDiff(at0.Hidden.Data, at20.Hidden.Data) > 1e-3 {
		t.Fatal("hidden states should be invariant to absolute chunk position")
	}
}

func TestEmbedUnknownTokenIsZero(t *testing.T) {
	m := NewRandom(testCfg, 1)
	h := m.EmbedTokens([]int{-1, 3})
	for _, v := range h.Row(0) {
		if v != 0 {
			t.Fatal("unknown token must embed to zero")
		}
	}
	if tensor.L2(h.Row(1)) == 0 {
		t.Fatal("known token must embed to non-zero")
	}
}

func TestGenerateDeterministicAndGrowsCache(t *testing.T) {
	m := NewRandom(testCfg, 21)
	toks := seqTokens(5, testCfg.Vocab, 22)
	run := func() ([]int, int) {
		res := m.Prefill(toks, 0, false)
		out := m.Generate(res.Cache, res.Hidden.Row(4), 4, nil)
		return out, res.Cache.Tokens
	}
	a, an := run()
	b, bn := run()
	if len(a) != 4 {
		t.Fatalf("want 4 generated tokens, got %d", len(a))
	}
	if an != 9 || bn != 9 {
		t.Fatalf("cache should have grown to 9 tokens, got %d/%d", an, bn)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy decode must be deterministic")
		}
	}
}

func TestGenerateStopToken(t *testing.T) {
	m := NewRandom(testCfg, 21)
	toks := seqTokens(5, testCfg.Vocab, 22)
	res := m.Prefill(toks, 0, false)
	first := m.Generate(res.Cache.Clone(), res.Hidden.Row(4), 4, nil)
	stopped := m.Generate(res.Cache, res.Hidden.Row(4), 4, func(tok int) bool { return tok == first[0] })
	if len(stopped) != 0 {
		t.Fatalf("stop on first token must yield empty output, got %v", stopped)
	}
}

func TestGenerateMatchesPrefillConsistency(t *testing.T) {
	// Teacher forcing: prefilling [prompt ++ generated] must predict the
	// same continuation tokens at each position as incremental decode
	// produced — i.e. decode is consistent with prefill.
	m := NewRandom(testCfg, 31)
	prompt := seqTokens(6, testCfg.Vocab, 32)
	res := m.Prefill(prompt, 0, false)
	gen := m.Generate(res.Cache, res.Hidden.Row(5), 3, nil)
	if len(gen) != 3 {
		t.Fatalf("want 3 tokens, got %d", len(gen))
	}
	fullRes := m.Prefill(append(append([]int{}, prompt...), gen...), 0, false)
	for i := 0; i < 3; i++ {
		// Position 5+i predicts gen[i].
		logits := m.Logits(fullRes.Hidden.Row(5 + i))
		if got := tensor.Argmax(logits); got != gen[i] {
			t.Fatalf("prefill-predicted token %d = %d, decode said %d", i, got, gen[i])
		}
	}
}

func TestForwardLayerPartialPanics(t *testing.T) {
	m := NewRandom(testCfg, 1)
	c := m.NewCache(4)
	h := tensor.New(2, testCfg.Hidden())
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad layer", func() { m.ForwardLayerPartial(99, h, []int{0, 1}, c, false) })
	mustPanic("bad shape", func() { m.ForwardLayerPartial(0, h, []int{0}, c, false) })
	mustPanic("descending idx", func() { m.ForwardLayerPartial(0, h, []int{1, 0}, c, false) })
	mustPanic("idx out of range", func() { m.ForwardLayerPartial(0, h, []int{0, 9}, c, false) })

	// Split-sized calls, with the fault in the last row, where a helper
	// goroutine could draw it: each must panic on the caller's goroutine,
	// before any row runs, so the caches stay zero.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 64
	big := m.NewCache(n)
	hb, short := tensor.New(n, testCfg.Hidden()), tensor.New(n-1, testCfg.Hidden())
	tensor.NewRNG(5).FillNormal(hb, 1)
	rows := func(last int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		idx[n-1] = last
		return idx
	}
	if work := n * (n + 1) / 2; work < splitWork {
		t.Fatalf("a %d-row pass's attended work %d is below splitWork %d", n, work, splitWork)
	}
	manyLayers := kvcache.New(testCfg.Layers+1, testCfg.KVDim(), n)
	wideKV := kvcache.New(testCfg.Layers, testCfg.KVDim()+1, n)
	for _, f := range []struct {
		name string
		call func(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache)
	}{
		{"ForwardLayerPartial", func(li int, h *tensor.Matrix, idx []int, c *kvcache.Cache) {
			m.ForwardLayerPartial(li, h, idx, c, false)
		}},
		{"ProjectKV", m.ProjectKV},
	} {
		mustPanic(f.name+": bad layer", func() { f.call(testCfg.Layers, hb, rows(n-1), big) })
		mustPanic(f.name+": bad shape", func() { f.call(0, short, rows(n-1), big) })
		mustPanic(f.name+": repeated last idx", func() { f.call(0, hb, rows(n-2), big) })
		mustPanic(f.name+": last idx out of range", func() { f.call(0, hb, rows(n), big) })
		mustPanic(f.name+": cache of other depth", func() { f.call(0, hb, rows(n-1), manyLayers) })
		mustPanic(f.name+": cache of other KV width", func() { f.call(0, hb, rows(n-1), wideKV) })
	}
	for _, c := range []*kvcache.Cache{big, manyLayers, wideKV} {
		for li := range c.K {
			if tensor.L2(c.K[li].Data) != 0 || tensor.L2(c.V[li].Data) != 0 {
				t.Fatalf("a rejected call wrote layer %d of a %d-layer cache", li, c.NumLayers)
			}
		}
	}
}

func TestNoRopeNoNormNoFFNConfig(t *testing.T) {
	cfg := Config{Name: "bare", Layers: 2, Heads: 2, KVHeads: 2, HeadDim: 4,
		FFNDim: 0, Vocab: 16, RotaryDims: 0, Norm: NormNone}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewRandom(cfg, 3)
	if m.Rope != nil {
		t.Fatal("RotaryDims=0 must not build a rope table")
	}
	toks := seqTokens(5, cfg.Vocab, 4)
	res := m.Prefill(toks, 0, false)
	if res.Cache.Tokens != 5 {
		t.Fatal("prefill failed on bare config")
	}
	// Without RoPE, prefill at different base positions is identical.
	res2 := m.Prefill(toks, 50, false)
	if tensor.MaxAbsDiff(res.Cache.K[0].Data, res2.Cache.K[0].Data) != 0 {
		t.Fatal("no-rope keys must be position independent")
	}
}

func TestNewZeroIsInert(t *testing.T) {
	m := NewZero(testCfg)
	toks := seqTokens(4, testCfg.Vocab, 1)
	res := m.Prefill(toks, 0, false)
	if tensor.L2(res.Hidden.Data) != 0 {
		t.Fatal("zero model must produce zero hidden states for zero embeddings")
	}
}

func TestGQADiffersFromMHA(t *testing.T) {
	// Same seed, different KVHeads → different behaviour (sanity that the
	// GQA grouping is actually wired through).
	cfgA := testCfg
	cfgA.KVHeads = 4
	cfgB := testCfg
	cfgB.KVHeads = 2
	toks := seqTokens(6, testCfg.Vocab, 3)
	ha := NewRandom(cfgA, 5).Prefill(toks, 0, false).Hidden
	hb := NewRandom(cfgB, 5).Prefill(toks, 0, false).Hidden
	if tensor.MaxAbsDiff(ha.Data, hb.Data) == 0 {
		t.Fatal("GQA grouping appears to have no effect")
	}
}

// TestConcurrentForwardPasses runs prefills on one fresh model from
// several goroutines at once, so they race to build the weight index,
// share the scratch pool and, their passes being split-sized, share the
// helper goroutines; every result must equal a sequential prefill on a
// second model with the same weights.
func TestConcurrentForwardPasses(t *testing.T) {
	m := NewRandom(testCfg, 41)
	toks := seqTokens(64, testCfg.Vocab, 42)
	if work := len(toks) * (len(toks) + 1) / 2; work < splitWork {
		t.Fatalf("a %d-token pass's attended work %d is below splitWork %d", len(toks), work, splitWork)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	want := NewRandom(testCfg, 41).Prefill(toks, 0, true)
	const workers = 4
	got := make([]*PrefillResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = m.Prefill(toks, 0, w%2 == 0)
		}(w)
	}
	wg.Wait()
	for w, res := range got {
		if !reflect.DeepEqual(res.Cache, want.Cache) || !reflect.DeepEqual(res.Hidden, want.Hidden) {
			t.Fatalf("worker %d: concurrent prefill differs from the sequential one", w)
		}
		if w%2 == 0 && !reflect.DeepEqual(res.Attn, want.Attn) {
			t.Fatalf("worker %d: attention differs from the sequential prefill", w)
		}
	}
}
