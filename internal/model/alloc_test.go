//go:build !race

// The race detector makes sync.Pool drop items at random, so these counts
// only hold in normal builds.

package model

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestForwardAllocatesOnlyResults checks that the forward pass draws its
// working buffers from the model's pool: ForwardLayerPartial allocates
// only the matrices it returns, ProjectKV nothing, Logits its result,
// also when a pass shares its rows with a helper goroutine.
func TestForwardAllocatesOnlyResults(t *testing.T) {
	m := NewRandom(testCfg, 1)
	toks := seqTokens(12, testCfg.Vocab, 2)
	pre := m.Prefill(toks, 0, false)
	idx := []int{3, 7, 11}
	h := m.EmbedTokens([]int{toks[3], toks[7], toks[11]})
	cases := []struct {
		name string
		want float64
		f    func()
	}{
		// One Matrix header and one backing array per returned matrix.
		{"ForwardLayerPartial", 2, func() { m.ForwardLayerPartial(1, h, idx, pre.Cache, false) }},
		{"ForwardLayerPartial+attn", 4, func() { m.ForwardLayerPartial(1, h, idx, pre.Cache, true) }},
		{"ProjectKV", 0, func() { m.ProjectKV(1, h, idx, pre.Cache) }},
		{"Logits", 1, func() { m.Logits(pre.Hidden.Row(11)) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}

	// Passes that share their rows with a helper allocate no more. They
	// run at GOMAXPROCS 4: testing.AllocsPerRun's GOMAXPROCS 1 would keep
	// them on the caller.
	toks = seqTokens(64, testCfg.Vocab, 3)
	pre = m.Prefill(toks, 0, false)
	h = m.EmbedTokens(toks)
	idx = make([]int, len(toks))
	for i := range idx {
		idx[i] = i
	}
	if work := len(idx) * (len(idx) + 1) / 2; work < splitWork {
		t.Fatalf("a 64-token pass's attended work %d is below splitWork %d", work, splitWork)
	}
	split := []struct {
		name string
		want float64
		f    func()
	}{
		{"split ForwardLayerPartial", 2, func() { m.ForwardLayerPartial(1, h, idx, pre.Cache, false) }},
		{"split ForwardLayerPartial+attn", 4, func() { m.ForwardLayerPartial(1, h, idx, pre.Cache, true) }},
		{"split ProjectKV", 0, func() { m.ProjectKV(1, h, idx, pre.Cache) }},
	}
	for _, c := range split {
		if got := allocsPerRunAt(4, 100, c.f); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}
}

// allocsPerRunAt is testing.AllocsPerRun at GOMAXPROCS procs instead of 1:
// the mean number of allocations of a call to f, rounded down, counted in
// steady state, with GC held off and after 200 warm-up calls. A split
// call's caller can resume on another P than the one it woke its helpers
// from, so the sudogs that WaitGroup.Wait and the helpers' receives park
// on move between the per-P caches; each GC empties the central cache
// behind them, and the runtime then allocates fresh ones. That is the
// runtime's cost, not the call's.
func allocsPerRunAt(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 200; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestScratchGrowsOncePerCall checks that a forward pass sizes its
// working buffers once per call: a pass over 64 tokens, starting from
// buffers sized for one token, allocates a few buffers, not one per
// attended position.
func TestScratchGrowsOncePerCall(t *testing.T) {
	m := NewRandom(testCfg, 1)
	toks := seqTokens(64, testCfg.Vocab, 2)
	m.Prefill(toks[:1], 0, false)
	c := m.NewCache(len(toks))
	h := m.EmbedTokens(toks)
	idx := make([]int, len(toks))
	for i := range idx {
		idx[i] = i
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.ForwardLayerPartial(0, h, idx, c, false)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 16 {
		t.Errorf("a 64-token pass made %d allocations, want at most 16", n)
	}
}
