//go:build !race

// The race detector makes sync.Pool drop items at random, so these counts
// only hold in normal builds.

package model

import (
	"testing"
)

// TestForwardAllocatesOnlyResults checks that the forward pass draws its
// working buffers from the model's pool: ForwardLayerPartial allocates
// only the matrices it returns, ProjectKV nothing, Logits its result.
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
}
