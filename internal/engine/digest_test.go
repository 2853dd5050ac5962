package engine

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
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/tensor"
)

// digester hashes the exact bits of fusion-path outputs.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		d.h.Write(b[:])
	}
}

func (d *digester) floats(xs []float32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		d.h.Write(b[:])
	}
}

func (d *digester) float64s(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digester) matrix(m *tensor.Matrix) {
	d.ints(m.Rows, m.Cols)
	d.floats(m.Data)
}

func (d *digester) cache(c *kvcache.Cache) {
	d.ints(c.NumLayers, c.KVDim, c.Tokens, c.BasePos)
	for i := 0; i < c.NumLayers; i++ {
		d.matrix(c.K[i])
		d.matrix(c.V[i])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestCase is one model with one fusion request and its selection layer.
type digestCase struct {
	m        *model.Model
	req      Request
	selLayer int
}

func digestCases() []digestCase {
	qa, v := qamodel.Build()
	cfg := dataset.MusiqueConfig()
	cfg.Cases, cfg.ChunksPerCase, cfg.FactsPerChunk = 1, 4, 4
	c := dataset.Generate(v, cfg).Cases[0]
	req := Request{SuffixTokens: c.Query}
	for _, ch := range c.Chunks {
		req.ChunkTokens = append(req.ChunkTokens, ch)
		req.Chunks = append(req.Chunks, qa.Prefill(ch, 0, false).Cache)
	}
	cases := []digestCase{{m: qa, req: req, selLayer: qamodel.SelectionLayer}}
	for i, sc := range model.SimConfigs() {
		m := model.NewRandom(sc, int64(40+i))
		cases = append(cases, digestCase{m: m, req: makeRequest(m, 2, 8, 4, int64(50+i))})
	}
	return cases
}

// TestFusionPathDigests pins the exact bits of every output of the fusion
// path — blend.Fuse in all three modes with attention collection, Run, and
// Prefill followed by Generate — on the constructed QA model and the three
// simulated model configurations. The digests were recorded before the
// layer kernel skipped zero weights and scored keys four at a time; both
// changes must leave every bit where it was.
//
// The digests hold on amd64 only. The Go spec lets a compiler fuse x*y+z
// into one rounding, and on arm64, loong64, ppc64x, riscv64 and s390x the
// compiler emits FMA for the kernels' `s += a*b` sums; amd64 never fuses
// them.
func TestFusionPathDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests record amd64 rounding; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want := map[string]string{
		"qa-constructed-d4/cacheblend":       "19221aca48f3d16ca891307ea92c8bd75523578e99d9bd486cff287edb896f04",
		"qa-constructed-d4/engine":           "00d8be15c902680b6e4005556aee9e1558428f152dbcf8258f5c48562b549a39",
		"qa-constructed-d4/full-kv-reuse":    "90e66334faa966cb812de08299690b5dad7999df5e5071089372cccaa37cc14c",
		"qa-constructed-d4/full-recompute":   "802675825d9c040873656e144c7bfa2ea0e35bbb9f044e1cb1a2fc14d5ebdb14",
		"qa-constructed-d4/prefill+generate": "88907a255e6e5e863844c9a26239749bb673eceaea5ede2bf547760c3f0b6975",
		"mistral7b-sim/cacheblend":           "38740ac215b6641360b9c402415f65a60a3d789d284920319934f8f5f9315abe",
		"mistral7b-sim/engine":               "e5ca59f35ad2be5009d34df8b53769b89289eb6d55633938b33b005a0ae5c076",
		"mistral7b-sim/full-kv-reuse":        "8a4dd9a2364d0795f48078bdf993b29479a91dfd9fcaea9a1ae0e212dc98125c",
		"mistral7b-sim/full-recompute":       "d2fadb7864f036e98ee2c584d12d8ee0f053e47abaab98fad010d01bcaaad885",
		"mistral7b-sim/prefill+generate":     "d5175a46af7b2f5a9b419f949a0d1f10aa71fef13c422b74e5fa4fb7d284bd4b",
		"yi34b-sim/cacheblend":               "ae627544b2f5c5b69d7da9b803cd3c0a41a42c5840cbdbb22b886f897767ba34",
		"yi34b-sim/engine":                   "2d5106bc4c005aeb8b7956c310992ff34dc2c4e23fe73471bc2dfb00d27428ab",
		"yi34b-sim/full-kv-reuse":            "0c76515b19810f35bd28e569a7cd3eb2dcde403554af4dc423b0b9bf50c15433",
		"yi34b-sim/full-recompute":           "cf8a9e436c281f7ecd012acad7d9f1b5c861729207e19cbb670594bb6a7fc85b",
		"yi34b-sim/prefill+generate":         "d2e6322d0b74e2b2aaff3816e1cb79ccd5f828b3a7e16f8b0dac8c011e36b165",
		"llama70b-sim/cacheblend":            "a1c160711cbef0df0ac26c6a909b296d3882f751ee055f585d2e39112b2f6da0",
		"llama70b-sim/engine":                "860f24e17e7648d405ea4d0c3a1aa5c2266e325fc711d689bb01cc92063d1124",
		"llama70b-sim/full-kv-reuse":         "009b17756dbc1cca4852c74be37e863afd13459d0bc38c642ddd134f118c267d",
		"llama70b-sim/full-recompute":        "cef565d80278d74b2d4f30c0f76ff19f961d605a9b7f7cd4f82633b1305f49d4",
		"llama70b-sim/prefill+generate":      "71fab01fda69d71a777bd9939646aaa3b400079d713f1e72d0bc1add6981993c",
	}
	checked := 0
	for _, dc := range digestCases() {
		m, req := dc.m, dc.req
		name := m.Cfg.Name
		in := blend.Input{Model: m, Chunks: req.Chunks, ChunkTokens: req.ChunkTokens, SuffixTokens: req.SuffixTokens}
		got := map[string]string{}
		for _, mode := range []blend.Mode{blend.ModeBlend, blend.ModeFullReuse, blend.ModeFullRecompute} {
			res := blend.Fuse(in, blend.Options{Mode: mode, RecomputeRatio: 0.15,
				SelectionLayer: dc.selLayer, CollectAttention: true})
			d := newDigester()
			d.cache(res.Cache)
			d.matrix(res.Hidden)
			for _, a := range res.Attn {
				d.matrix(a)
			}
			d.ints(res.SelectedPerLayer...)
			for _, h := range res.HKVD {
				d.ints(len(h))
				d.ints(h...)
			}
			d.float64s(res.DeviationByToken)
			d.ints(res.ComputedTokenLayers, res.ProjectedTokenLayers)
			d.ints(tensor.Argmax(m.Logits(res.Hidden.Row(res.Hidden.Rows - 1))))
			got[mode.String()] = d.sum()
		}

		eres, err := Config{Model: m, Device: device.NVMeSSD, RecomputeRatio: 0.15,
			SelectionLayer: dc.selLayer, Pipelined: true}.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigester()
		d.cache(eres.Cache)
		d.matrix(eres.Hidden)
		d.ints(eres.SelectedPerLayer...)
		got["engine"] = d.sum()

		var toks []int
		for _, ct := range req.ChunkTokens {
			toks = append(toks, ct...)
		}
		toks = append(toks, req.SuffixTokens...)
		pre := m.Prefill(toks, 7, true)
		d = newDigester()
		d.cache(pre.Cache)
		d.matrix(pre.Hidden)
		for _, a := range pre.Attn {
			d.matrix(a)
		}
		d.ints(m.Generate(pre.Cache, pre.Hidden.Row(pre.Hidden.Rows-1), 4, nil)...)
		d.cache(pre.Cache)
		got["prefill+generate"] = d.sum()

		for path, sum := range got {
			key := name + "/" + path
			if w, ok := want[key]; !ok || w != sum {
				t.Errorf("%s: digest %s, want %s", key, sum, w)
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d digests, want %d", checked, len(want))
	}
}
