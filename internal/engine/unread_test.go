package engine

import (
	"math"
	"testing"
	"time"

	"repro/internal/blend"
	"repro/internal/device"
	"repro/internal/kvcache"
)

// poisoned returns req with every chunk cache copied and layers [0, upTo)
// of each copy filled with NaN.
func poisoned(req Request, upTo int) Request {
	out := req
	out.Chunks = make([]*kvcache.Cache, len(req.Chunks))
	for i, c := range req.Chunks {
		p := c.Clone()
		for li := 0; li < upTo; li++ {
			for _, plane := range [][]float32{p.K[li].Data, p.V[li].Data} {
				for x := range plane {
					plane[x] = float32(math.NaN())
				}
			}
		}
		out.Chunks[i] = p
	}
	return out
}

func fuseDigest(res *blend.Result) string {
	d := newDigester()
	d.cache(res.Cache)
	d.matrix(res.Hidden)
	d.ints(res.SelectedPerLayer...)
	for _, h := range res.HKVD {
		d.ints(len(h))
		d.ints(h...)
	}
	d.float64s(res.DeviationByToken)
	return d.sum()
}

func runDigest(res *Result) string {
	d := newDigester()
	d.cache(res.Cache)
	d.matrix(res.Hidden)
	d.ints(res.SelectedPerLayer...)
	return d.sum()
}

// TestUnreadLayersAreNeverRead poisons the chunk KV of every layer a
// fusion never reads with NaN — below the selection layer for blend and
// for Run, pipelined and sequential, and every layer for full recompute —
// and requires every output bit of a clean run: the fused cache, the
// hidden rows, the HKVD sets and the deviations. That is what lets Fuse
// and Run skip loading those layers. Poisoning the selection layer too
// must show, or the check proves nothing.
func TestUnreadLayersAreNeverRead(t *testing.T) {
	for _, dc := range digestCases()[:2] {
		m, req := dc.m, dc.req
		layers := m.Cfg.Layers
		sel := blend.SelectionLayer(dc.selLayer, layers)
		fuse := func(req Request, mode blend.Mode) string {
			return fuseDigest(blend.Fuse(blend.Input{Model: m, Chunks: req.Chunks, ChunkTokens: req.ChunkTokens,
				SuffixTokens: req.SuffixTokens}, blend.Options{Mode: mode, RecomputeRatio: 0.15, SelectionLayer: dc.selLayer}))
		}
		for _, c := range []struct {
			mode   blend.Mode
			unread int
		}{{blend.ModeBlend, sel}, {blend.ModeFullRecompute, layers}} {
			if got := blend.FirstReadLayer(c.mode, dc.selLayer, layers); got != c.unread {
				t.Fatalf("%s %s: FirstReadLayer %d, want %d", m.Cfg.Name, c.mode, got, c.unread)
			}
			clean := fuse(req, c.mode)
			if got := fuse(poisoned(req, c.unread), c.mode); got != clean {
				t.Errorf("%s %s: NaN below layer %d changed the fusion", m.Cfg.Name, c.mode, c.unread)
			}
		}
		if fuse(poisoned(req, sel+1), blend.ModeBlend) == fuse(req, blend.ModeBlend) {
			t.Errorf("%s: NaN on the selection layer did not show", m.Cfg.Name)
		}

		for _, pipelined := range []bool{true, false} {
			cfg := Config{Model: m, Device: device.NVMeSSD, RecomputeRatio: 0.15,
				SelectionLayer: dc.selLayer, Pipelined: pipelined}
			run := func(req Request) string {
				res, err := cfg.Run(req)
				if err != nil {
					t.Fatal(err)
				}
				return runDigest(res)
			}
			clean := run(req)
			if run(poisoned(req, sel)) != clean {
				t.Errorf("%s pipelined=%v: NaN below layer %d changed the run", m.Cfg.Name, pipelined, sel)
			}
			if run(poisoned(req, sel+1)) == clean {
				t.Errorf("%s pipelined=%v: NaN on the selection layer did not show", m.Cfg.Name, pipelined)
			}
		}
	}
}

// TestLoadSkipsRecomputedLayers checks the timeline of a timed run: the
// loader never fetches a layer below the selection layer, so its LoadDone
// stays exactly 0, and it fetches every layer from there on.
func TestLoadSkipsRecomputedLayers(t *testing.T) {
	for _, dc := range digestCases()[:2] {
		sel := blend.SelectionLayer(dc.selLayer, dc.m.Cfg.Layers)
		for _, pipelined := range []bool{true, false} {
			res, err := Config{Model: dc.m, Device: device.NVMeSSD, RecomputeRatio: 0.15,
				SelectionLayer: dc.selLayer, TimeScale: time.Second, Pipelined: pipelined}.Run(dc.req)
			if err != nil {
				t.Fatal(err)
			}
			for li, l := range res.Layers {
				if (li < sel) != (l.LoadDone == 0) {
					t.Errorf("%s pipelined=%v: layer %d loaded at %v (selection layer %d)",
						dc.m.Cfg.Name, pipelined, li, l.LoadDone, sel)
				}
			}
		}
	}
}

// TestRunRejectsUntimeableDelays checks that a timed run refuses a device
// or time scale whose load delay is not a finite, non-negative time.
func TestRunRejectsUntimeableDelays(t *testing.T) {
	dc := digestCases()[1]
	ok := device.Device{Name: "ok", ReadBW: 1e9, WriteBW: 1e9}
	bad := func(mut func(*device.Device)) device.Device {
		d := ok
		mut(&d)
		return d
	}
	for name, c := range map[string]struct {
		dev   device.Device
		scale time.Duration
	}{
		"zero read bandwidth":   {bad(func(d *device.Device) { d.ReadBW = 0 }), time.Second},
		"NaN read bandwidth":    {bad(func(d *device.Device) { d.ReadBW = math.NaN() }), time.Second},
		"infinite latency":      {bad(func(d *device.Device) { d.Latency = math.Inf(1) }), time.Second},
		"unnamed device":        {bad(func(d *device.Device) { d.Name = "" }), time.Second},
		"negative time scale":   {ok, -time.Second},
		"delay past a Duration": {bad(func(d *device.Device) { d.ReadBW = 1e-300 }), time.Second},
	} {
		_, err := Config{Model: dc.m, Device: c.dev, TimeScale: c.scale}.Run(dc.req)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An untimed run never reads the device.
	if _, err := (Config{Model: dc.m}).Run(dc.req); err != nil {
		t.Fatalf("untimed run with no device: %v", err)
	}
	wrong := dc.req
	wrong.Chunks = append([]*kvcache.Cache(nil), dc.req.Chunks...)
	wrong.Chunks[0] = kvcache.New(dc.m.Cfg.Layers-1, dc.m.Cfg.KVDim(), dc.req.Chunks[0].Tokens)
	if _, err := (Config{Model: dc.m}).Run(wrong); err == nil {
		t.Fatal("a chunk cache with the wrong layer count must error")
	}
}

// TestRecomputeCallsReadyPerLayer drives blend's fusor as Run does:
// Assemble, then Recompute with a per-layer callback that loads layer li
// only when it is called, and only from FirstReadLayer up. The callback
// must run once per layer in ascending order, and each of the three modes
// must give Fuse's result, so no layer is touched before its callback.
func TestRecomputeCallsReadyPerLayer(t *testing.T) {
	for _, dc := range digestCases()[:2] {
		m, req := dc.m, dc.req
		mc := m.Cfg
		in := blend.Input{Model: m, Chunks: req.Chunks, ChunkTokens: req.ChunkTokens, SuffixTokens: req.SuffixTokens}
		for _, mode := range []blend.Mode{blend.ModeBlend, blend.ModeFullReuse, blend.ModeFullRecompute} {
			opts := blend.Options{Mode: mode, RecomputeRatio: 0.15, SelectionLayer: dc.selLayer}
			res, err := blend.Assemble(in)
			if err != nil {
				t.Fatal(err)
			}
			first := blend.FirstReadLayer(mode, dc.selLayer, mc.Layers)
			angles := make([]float32, mc.RotaryDims)
			var calls []int
			blend.Recompute(m, res, opts, func(li int) {
				calls = append(calls, li)
				if li < first {
					return
				}
				// Fuse's load of layer li: a zero delta is not rotated.
				off := 0
				for _, cc := range req.Chunks {
					copy(res.Cache.K[li].Data[off*mc.KVDim():], cc.K[li].Data)
					copy(res.Cache.V[li].Data[off*mc.KVDim():], cc.V[li].Data)
					if m.Rope != nil && off != cc.BasePos {
						m.Rope.Angles(angles, off-cc.BasePos)
						res.Cache.RotateKeys(li, off, off+cc.Tokens, mc.KVHeads, mc.HeadDim, angles)
					}
					off += cc.Tokens
				}
			})
			if len(calls) != mc.Layers {
				t.Errorf("%s %s: %d callbacks for %d layers: %v", mc.Name, mode, len(calls), mc.Layers, calls)
			}
			for i, li := range calls {
				if li != i {
					t.Errorf("%s %s: callbacks in order %v", mc.Name, mode, calls)
					break
				}
			}
			if got, want := fuseDigest(res), fuseDigest(blend.Fuse(in, opts)); got != want {
				t.Errorf("%s %s: recompute behind the callback differs from Fuse", mc.Name, mode)
			}
		}
	}
}
