package kvcache

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rope"
	"repro/internal/tensor"
)

func randomCache(seed int64, layers, kvDim, tokens int) *Cache {
	g := tensor.NewRNG(seed)
	c := New(layers, kvDim, tokens)
	for i := 0; i < layers; i++ {
		g.FillNormal(c.K[i], 1)
		g.FillNormal(c.V[i], 1)
	}
	return c
}

func TestNewGeometry(t *testing.T) {
	c := New(3, 8, 5)
	if c.NumLayers != 3 || c.KVDim != 8 || c.Tokens != 5 {
		t.Fatalf("geometry wrong: %+v", c)
	}
	if len(c.K) != 3 || c.K[0].Rows != 5 || c.K[0].Cols != 8 {
		t.Fatal("layer matrices wrong shape")
	}
}

func TestSetTokenRowAccessors(t *testing.T) {
	c := New(2, 4, 3)
	k := []float32{1, 2, 3, 4}
	v := []float32{5, 6, 7, 8}
	c.SetToken(1, 2, k, v)
	if !reflect.DeepEqual(c.RowK(1, 2), k) || !reflect.DeepEqual(c.RowV(1, 2), v) {
		t.Fatal("SetToken/Row round trip failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := randomCache(1, 2, 4, 3)
	c.BasePos = 7
	d := c.Clone()
	if d.BasePos != 7 {
		t.Fatal("clone must keep BasePos")
	}
	d.K[0].Data[0] = 999
	if c.K[0].Data[0] == 999 {
		t.Fatal("clone must deep-copy")
	}
}

func TestSliceAbsolutePositions(t *testing.T) {
	c := randomCache(3, 2, 4, 6)
	c.BasePos = 10
	s := c.Slice(2, 5)
	if s.Tokens != 3 || s.BasePos != 12 {
		t.Fatalf("slice tokens=%d base=%d", s.Tokens, s.BasePos)
	}
	if !reflect.DeepEqual(s.RowV(1, 0), c.RowV(1, 2)) {
		t.Fatal("slice rows differ")
	}
	// Slice is a deep copy.
	s.V[1].Data[0] = 42
	if c.RowV(1, 2)[0] == 42 {
		t.Fatal("slice must deep-copy")
	}
}

func TestSizeBytes(t *testing.T) {
	c := New(4, 16, 10)
	want := int64(4) * 10 * 16 * 4 * 2
	if c.SizeBytes() != want {
		t.Fatalf("SizeBytes=%d want %d", c.SizeBytes(), want)
	}
	if c.LayerBytes() != want/4 {
		t.Fatalf("LayerBytes=%d want %d", c.LayerBytes(), want/4)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := randomCache(9, 3, 8, 5)
	c.BasePos = 123
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != 24+c.SizeBytes() {
		t.Fatalf("marshal length %d want %d", len(data), 24+c.SizeBytes())
	}
	var d Cache
	if err := d.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if d.BasePos != 123 || d.Tokens != 5 || d.NumLayers != 3 || d.KVDim != 8 {
		t.Fatalf("header fields lost: %+v", d)
	}
	for i := 0; i < 3; i++ {
		if tensor.MaxAbsDiff(c.K[i].Data, d.K[i].Data) != 0 ||
			tensor.MaxAbsDiff(c.V[i].Data, d.V[i].Data) != 0 {
			t.Fatal("payload differs after round trip")
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var c Cache
	if err := c.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer must error")
	}
	good, _ := randomCache(1, 1, 2, 1).MarshalBinary()
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if err := c.UnmarshalBinary(bad); err == nil {
		t.Fatal("bad magic must error")
	}
	if err := c.UnmarshalBinary(good[:len(good)-4]); err == nil {
		t.Fatal("truncated payload must error")
	}
	// Bare headers whose payload size wraps to 0 in int64, or is 0 for any
	// layer count: the decoder must reject them before it allocates.
	for _, h := range oversizedHeaders() {
		if err := c.UnmarshalBinary(h); err == nil {
			t.Fatalf("header %x must error", h)
		}
	}
}

// oversizedHeaders returns bare 24-byte headers that declare
// (2³¹ layers, KV width 4, 2³¹ tokens) and (2³²−1 layers, KV width 0,
// 7 tokens).
func oversizedHeaders() [][]byte {
	var out [][]byte
	for _, g := range [][3]uint32{{1 << 31, 4, 1 << 31}, {1<<32 - 1, 0, 7}} {
		h := make([]byte, 24)
		binary.LittleEndian.PutUint32(h[0:], magic)
		binary.LittleEndian.PutUint32(h[4:], g[0])
		binary.LittleEndian.PutUint32(h[8:], g[1])
		binary.LittleEndian.PutUint32(h[12:], g[2])
		out = append(out, h)
	}
	return out
}

func TestRotateKeysMatchesDirectRope(t *testing.T) {
	// A cache whose keys were RoPE'd at base 0, rotated by a delta of 50,
	// must equal a cache whose keys were RoPE'd at base 50 directly.
	const headDim, kvHeads, tokens = 8, 2, 4
	tab := rope.NewTable(headDim, 10000)
	g := tensor.NewRNG(5)
	raw := make([][]float32, tokens)
	for j := range raw {
		raw[j] = make([]float32, kvHeads*headDim)
		for i := range raw[j] {
			raw[j][i] = g.Normal(0, 1)
		}
	}
	build := func(base int) *Cache {
		c := New(1, kvHeads*headDim, tokens)
		c.BasePos = base
		for j := 0; j < tokens; j++ {
			row := append([]float32(nil), raw[j]...)
			for h := 0; h < kvHeads; h++ {
				tab.Apply(row[h*headDim:(h+1)*headDim], base+j)
			}
			copy(c.K[0].Row(j), row)
		}
		return c
	}
	shifted := build(0)
	cs := make([]float32, headDim)
	tab.Angles(cs, 50)
	shifted.RotateKeys(0, 0, tokens, kvHeads, headDim, cs)
	direct := build(50)
	if tensor.MaxAbsDiff(shifted.K[0].Data, direct.K[0].Data) > 1e-4 {
		t.Fatal("rotated keys differ from directly positioned keys")
	}
}

func TestRotateKeysZeroDeltaKeepsValues(t *testing.T) {
	// A zero delta moves no key by value (only a -0 entry may turn +0),
	// which is why callers may skip it.
	tab := rope.NewTable(4, 10000)
	c := randomCache(2, 1, 4, 3)
	c.K[0].Row(1)[0] = float32(math.Copysign(0, -1))
	before := c.K[0].Clone()
	cs := make([]float32, 4)
	tab.Angles(cs, 0)
	c.RotateKeys(0, 0, 3, 1, 4, cs)
	if tensor.MaxAbsDiff(before.Data, c.K[0].Data) != 0 {
		t.Fatal("a zero-delta rotation must not change any key's value")
	}
}

func TestKVDeviationZeroForIdentical(t *testing.T) {
	c := randomCache(3, 2, 4, 5)
	dev := KVDeviation(c, c.Clone(), 1)
	for _, d := range dev {
		if d != 0 {
			t.Fatal("identical caches must have zero deviation")
		}
	}
}

func TestKVDeviationLocalisesChange(t *testing.T) {
	a := randomCache(3, 2, 4, 5)
	b := a.Clone()
	b.K[1].Row(3)[0] += 10
	dev := KVDeviation(a, b, 1)
	for j, d := range dev {
		if j == 3 && d < 9 {
			t.Fatalf("token 3 deviation %v too small", d)
		}
		if j != 3 && d != 0 {
			t.Fatalf("token %d deviation %v should be 0", j, d)
		}
	}
	// Other layers unaffected.
	for _, d := range KVDeviation(a, b, 0) {
		if d != 0 {
			t.Fatal("layer 0 must be unaffected")
		}
	}
}

func TestAttentionDeviationBasics(t *testing.T) {
	ref := tensor.NewFrom(2, 2, []float32{1, 0, 0, 1})
	if AttentionDeviation(ref, ref) != 0 {
		t.Fatal("self deviation must be 0")
	}
	a := tensor.NewFrom(2, 2, []float32{0, 1, 1, 0})
	d := AttentionDeviation(a, ref)
	if d <= 0 {
		t.Fatal("different matrices must deviate")
	}
	// Known value: ||a-ref|| = 2, ||ref|| = sqrt(2) → sqrt(4/2)=sqrt2.
	if math.Abs(d-math.Sqrt2) > 1e-6 {
		t.Fatalf("deviation %v want sqrt(2)", d)
	}
}

func TestAttentionDeviationZeroRef(t *testing.T) {
	z := tensor.New(2, 2)
	if AttentionDeviation(z, z) != 0 {
		t.Fatal("0 vs 0 must be 0")
	}
	a := tensor.NewFrom(2, 2, []float32{1, 0, 0, 0})
	if !math.IsInf(AttentionDeviation(a, z), 1) {
		t.Fatal("nonzero vs zero ref must be +Inf")
	}
}

func TestMeanDeviation(t *testing.T) {
	if MeanDeviation(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if MeanDeviation([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestTopKIndices(t *testing.T) {
	dev := []float64{0.1, 5, 3, 5, 0.2}
	got := TopKIndices(dev, 3)
	// Highest first; tie between index 1 and 3 breaks toward lower index.
	want := []int{1, 3, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK=%v want %v", got, want)
	}
	if len(TopKIndices(dev, 99)) != len(dev) {
		t.Fatal("k must clamp to len")
	}
	if TopKIndices(dev, 0) != nil {
		t.Fatal("k=0 must return nil")
	}
}

func TestTopKContainsMaximaProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		dev := make([]float64, 20)
		for i := range dev {
			dev[i] = g.Float64()
		}
		k := 5
		top := TopKIndices(dev, k)
		if len(top) != k {
			return false
		}
		minTop := math.Inf(1)
		chosen := map[int]bool{}
		for _, i := range top {
			chosen[i] = true
			if dev[i] < minTop {
				minTop = dev[i]
			}
		}
		for i, d := range dev {
			if !chosen[i] && d > minTop {
				return false // an unchosen element beats a chosen one
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGrow(t *testing.T) {
	c := randomCache(4, 2, 3, 2)
	k0 := append([]float32(nil), c.RowK(1, 1)...)
	c.Grow(3)
	if c.Tokens != 5 {
		t.Fatalf("Tokens=%d want 5", c.Tokens)
	}
	if tensor.MaxAbsDiff(c.RowK(1, 1), k0) != 0 {
		t.Fatal("Grow must preserve existing rows")
	}
	for _, v := range c.RowK(0, 4) {
		if v != 0 {
			t.Fatal("new rows must be zero")
		}
	}
	c.Grow(0) // no-op
	if c.Tokens != 5 {
		t.Fatal("Grow(0) must be a no-op")
	}
}

func TestRotateKeysPartialRotary(t *testing.T) {
	// With rotary dims < head dim, only the rotary prefix of each head
	// may change.
	tab := rope.NewTable(4, 10000) // 4 rotary dims
	const headDim, kvHeads = 8, 2
	c := randomCache(8, 1, kvHeads*headDim, 2)
	before := c.K[0].Clone()
	cs := make([]float32, 4)
	tab.Angles(cs, 10)
	c.RotateKeys(0, 0, 2, kvHeads, headDim, cs)
	for j := 0; j < 2; j++ {
		row := c.K[0].Row(j)
		old := before.Row(j)
		for h := 0; h < kvHeads; h++ {
			for d := 4; d < headDim; d++ {
				if row[h*headDim+d] != old[h*headDim+d] {
					t.Fatal("non-rotary dims must be untouched")
				}
			}
		}
	}
	if tensor.MaxAbsDiff(c.K[0].Data, before.Data) == 0 {
		t.Fatal("rotary dims should have changed")
	}
}

// TestRotateKeysMatchesPerRowShift checks that re-positioning a token
// range with one set of angles gives exactly the bits of shifting each key
// on its own, and leaves other layers, other tokens, the non-rotary dims
// and the values untouched.
func TestRotateKeysMatchesPerRowShift(t *testing.T) {
	const layers, kvHeads, headDim, rot, tokens = 2, 2, 8, 4, 9
	tab := rope.NewTable(rot, 10000)
	for _, delta := range []int{-13, 0, 5} {
		c := randomCache(int64(20+delta), layers, kvHeads*headDim, tokens)
		c.K[1].Row(4)[1] = float32(math.Copysign(0, -1))
		want := c.Clone()
		for j := 3; j < 7; j++ {
			for h := 0; h < kvHeads; h++ {
				tab.Shift(want.K[1].Row(j)[h*headDim:h*headDim+rot], j, j+delta)
			}
		}
		cs := make([]float32, rot)
		tab.Angles(cs, delta)
		c.RotateKeys(1, 3, 7, kvHeads, headDim, cs)
		for i := 0; i < layers; i++ {
			for n, pair := range [][2][]float32{{c.K[i].Data, want.K[i].Data}, {c.V[i].Data, want.V[i].Data}} {
				for x := range pair[0] {
					if math.Float32bits(pair[0][x]) != math.Float32bits(pair[1][x]) {
						t.Fatalf("delta %d layer %d plane %d entry %d: %v, want %v", delta, i, n, x, pair[0][x], pair[1][x])
					}
				}
			}
		}
	}
}

func TestRotateKeysPanics(t *testing.T) {
	c := New(1, 8, 3)
	for name, f := range map[string]func(){
		"rotary wider than head": func() { c.RotateKeys(0, 0, 3, 2, 4, make([]float32, 6)) },
		"heads do not fill row":  func() { c.RotateKeys(0, 0, 3, 1, 4, make([]float32, 4)) },
		"range past the end":     func() { c.RotateKeys(0, 1, 4, 2, 4, make([]float32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			f()
		}()
	}
}
