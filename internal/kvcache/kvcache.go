// Package kvcache defines the KV-cache data structure shared by the
// transformer substrate, the CacheBlend fusor, the KV store and the
// serving simulator.
//
// A Cache holds, for every transformer layer, the key and value vectors of
// every token (already flattened across KV heads, i.e. each token's K row
// has KVHeads×HeadDim entries). Keys are stored *with RoPE applied*, the
// way production serving systems store them; re-using a cache at a
// different position therefore requires the rotation-shift of §4.3 /
// Appendix A, implemented here as RotateKeys, which re-positions one
// token range of one layer.
package kvcache

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/rope"
	"repro/internal/tensor"
)

// Cache is the KV cache of a token sequence across all layers.
type Cache struct {
	// NumLayers is the number of transformer layers.
	NumLayers int
	// KVDim is the flattened KV width per token (KVHeads × HeadDim).
	KVDim int
	// Tokens is the sequence length.
	Tokens int
	// BasePos is the absolute position of token 0 when the cache was
	// computed. Pre-computed chunk caches have BasePos 0; fusing them into
	// a longer input shifts their keys (see RotateKeys).
	BasePos int
	// K[i] and V[i] are Tokens×KVDim matrices for layer i.
	K []*tensor.Matrix
	V []*tensor.Matrix
}

// New returns a zero-filled cache with the given geometry.
func New(numLayers, kvDim, tokens int) *Cache {
	c := &Cache{
		NumLayers: numLayers,
		KVDim:     kvDim,
		Tokens:    tokens,
		K:         make([]*tensor.Matrix, numLayers),
		V:         make([]*tensor.Matrix, numLayers),
	}
	for i := 0; i < numLayers; i++ {
		c.K[i] = tensor.New(tokens, kvDim)
		c.V[i] = tensor.New(tokens, kvDim)
	}
	return c
}

// Clone returns a deep copy of c.
func (c *Cache) Clone() *Cache {
	out := New(c.NumLayers, c.KVDim, c.Tokens)
	out.BasePos = c.BasePos
	for i := 0; i < c.NumLayers; i++ {
		out.K[i].CopyFrom(c.K[i])
		out.V[i].CopyFrom(c.V[i])
	}
	return out
}

// RowK returns the key row for token j on layer i (aliases storage).
func (c *Cache) RowK(i, j int) []float32 { return c.K[i].Row(j) }

// RowV returns the value row for token j on layer i (aliases storage).
func (c *Cache) RowV(i, j int) []float32 { return c.V[i].Row(j) }

// SetToken stores k and v for token j on layer i.
func (c *Cache) SetToken(i, j int, k, v []float32) {
	copy(c.K[i].Row(j), k)
	copy(c.V[i].Row(j), v)
}

// Slice returns a deep copy of tokens [from, to) across all layers. The
// slice's BasePos is adjusted so absolute positions are preserved.
func (c *Cache) Slice(from, to int) *Cache {
	if from < 0 || to > c.Tokens || from > to {
		panic(fmt.Sprintf("kvcache: slice [%d,%d) out of range %d", from, to, c.Tokens))
	}
	out := New(c.NumLayers, c.KVDim, to-from)
	out.BasePos = c.BasePos + from
	for i := 0; i < c.NumLayers; i++ {
		copy(out.K[i].Data, c.K[i].Data[from*c.KVDim:to*c.KVDim])
		copy(out.V[i].Data, c.V[i].Data[from*c.KVDim:to*c.KVDim])
	}
	return out
}

// RotateKeys rotates the keys of tokens [from, to) on layer li by the
// angles cs, which rope.Table.Angles wrote for one position delta: the
// first len(cs) dims of each of the kvHeads heads of width headDim turn,
// the rest stay. Every token of the range moves by the same delta, so
// one set of angles serves them all. It is the re-positioning step of
// blend's fused cache and of the engine's loader. A rotation by a delta
// of 0 is not quite the identity: it can turn a -0 key entry into +0.
func (c *Cache) RotateKeys(li, from, to, kvHeads, headDim int, cs []float32) {
	rot := len(cs)
	if rot > headDim {
		panic(fmt.Sprintf("kvcache: rotary dims %d > head dim %d", rot, headDim))
	}
	if kvHeads*headDim != c.KVDim {
		panic(fmt.Sprintf("kvcache: %d heads × %d dim != kv dim %d", kvHeads, headDim, c.KVDim))
	}
	if from < 0 || to > c.Tokens || from > to {
		panic(fmt.Sprintf("kvcache: rotate [%d,%d) out of range %d", from, to, c.Tokens))
	}
	for j := from; j < to; j++ {
		row := c.K[li].Row(j)
		for h := 0; h < kvHeads; h++ {
			rope.Rotate(row[h*headDim:h*headDim+rot], cs)
		}
	}
}

// Grow extends the cache by extra zero-filled token rows on every layer.
// Decode uses this to append one position per generated token before the
// layer forward passes fill the new rows in.
func (c *Cache) Grow(extra int) {
	if extra <= 0 {
		return
	}
	newTokens := c.Tokens + extra
	for i := 0; i < c.NumLayers; i++ {
		nk := tensor.New(newTokens, c.KVDim)
		copy(nk.Data, c.K[i].Data)
		c.K[i] = nk
		nv := tensor.New(newTokens, c.KVDim)
		copy(nv.Data, c.V[i].Data)
		c.V[i] = nv
	}
	c.Tokens = newTokens
}

// SizeBytes returns the serialised size of the cache payload (K and V
// float32 data across all layers), the quantity that matters for storage
// devices and loading-delay estimation.
func (c *Cache) SizeBytes() int64 {
	return int64(c.NumLayers) * int64(c.Tokens) * int64(c.KVDim) * 4 * 2
}

// LayerBytes returns the serialised size of one layer's K+V data.
func (c *Cache) LayerBytes() int64 {
	return int64(c.Tokens) * int64(c.KVDim) * 4 * 2
}

const magic = uint32(0x4b564342) // "KVCB"

// MarshalBinary serialises the cache with a fixed header followed by raw
// little-endian float32 K and V planes, layer by layer.
func (c *Cache) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 24+c.SizeBytes())
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.NumLayers))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.KVDim))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(c.Tokens))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(int64(c.BasePos)))
	buf = append(buf, hdr[:]...)
	var scratch [4]byte
	appendPlane := func(m *tensor.Matrix) {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(v))
			buf = append(buf, scratch[:]...)
		}
	}
	for i := 0; i < c.NumLayers; i++ {
		appendPlane(c.K[i])
		appendPlane(c.V[i])
	}
	return buf, nil
}

// UnmarshalBinary parses data produced by MarshalBinary.
func (c *Cache) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return fmt.Errorf("kvcache: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != magic {
		return fmt.Errorf("kvcache: bad magic %#x", binary.LittleEndian.Uint32(data[0:]))
	}
	layers := int(binary.LittleEndian.Uint32(data[4:]))
	kvDim := int(binary.LittleEndian.Uint32(data[8:]))
	tokens := int(binary.LittleEndian.Uint32(data[12:]))
	base := int(int64(binary.LittleEndian.Uint64(data[16:])))
	want := 24 + int64(layers)*int64(tokens)*int64(kvDim)*8
	if int64(len(data)) != want {
		return fmt.Errorf("kvcache: payload %d bytes, want %d", len(data), want)
	}
	*c = *New(layers, kvDim, tokens)
	c.BasePos = base
	off := 24
	readPlane := func(m *tensor.Matrix) {
		for i := range m.Data {
			m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	for i := 0; i < layers; i++ {
		readPlane(c.K[i])
		readPlane(c.V[i])
	}
	return nil
}
