package kvcache

import (
	"testing"
)

// FuzzUnmarshalBinary: arbitrary bytes must never panic the decoder —
// either a valid cache comes back or an error does.
func FuzzUnmarshalBinary(f *testing.F) {
	good, _ := randomCache(1, 2, 4, 3).MarshalBinary()
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:25])
	truncated := append([]byte(nil), good...)
	truncated = truncated[:len(truncated)-1]
	f.Add(truncated)
	for _, h := range oversizedHeaders() {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Cache
		if err := c.UnmarshalBinary(data); err != nil {
			return
		}
		// A successfully decoded cache must round-trip identically.
		out, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if len(out) != len(data) {
			t.Fatalf("round trip changed length: %d -> %d", len(data), len(out))
		}
	})
}
