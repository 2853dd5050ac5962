package chunk

import (
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestHashDeterministicAndDistinct(t *testing.T) {
	a := Hash("m1", []int{1, 2, 3})
	b := Hash("m1", []int{1, 2, 3})
	if a != b {
		t.Fatal("same input must hash identically")
	}
	if Hash("m1", []int{1, 2, 4}) == a {
		t.Fatal("different tokens must hash differently")
	}
	if Hash("m2", []int{1, 2, 3}) == a {
		t.Fatal("different models must hash differently")
	}
	if a.String() == "" || len(a.String()) != 16 {
		t.Fatalf("String() should be 8 hex bytes, got %q", a.String())
	}
}

func TestHashNoLengthConfusion(t *testing.T) {
	// [1,2]+[3] vs [1]+[2,3] style boundary confusion must not collide.
	if Hash("m", []int{12}) == Hash("m", []int{1, 2}) {
		t.Fatal("token boundary confusion")
	}
}

func TestSplitTokens(t *testing.T) {
	toks := []int{0, 1, 2, 3, 4, 5, 6}
	got := SplitTokens(toks, 3)
	if len(got) != 3 || len(got[0]) != 3 || len(got[2]) != 1 {
		t.Fatalf("split shapes wrong: %v", got)
	}
	if got[2][0] != 6 {
		t.Fatal("last chunk content wrong")
	}
}

func TestSplitTokensRoundTrip(t *testing.T) {
	f := func(raw []uint8, size8 uint8) bool {
		size := int(size8%32) + 1
		toks := make([]int, len(raw))
		for i, b := range raw {
			toks[i] = int(b)
		}
		var joined []int
		for _, c := range SplitTokens(toks, size) {
			if len(c) == 0 || len(c) > size {
				return false
			}
			joined = append(joined, c...)
		}
		if len(joined) != len(toks) {
			return false
		}
		for i := range toks {
			if toks[i] != joined[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitTokensPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitTokens([]int{1}, 0)
}

func TestSplitAtBoundaries(t *testing.T) {
	// Sentence of 5 tokens ending in boundary 99, repeated.
	var toks []int
	for i := 0; i < 6; i++ {
		toks = append(toks, 1, 2, 3, 4, 99)
	}
	chunks := SplitAtBoundaries(toks, 12, 99)
	// Every chunk except possibly the last must end on the boundary.
	for i, c := range chunks[:len(chunks)-1] {
		if c[len(c)-1] != 99 {
			t.Fatalf("chunk %d does not end at a boundary: %v", i, c)
		}
		if len(c) > 12 {
			t.Fatalf("chunk %d exceeds size: %d", i, len(c))
		}
	}
	// Round trip.
	var joined []int
	for _, c := range chunks {
		joined = append(joined, c...)
	}
	if len(joined) != len(toks) {
		t.Fatal("boundary split lost tokens")
	}
}

func TestSplitAtBoundariesNoBoundary(t *testing.T) {
	toks := make([]int, 20)
	chunks := SplitAtBoundaries(toks, 8, 99)
	if len(chunks) != 3 || len(chunks[0]) != 8 || len(chunks[2]) != 4 {
		t.Fatalf("fallback to fixed split wrong: %d chunks", len(chunks))
	}
}

// TestHashKnownAnswers pins digests of the streaming SHA-256 encoding
// (model name, a zero byte, little-endian uint64 tokens), so chunk keys —
// and every golden that orders or routes by them — survive changes to how
// Hash builds its input. The 600-token case outgrows the stack buffer.
func TestHashKnownAnswers(t *testing.T) {
	long := make([]int, 600)
	for i := range long {
		long[i] = i*7919 - 300
	}
	for _, c := range []struct {
		model  string
		tokens []int
		want   string
	}{
		{"", nil, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
		{"mistral-7b", []int{0}, "dd5671d931f8d0b08b4de7088f66f5ade1413d87ebb0a62b300405fc4f56262c"},
		{"mistral-7b/gen", []int{41}, "74dcb2d9fecee681c00102389bdb5cacb41b3d8e57c812f7e89002b4b790eb03"},
		{"m", []int{1, -2, 1 << 40}, "8b660d35a55936582a175d72285d7a77fe5250ec8bc045c9e7c64607dc9653db"},
		{"llama-70b", long, "5b27d01ffcbb47cbb9c457b962e1c70c7429244dde3eae31ed75f559cda6ba5f"},
	} {
		id := Hash(c.model, c.tokens)
		if got := hex.EncodeToString(id[:]); got != c.want {
			t.Errorf("Hash(%q, %d tokens) = %s, want %s", c.model, len(c.tokens), got, c.want)
		}
	}
}

// TestHashShortInputAllocationFree: a key of the serving runtime's shape
// hashes without touching the heap.
func TestHashShortInputAllocationFree(t *testing.T) {
	tokens := []int{17}
	if n := testing.AllocsPerRun(100, func() { Hash("Mistral-7B/gen", tokens) }); n != 0 {
		t.Fatalf("Hash allocates %v times per call, want 0", n)
	}
}

func BenchmarkHash(b *testing.B) {
	tokens := []int{17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tokens[0] = i
		sink = Hash("Mistral-7B", tokens)
	}
}

var sink ID
