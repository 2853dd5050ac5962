// Package chunk provides text chunking and content-addressed chunk
// identity. A chunk's ID is the SHA-256 of its token ids (plus the model
// name, since a KV cache is only valid for the model that produced it) —
// the same hashing idea vLLM uses for paged-KV block lookup and the paper
// adopts for its KV cache store (§5.1).
package chunk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// ID is a content hash identifying a (model, token sequence) pair.
type ID [32]byte

// String returns the hex form (for logs and map keys in tools).
func (id ID) String() string { return hex.EncodeToString(id[:8]) }

// hashStack is the input size Hash builds on the stack: a model name and
// a short token list (the serving runtime hashes one id per key).
const hashStack = 256

// Hash computes the ID of a token sequence for a given model: the SHA-256
// of the model name, a zero byte, and each token as a little-endian
// uint64. Inputs of up to hashStack bytes are built on the stack, so
// hashing a short key does not allocate.
func Hash(model string, tokens []int) ID {
	var stack [hashStack]byte
	buf := stack[:0]
	if n := len(model) + 1 + 8*len(tokens); n > len(stack) {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, model...)
	buf = append(buf, 0)
	for _, t := range tokens {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(t)))
	}
	return sha256.Sum256(buf)
}

// SplitTokens slices tokens into consecutive chunks of at most size
// tokens. The last chunk may be shorter; size must be positive.
func SplitTokens(tokens []int, size int) [][]int {
	if size <= 0 {
		panic("chunk: non-positive chunk size")
	}
	var out [][]int
	for start := 0; start < len(tokens); start += size {
		end := start + size
		if end > len(tokens) {
			end = len(tokens)
		}
		out = append(out, tokens[start:end])
	}
	return out
}

// SplitAtBoundaries slices tokens into chunks of at most size tokens,
// preferring to cut right after a boundary token (e.g. a sentence period)
// when one occurs in the second half of the window — the behaviour of
// sentence-aware chunkers like LangChain's, which the paper uses.
func SplitAtBoundaries(tokens []int, size int, boundary int) [][]int {
	if size <= 0 {
		panic("chunk: non-positive chunk size")
	}
	var out [][]int
	start := 0
	for start < len(tokens) {
		end := start + size
		if end >= len(tokens) {
			out = append(out, tokens[start:])
			break
		}
		cut := end
		for j := end - 1; j > start+size/2; j-- {
			if tokens[j] == boundary {
				cut = j + 1
				break
			}
		}
		out = append(out, tokens[start:cut])
		start = cut
	}
	return out
}
