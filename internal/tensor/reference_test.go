package tensor

// Softmax as it was before it skipped exponentials, kept verbatim apart
// from its name, followed by the scan of nonzero weights its caller made
// (the model's attention pass). FuzzSoftmax requires Softmax to write the
// same bits and return the same indices.

import "math"

func refSoftmax(x []float32) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxv))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range x {
		x[i] *= inv
	}
}

func refNonzeros(dst []int, x []float32) []int {
	dst = dst[:0]
	for i, v := range x {
		if v != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}
