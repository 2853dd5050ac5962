package tensor_test

import (
	"testing"

	"repro/internal/model"
	"repro/internal/qamodel"
	"repro/internal/tensor"
)

// BenchmarkVecMatInto times one vector-matrix product with a dense input
// on two weight shapes: Mistral7BSim's random (dense) FFN gate projection,
// 128×256 with no zero entries, where every row is one run; and the
// constructed QA model's layer-0 query projection, 160×160 with 54
// nonzeros, where the runs skip almost every entry.
func BenchmarkVecMatInto(b *testing.B) {
	qa, _ := qamodel.Build()
	cases := []struct {
		name string
		w    *tensor.Matrix
	}{
		{"dense-mistral7b-sim-w1", model.NewRandom(model.Mistral7BSim, 1).Layer[0].W1},
		{"qa-layer0-wq", qa.Layer[0].Wq},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			g := tensor.NewRNG(2)
			x := make([]float32, c.w.Rows)
			for i := range x {
				x[i] = g.Normal(0, 1)
			}
			dst := make([]float32, c.w.Cols)
			r := tensor.NewRuns(c.w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.VecMatInto(dst, x, c.w, r)
			}
		})
	}
}
