package workload

import (
	"math"

	"repro/internal/sim"
	"repro/internal/tensor"
)

// The Generate loops of Poisson, Bursty and Diurnal as they were while
// each generator materialised its whole stream in one pass (Diurnal with
// its overflow fix), kept verbatim as the references the generators must
// reproduce draw for draw. generateRef builds its tenant streams from
// them, not from the Generate under test.

// refStream is w's stream of n requests from seed as the references draw
// it. A workload with no reference (a Trace, a closed loop, a caller's
// Workload) yields its own Generate.
func refStream(w Workload, n int, seed int64) []Request {
	switch w := w.(type) {
	case Poisson:
		return poissonRef(w, n, seed)
	case Bursty:
		return burstyRef(w, n, seed)
	case Diurnal:
		return diurnalRef(w, n, seed)
	case MultiTenant:
		return generateRef(w, n, seed)
	}
	return w.Generate(n, seed)
}

func poissonRef(p Poisson, n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	g := tensor.NewRNG(seed)
	arrivals := sim.PoissonArrivals(g, p.Rate, n)
	reqs := make([]Request, n)
	k := p.Chunks.PerRequest
	arena := make([]int, n*k)
	z := p.Chunks.Sampler(n)
	for i := range reqs {
		ids := refChunkList(arena, i, k)
		p.Chunks.Sample(g, z, arrivals[i], ids)
		reqs[i] = Request{Arrival: arrivals[i], Chunks: ids, DecodeTokens: p.Decode.Sample(g)}
	}
	return reqs
}

func burstyRef(b Bursty, n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	g := tensor.NewRNG(seed)
	cycle := b.Cycle
	if cycle <= 0 {
		cycle = 32 / b.Rate
	}
	meanOn := cycle / b.Burst
	meanOff := cycle - meanOn
	onRate := b.Rate * b.Burst
	reqs := make([]Request, 0, n)
	k := b.Chunks.PerRequest
	arena := make([]int, n*k)
	z := b.Chunks.Sampler(n)
	t := 0.0
	for len(reqs) < n {
		end := t + expo(g, meanOn)
		for {
			t += expo(g, 1/onRate)
			if t > end || len(reqs) == n {
				break
			}
			ids := refChunkList(arena, len(reqs), k)
			b.Chunks.Sample(g, z, t, ids)
			reqs = append(reqs, Request{Arrival: t, Chunks: ids, DecodeTokens: b.Decode.Sample(g)})
		}
		t = end
		if meanOff > 0 {
			t += expo(g, meanOff)
		}
	}
	return reqs
}

func diurnalRef(d Diurnal, n int, seed int64) []Request {
	if n <= 0 {
		return nil
	}
	g := tensor.NewRNG(seed)
	period := d.Period
	if period <= 0 {
		period = 64 / d.Rate
	}
	peak := d.Rate * (1 + d.Amplitude)
	reqs := make([]Request, 0, n)
	k := d.Chunks.PerRequest
	arena := make([]int, n*k)
	z := d.Chunks.Sampler(n)
	t := 0.0
	for len(reqs) < n {
		t += expo(g, 1/peak)
		rate := d.Rate
		if phase := 2 * math.Pi * t / period; finite(phase) {
			rate *= 1 + d.Amplitude*math.Sin(phase)
		}
		if g.Float64()*peak <= rate {
			ids := refChunkList(arena, len(reqs), k)
			d.Chunks.Sample(g, z, t, ids)
			reqs = append(reqs, Request{Arrival: t, Chunks: ids, DecodeTokens: d.Decode.Sample(g)})
		}
	}
	return reqs
}

// refChunkList returns request i's k chunk ids in arena, capped at their
// own length.
func refChunkList(arena []int, i, k int) []int { return arena[i*k : (i+1)*k : (i+1)*k] }
