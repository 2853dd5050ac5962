package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestDecodeZeroPreservesLegacyStreams is the seed-compatibility
// guarantee the golden suite rides on: a generator with the zero Decode
// must yield the exact stream it yielded before decode existed —
// Decode{}.Sample consumes no randomness at all.
func TestDecodeZeroPreservesLegacyStreams(t *testing.T) {
	ch := testChunks()
	cases := []struct {
		name           string
		plain, decoded Workload
	}{
		{"poisson", Poisson{Rate: 2, Chunks: ch}, Poisson{Rate: 2, Chunks: ch, Decode: Decode{}}},
		{"bursty", Bursty{Rate: 2, Burst: 8, Chunks: ch}, Bursty{Rate: 2, Burst: 8, Chunks: ch, Decode: Decode{}}},
		{"diurnal", Diurnal{Rate: 2, Amplitude: 0.7, Chunks: ch}, Diurnal{Rate: 2, Amplitude: 0.7, Chunks: ch, Decode: Decode{}}},
	}
	for _, c := range cases {
		a := c.plain.Generate(300, 5)
		b := c.decoded.Generate(300, 5)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: zero Decode changed the stream", c.name)
		}
		for i, r := range a {
			if r.DecodeTokens != 0 {
				t.Fatalf("%s: request %d has decode budget %d without a Decode config", c.name, i, r.DecodeTokens)
			}
		}
	}
}

// TestDecodeGeometricMean: the geometric sampler's empirical mean must
// land near the configured mean, every draw at least one token.
func TestDecodeGeometricMean(t *testing.T) {
	g := tensor.NewRNG(7)
	const mean, n = 48.0, 20000
	d := Decode{Mean: mean}
	sum, min := 0, 1<<30
	for i := 0; i < n; i++ {
		k := d.Sample(g)
		if k < 1 {
			t.Fatalf("draw %d: %d tokens, want ≥ 1", i, k)
		}
		if k < min {
			min = k
		}
		sum += k
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 0.05*mean {
		t.Fatalf("empirical mean %.2f, want ≈ %.0f", got, mean)
	}
	if min != 1 {
		t.Fatalf("20k geometric draws never hit the 1-token floor (min %d)", min)
	}
}

// TestDecodeDeterministic: the fixed distribution emits exactly
// round(Mean) without consuming randomness.
func TestDecodeDeterministic(t *testing.T) {
	d := Decode{Mean: 32.4, Deterministic: true}
	g := tensor.NewRNG(1)
	before := g.Float64()
	g = tensor.NewRNG(1)
	for i := 0; i < 5; i++ {
		if k := d.Sample(g); k != 32 {
			t.Fatalf("draw %d: %d tokens, want 32", i, k)
		}
	}
	if g.Float64() != before {
		t.Fatal("deterministic sampling consumed randomness")
	}
	// A positive sub-token mean clamps to one token on both branches —
	// never silently back to the prefill-only 0.
	if k := (Decode{Mean: 0.4, Deterministic: true}).Sample(g); k != 1 {
		t.Fatalf("deterministic mean 0.4 sampled %d tokens, want 1", k)
	}
	if k := (Decode{Mean: 0.4}).Sample(g); k != 1 {
		t.Fatalf("geometric mean 0.4 sampled %d tokens, want 1", k)
	}
}

// TestDecodeValidate rejects non-finite and negative means.
func TestDecodeValidate(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), MaxDecodeMean + 1, 1e300} {
		if err := (Decode{Mean: bad}).Validate(); err == nil {
			t.Fatalf("mean %v accepted", bad)
		}
		w := Poisson{Rate: 1, Chunks: testChunks(), Decode: Decode{Mean: bad}}
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "decode") {
			t.Fatalf("poisson with decode mean %v: %v", bad, err)
		}
	}
	if err := (Decode{Mean: 0}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Decode{Mean: MaxDecodeMean}).Validate(); err != nil {
		t.Fatalf("mean at the cap rejected: %v", err)
	}
}

// TestDecodeCapBoundsDraws: every draw from a mean Validate accepts, after
// the 1.5× tenant fan-out, passes Request.Validate's budget cap — also the
// largest draw, from the smallest uniform math/rand can return.
func TestDecodeCapBoundsDraws(t *testing.T) {
	mean := 1.5 * MaxDecodeMean
	worst := 1 + int(math.Log(0x1p-63)/math.Log(1-1/mean))
	if worst > MaxDecodeTokens {
		t.Fatalf("largest draw %d exceeds the request cap %d", worst, MaxDecodeTokens)
	}
	g := tensor.NewRNG(3)
	for _, d := range []Decode{{Mean: mean}, {Mean: mean, Deterministic: true}} {
		for i := 0; i < 1000; i++ {
			r := Request{Chunks: []int{0}, DecodeTokens: d.Sample(g)}
			if err := r.Validate(); err != nil {
				t.Fatalf("%+v: draw %d rejected: %v", d, r.DecodeTokens, err)
			}
		}
	}
	r := Request{Chunks: []int{0}, DecodeTokens: MaxDecodeTokens + 1}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "decode tokens") {
		t.Fatalf("budget above the cap: %v", err)
	}
}

// TestGeneratorsCarryDecode: every generator stamps sampled budgets on
// its requests when decode is enabled.
func TestGeneratorsCarryDecode(t *testing.T) {
	ch := testChunks()
	dec := Decode{Mean: 16}
	cases := []Workload{
		Poisson{Rate: 3, Chunks: ch, Decode: dec},
		Bursty{Rate: 3, Burst: 6, Chunks: ch, Decode: dec},
		Diurnal{Rate: 3, Amplitude: 0.5, Chunks: ch, Decode: dec},
		TenantMix(3, 3, ch, 0, dec),
	}
	for _, w := range cases {
		reqs := w.Generate(600, 11)
		sum := 0
		for i, r := range reqs {
			if r.DecodeTokens < 1 {
				t.Fatalf("%s: request %d has no decode budget", w.Name(), i)
			}
			sum += r.DecodeTokens
		}
		mean := float64(sum) / float64(len(reqs))
		if mean < 8 || mean > 32 {
			t.Fatalf("%s: mean decode budget %.1f implausible for configured mean 16", w.Name(), mean)
		}
	}
}

// TestTenantMixDecodeFansOut: per-tenant mean generation lengths fan out
// like the skew — the last tenant generates markedly more than the first.
func TestTenantMixDecodeFansOut(t *testing.T) {
	m := TenantMix(3, 6, Chunks{Pool: 300, PerRequest: 4, Skew: 0.8}, 0, Decode{Mean: 40})
	reqs := m.Generate(3000, 4)
	sums := map[int]int{}
	counts := map[int]int{}
	for _, r := range reqs {
		sums[r.Tenant] += r.DecodeTokens
		counts[r.Tenant]++
	}
	mean := func(tn int) float64 { return float64(sums[tn]) / float64(counts[tn]) }
	if mean(2) < 1.5*mean(0) {
		t.Fatalf("decode means did not fan out: tenant0 %.1f tenant2 %.1f", mean(0), mean(2))
	}
}

// TestTraceDecodeBackwardCompat: the "decode" field round-trips, is
// omitted when zero (pre-decode traces re-record byte-identically), and
// legacy trace lines without it load as prefill-only requests.
func TestTraceDecodeBackwardCompat(t *testing.T) {
	// A legacy-format line (no decode field) loads with DecodeTokens 0.
	legacy := "{\"t\":0.5,\"chunks\":[1,2]}\n"
	reqs, err := Load(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].DecodeTokens != 0 {
		t.Fatalf("legacy line decoded with budget %d", reqs[0].DecodeTokens)
	}
	// Re-recording it reproduces the legacy bytes: no decode key appears.
	var buf bytes.Buffer
	if err := Record(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	if buf.String() != legacy {
		t.Fatalf("re-recorded legacy line changed:\n%q\n%q", buf.String(), legacy)
	}

	// Decode-carrying requests round-trip exactly.
	stream := Poisson{Rate: 2, Chunks: testChunks(), Decode: Decode{Mean: 24}}.Generate(100, 3)
	buf.Reset()
	if err := Record(&buf, stream); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"decode\":") {
		t.Fatal("decode budgets missing from the recorded trace")
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, stream) {
		t.Fatal("decode-carrying trace did not round-trip")
	}

	// Negative budgets are rejected with a line number.
	if _, err := Load(strings.NewReader("{\"t\":0,\"chunks\":[1],\"decode\":-3}\n")); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Fatalf("negative decode accepted: %v", err)
	}
}
