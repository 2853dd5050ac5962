// Command benchjson parses `go test -bench` text output from stdin into
// a stable JSON document on stdout, so CI can upload the per-benchmark
// numbers as an artifact (BENCH_pr.json) instead of discarding them in
// the job log. One entry per benchmark, keyed by its full sub-benchmark
// name with the -cpu suffix stripped:
//
//	{
//	  "BenchmarkServeSched/chunked-prefill": {
//	    "iterations": 1,
//	    "ns_per_op": 13392991,
//	    "metrics": {"p95-tbt-ms": 41.75}
//	  }
//	}
//
// Non-benchmark lines (pass/fail, package headers, cpu banner) are
// ignored, so the raw `go test` stream pipes straight in. A benchmark
// that appears on several lines (-count > 1) gets the per-field median
// of its runs, which is what CI records and gates:
//
//	go test -run=NONE -bench=. -benchtime=1x -count=5 ./... | benchjson > BENCH_pr.json
//
// With -compare the parsed run is additionally checked against a previous
// PR's committed JSON, and the process exits 1 when a gated benchmark
// regressed beyond the threshold in ns/op or (when the baseline carries
// -benchmem data) allocs/op. The gated set is the serving macros
// (ServeHotPath, ServeReplicas, ServeTiered, ServeSched, ServeRouted,
// ServeFailover) and the fusion path's FusorBlend and Prefill512, so the
// in-repo bench trajectory doubles as a CI regression gate:
//
//	go test -run=NONE -bench=. -benchtime=1x -count=5 ./... | benchjson -compare benchdata/BENCH_pr5.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	// Iterations is b.N, the measured iteration count.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline nanoseconds per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the -benchmem memory columns,
	// promoted out of Metrics so the allocation trajectory is a
	// first-class field. Zero (and omitted from the JSON) when the run
	// lacked -benchmem — older committed baselines stay loadable, they
	// just don't gate allocations.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the remaining value/unit pairs: any b.ReportMetric
	// custom units (absent when the line has none).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// gatedPrefixes names the benchmarks the -compare mode fails on: the
// serving macro benchmarks, whose ns/op is dominated by simulated-cluster
// work rather than harness noise, and the fusion path's blend fusor and
// dense-model prefill, which time the layer kernel on the sparse QA model
// and on dense random weights. Micro benchmarks still land in the JSON for
// the trajectory, they just don't gate.
var gatedPrefixes = []string{
	"BenchmarkServeHotPath",
	"BenchmarkServeReplicas",
	"BenchmarkServeTiered",
	"BenchmarkServeSched",
	"BenchmarkServeRouted",
	"BenchmarkServeFailover",
	"BenchmarkServeClosedDecode",
	"BenchmarkFusorBlend",
	"BenchmarkPrefill512",
}

func main() {
	comparePath := flag.String("compare", "", "baseline BENCH_pr JSON to compare gated benchmarks against (exit 1 on regression)")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional ns/op growth for gated benchmarks")
	markdownPath := flag.String("markdown", "", "append the gated-benchmark comparison as a markdown table to this file (requires -compare); pass $GITHUB_STEP_SUMMARY to surface it on the CI run page")
	flag.Parse()
	if *markdownPath != "" && *comparePath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -markdown renders the comparison table and needs -compare")
		os.Exit(1)
	}
	out, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(out, "", "  ") // map keys marshal sorted
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if *comparePath == "" {
		return
	}
	base, err := loadBaseline(*comparePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	regressions := Compare(out, base, *threshold)
	// The summary table is written before the regression exit so a failed
	// gate still shows its numbers on the run page.
	if *markdownPath != "" {
		md := Markdown(out, base, *comparePath, *threshold)
		f, err := os.OpenFile(*markdownPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if _, err := f.WriteString(md); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		f.Close()
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d gated benchmark(s) regressed past %.0f%% vs %s\n",
			len(regressions), *threshold*100, *comparePath)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: gated benchmarks within %.0f%% of %s\n", *threshold*100, *comparePath)
}

func loadBaseline(path string) (map[string]Bench, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base map[string]Bench
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return base, nil
}

// Compare reports every gated benchmark whose current ns/op — or, when
// both sides carry -benchmem data, allocs/op — exceeds the baseline by
// more than threshold. Benchmarks absent from either side are skipped —
// new benchmarks gate from the next PR's baseline on, retired ones stop
// gating — so the checked-in trajectory never blocks adding or removing
// benchmarks, and a baseline recorded before -benchmem was wired in
// gates on time alone.
func Compare(cur, base map[string]Bench, threshold float64) []string {
	var out []string
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !gated(name) {
			continue
		}
		old, ok := base[name]
		if !ok || old.NsPerOp <= 0 {
			continue
		}
		now := cur[name]
		if now.NsPerOp > old.NsPerOp*(1+threshold) {
			out = append(out, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
				name, now.NsPerOp, old.NsPerOp, (now.NsPerOp/old.NsPerOp-1)*100, threshold*100))
		}
		if old.AllocsPerOp > 0 && now.AllocsPerOp > old.AllocsPerOp*(1+threshold) {
			out = append(out, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (+%.0f%%, limit +%.0f%%)",
				name, now.AllocsPerOp, old.AllocsPerOp, (now.AllocsPerOp/old.AllocsPerOp-1)*100, threshold*100))
		}
	}
	return out
}

// Markdown renders the gated benchmarks as a GitHub-flavoured table —
// baseline vs current ns/op and allocs/op with the growth percentage,
// deltas past the threshold bolded — for the CI step summary. Benchmarks
// without a baseline entry show "new"; baselines recorded before
// -benchmem show "–" in the allocation columns.
func Markdown(cur, base map[string]Bench, baseName string, threshold float64) string {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if gated(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "### Gated benchmarks vs `%s` (limit +%.0f%%)\n\n", baseName, threshold*100)
	b.WriteString("| benchmark | ns/op (base) | ns/op | Δ | allocs/op (base) | allocs/op | Δ |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	delta := func(now, old float64) string {
		if now <= 0 {
			return "–"
		}
		if old <= 0 {
			return "new"
		}
		pct := (now/old - 1) * 100
		s := fmt.Sprintf("%+.1f%%", pct)
		if now > old*(1+threshold) {
			return "**" + s + "**"
		}
		return s
	}
	val := func(v float64) string {
		if v <= 0 {
			return "–"
		}
		return fmt.Sprintf("%.0f", v)
	}
	for _, name := range names {
		now, old := cur[name], base[name]
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s |\n",
			name, val(old.NsPerOp), val(now.NsPerOp), delta(now.NsPerOp, old.NsPerOp),
			val(old.AllocsPerOp), val(now.AllocsPerOp), delta(now.AllocsPerOp, old.AllocsPerOp))
	}
	b.WriteString("\n")
	return b.String()
}

func gated(name string) bool {
	for _, p := range gatedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Parse extracts every benchmark result line from r. A name on several
// lines (-count > 1) gets the median of each field over its lines, so one
// noisy run neither sets nor fails a gate.
func Parse(r io.Reader) (map[string]Bench, error) {
	runs := map[string][]Bench{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, b, ok := parseLine(sc.Text())
		if ok {
			runs[name] = append(runs[name], b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Bench, len(runs))
	for name, bs := range runs {
		out[name] = medianBench(bs)
	}
	return out, nil
}

// medianBench returns the per-field median of one benchmark's runs: the
// middle value of an odd count, the mean of the two middle values of an
// even one. A custom metric takes the median of the runs that report it.
func medianBench(bs []Bench) Bench {
	field := func(get func(Bench) float64) float64 {
		vs := make([]float64, len(bs))
		for i, b := range bs {
			vs[i] = get(b)
		}
		return median(vs)
	}
	out := Bench{
		Iterations:  int64(field(func(b Bench) float64 { return float64(b.Iterations) })),
		NsPerOp:     field(func(b Bench) float64 { return b.NsPerOp }),
		BytesPerOp:  field(func(b Bench) float64 { return b.BytesPerOp }),
		AllocsPerOp: field(func(b Bench) float64 { return b.AllocsPerOp }),
	}
	metrics := map[string][]float64{}
	for _, b := range bs {
		for unit, v := range b.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	for unit, vs := range metrics {
		if out.Metrics == nil {
			out.Metrics = map[string]float64{}
		}
		out.Metrics[unit] = median(vs)
	}
	return out
}

func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseLine parses one `BenchmarkName-8  N  V ns/op  [V unit]...` line;
// ok is false for anything that isn't a benchmark result.
func parseLine(line string) (string, Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Bench{}, false
	}
	name := fields[0]
	// Strip the GOMAXPROCS suffix (Benchmark/sub-8 → Benchmark/sub) so
	// keys compare across runner shapes.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Bench{}, false
	}
	b := Bench{Iterations: iters}
	seenNs := false
	// The rest is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Bench{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seenNs = true
			continue
		case "B/op":
			b.BytesPerOp = v
			continue
		case "allocs/op":
			b.AllocsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[fields[i+1]] = v
	}
	if !seenNs {
		return "", Bench{}, false
	}
	return name, b, true
}
