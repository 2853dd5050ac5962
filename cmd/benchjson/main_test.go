package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkServeReplicas/r1-8         	       3	 401234567 ns/op
BenchmarkServeSched/fifo-8          	       1	  12294749 ns/op	       128.7 p95-tbt-ms
BenchmarkServeSched/chunked-prefill-8         	       1	  13392991 ns/op	        41.75 p95-tbt-ms
BenchmarkFuse-8   	      10	 104857600 ns/op	 5242880 B/op	    1024 allocs/op
PASS
ok  	repro	2.345s
?   	repro/cmd/cacheblend	[no test files]
--- BENCH: BenchmarkOdd
    some free-form log line
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	r1 := got["BenchmarkServeReplicas/r1"]
	if r1.Iterations != 3 || r1.NsPerOp != 401234567 || r1.Metrics != nil {
		t.Fatalf("r1 parsed wrong: %+v", r1)
	}
	sched := got["BenchmarkServeSched/chunked-prefill"]
	if sched.NsPerOp != 13392991 || sched.Metrics["p95-tbt-ms"] != 41.75 {
		t.Fatalf("sched parsed wrong: %+v", sched)
	}
	fuse := got["BenchmarkFuse"]
	if fuse.BytesPerOp != 5242880 || fuse.AllocsPerOp != 1024 {
		t.Fatalf("fuse memory columns parsed wrong: %+v", fuse)
	}
	if len(fuse.Metrics) != 0 {
		t.Fatalf("memory columns should not also land in metrics: %+v", fuse.Metrics)
	}
}

func TestParseTakesMedianOfRepeatedLines(t *testing.T) {
	const runs = `pkg: repro
BenchmarkServeHotPath-8   	1	 300 ns/op	 9000 sim-req/s	 40 B/op	 7 allocs/op
BenchmarkServeHotPath-8   	1	 100 ns/op	 7000 sim-req/s	 20 B/op	 5 allocs/op
BenchmarkServeHotPath-8   	1	9900 ns/op	 1000 sim-req/s	 90 B/op	 6 allocs/op
BenchmarkServeSched/fifo-8	1	 200 ns/op
BenchmarkServeSched/fifo-8	1	 400 ns/op	 12 p95-tbt-ms
BenchmarkPrefill512-8     	3	 50 ns/op
`
	got, err := Parse(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	// Odd count: each field's middle value, even when the fields' middle
	// values come from different runs.
	hot := got["BenchmarkServeHotPath"]
	if hot.Iterations != 1 || hot.NsPerOp != 300 || hot.BytesPerOp != 40 || hot.AllocsPerOp != 6 || hot.Metrics["sim-req/s"] != 7000 {
		t.Fatalf("hot path median wrong: %+v", hot)
	}
	// Even count: the mean of the middle two; a metric only some runs
	// report takes the median of those.
	fifo := got["BenchmarkServeSched/fifo"]
	if fifo.NsPerOp != 300 || fifo.Metrics["p95-tbt-ms"] != 12 {
		t.Fatalf("fifo median wrong: %+v", fifo)
	}
	// A single line is kept as it is.
	if p := got["BenchmarkPrefill512"]; p.Iterations != 3 || p.NsPerOp != 50 || p.Metrics != nil {
		t.Fatalf("single run changed: %+v", p)
	}
}

func TestParseRejectsNonBenchLines(t *testing.T) {
	got, err := Parse(strings.NewReader("PASS\nok repro 1.2s\nBenchmarkBroken 3 x ns/op\nBenchmarkNoNs-8 5 12 widgets\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("accepted malformed lines: %v", got)
	}
}

func TestCompareGatesOnlyServingBenchmarks(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkServeReplicas/r1":      {NsPerOp: 100},
		"BenchmarkServeTiered/hbm":       {NsPerOp: 200},
		"BenchmarkServeSched/fifo":       {NsPerOp: 300},
		"BenchmarkFuse":                  {NsPerOp: 10},
		"BenchmarkServeReplicas/retired": {NsPerOp: 50},
	}
	cur := map[string]Bench{
		"BenchmarkServeReplicas/r1": {NsPerOp: 119},  // +19%: within limit
		"BenchmarkServeTiered/hbm":  {NsPerOp: 250},  // +25%: regression
		"BenchmarkServeSched/fifo":  {NsPerOp: 150},  // improvement
		"BenchmarkFuse":             {NsPerOp: 1000}, // micro benchmark: never gates
		"BenchmarkServeSched/new":   {NsPerOp: 999},  // no baseline: skipped
	}
	got := Compare(cur, base, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "BenchmarkServeTiered/hbm") {
		t.Fatalf("want exactly the tiered regression, got %v", got)
	}
	if got := Compare(cur, base, 0.30); len(got) != 0 {
		t.Fatalf("30%% threshold should pass, got %v", got)
	}
}

func TestCompareGatesFusionBenchmarks(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkFusorBlend":         {NsPerOp: 100, AllocsPerOp: 100},
		"BenchmarkPrefill512":         {NsPerOp: 1000},
		"BenchmarkFusorFullRecompute": {NsPerOp: 100},
	}
	cur := map[string]Bench{
		"BenchmarkFusorBlend":         {NsPerOp: 100, AllocsPerOp: 200}, // alloc regression
		"BenchmarkPrefill512":         {NsPerOp: 1300},                  // +30%
		"BenchmarkFusorFullRecompute": {NsPerOp: 500},                   // not gated
	}
	got := Compare(cur, base, 0.20)
	if len(got) != 2 || !strings.Contains(got[0], "BenchmarkFusorBlend") || !strings.Contains(got[1], "BenchmarkPrefill512") {
		t.Fatalf("want the FusorBlend and Prefill512 regressions only, got %v", got)
	}
}

func TestCompareBoundary(t *testing.T) {
	base := map[string]Bench{"BenchmarkServeSched/fifo": {NsPerOp: 100}}
	// Exactly at the limit passes; just above fails.
	if got := Compare(map[string]Bench{"BenchmarkServeSched/fifo": {NsPerOp: 120}}, base, 0.20); len(got) != 0 {
		t.Fatalf("exactly +20%% should pass, got %v", got)
	}
	if got := Compare(map[string]Bench{"BenchmarkServeSched/fifo": {NsPerOp: 121}}, base, 0.20); len(got) != 1 {
		t.Fatalf("+21%% should fail, got %v", got)
	}
	// A zero/garbage baseline entry never gates.
	if got := Compare(map[string]Bench{"BenchmarkServeSched/fifo": {NsPerOp: 121}},
		map[string]Bench{"BenchmarkServeSched/fifo": {NsPerOp: 0}}, 0.20); len(got) != 0 {
		t.Fatalf("zero baseline should be skipped, got %v", got)
	}
}

func TestCompareGatesAllocations(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkServeHotPath":     {NsPerOp: 100, AllocsPerOp: 1000},
		"BenchmarkServeReplicas/r1": {NsPerOp: 100}, // pre--benchmem baseline: no alloc data
	}
	// Alloc regression alone fails even with ns/op flat.
	got := Compare(map[string]Bench{
		"BenchmarkServeHotPath":     {NsPerOp: 100, AllocsPerOp: 1300},
		"BenchmarkServeReplicas/r1": {NsPerOp: 100, AllocsPerOp: 999999},
	}, base, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "allocs/op") ||
		!strings.Contains(got[0], "BenchmarkServeHotPath") {
		t.Fatalf("want exactly the hot-path alloc regression, got %v", got)
	}
	// A baseline without alloc data gates on time alone; fewer allocs pass.
	got = Compare(map[string]Bench{
		"BenchmarkServeHotPath":     {NsPerOp: 100, AllocsPerOp: 500},
		"BenchmarkServeReplicas/r1": {NsPerOp: 90, AllocsPerOp: 42},
	}, base, 0.20)
	if len(got) != 0 {
		t.Fatalf("improvements should pass, got %v", got)
	}
	// One benchmark can regress both ways at once.
	got = Compare(map[string]Bench{
		"BenchmarkServeHotPath": {NsPerOp: 200, AllocsPerOp: 2000},
	}, base, 0.20)
	if len(got) != 2 {
		t.Fatalf("want ns/op and allocs/op regressions, got %v", got)
	}
}

func TestMarkdownTable(t *testing.T) {
	base := map[string]Bench{
		"BenchmarkServeSched/fifo":  {NsPerOp: 100, AllocsPerOp: 1000},
		"BenchmarkServeTiered/hbm":  {NsPerOp: 200},
		"BenchmarkServeReplicas/r1": {NsPerOp: 50},
	}
	cur := map[string]Bench{
		"BenchmarkServeSched/fifo": {NsPerOp: 150, AllocsPerOp: 1100}, // +50% ns: past limit
		"BenchmarkServeTiered/hbm": {NsPerOp: 190},                    // improvement
		"BenchmarkServeSched/new":  {NsPerOp: 999},                    // no baseline
		"BenchmarkFuse":            {NsPerOp: 10},                     // micro: excluded
	}
	md := Markdown(cur, base, "benchdata/BENCH_pr9.json", 0.20)
	if !strings.Contains(md, "benchdata/BENCH_pr9.json") || !strings.Contains(md, "limit +20%") {
		t.Fatalf("header missing baseline or threshold:\n%s", md)
	}
	if !strings.Contains(md, "| `BenchmarkServeSched/fifo` | 100 | 150 | **+50.0%** | 1000 | 1100 | +10.0% |") {
		t.Fatalf("fifo row wrong (regression must be bolded):\n%s", md)
	}
	if !strings.Contains(md, "| `BenchmarkServeTiered/hbm` | 200 | 190 | -5.0% | – | – | – |") {
		t.Fatalf("hbm row wrong (no alloc data must render as dashes):\n%s", md)
	}
	if !strings.Contains(md, "| `BenchmarkServeSched/new` | – | 999 | new |") {
		t.Fatalf("baseline-less benchmark must render as new:\n%s", md)
	}
	if strings.Contains(md, "BenchmarkFuse") {
		t.Fatalf("micro benchmark leaked into the gated table:\n%s", md)
	}
	// Retired benchmarks (baseline-only) don't get rows: the table is the
	// current run's gated set.
	if strings.Contains(md, "BenchmarkServeReplicas/r1") {
		t.Fatalf("retired benchmark leaked into the table:\n%s", md)
	}
}
