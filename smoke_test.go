package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goTool runs the go command from the repository root and returns its
// combined output.
func goTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// goToolErr is goTool for commands that are expected to fail: it returns
// the combined output and the error.
func goToolErr(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestBuildAllMains builds every main package under cmd/ and examples/,
// so binaries can't silently rot while only library tests run.
func TestBuildAllMains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	goTool(t, "build", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 8 { // 3 cmds + 6 examples at the time of writing
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("expected at least 8 binaries, built %d: %v", len(entries), names)
	}
}

// TestExamplesRunEndToEnd executes the quickstart, rag_pipeline and
// pipelined_fusion examples and checks for their expected output shape.
func TestExamplesRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs example binaries")
	}
	cases := []struct {
		pkg  string
		want []string
	}{
		{"./examples/quickstart", []string{"question:", "answer:"}},
		{"./examples/rag_pipeline", []string{"scheme", "cacheblend", "full-recompute"}},
		{"./examples/pipelined_fusion", []string{"pipelined", "sequential", "saved"}},
	}
	for _, c := range cases {
		c := c
		t.Run(filepath.Base(c.pkg), func(t *testing.T) {
			t.Parallel()
			out := goTool(t, "run", c.pkg)
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Fatalf("%s output missing %q:\n%s", c.pkg, w, out)
				}
			}
		})
	}
}

// TestServeCLISmoke drives the serving CLI end to end with the new
// replica/batching flags. A default run reports its router telemetry too.
// Counts the runtime would quietly reinterpret — a negative capacity as
// unbounded, fewer than one tenant as one, a negative client pool as open
// loop — are rejected, naming the flag and its value.
func TestServeCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	out := goTool(t, "run", "./cmd/cacheblend-serve",
		"-replicas", "2", "-batch", "4", "-n", "200", "-rates", "1", "-v")
	for _, w := range []string{"replicas=2", "mean_ttft", "replica-util=", "router shared"} {
		if !strings.Contains(out, w) {
			t.Fatalf("serve CLI output missing %q:\n%s", w, out)
		}
	}
	for _, args := range [][]string{
		{"-capacity", "-3"}, {"-tenants", "0"}, {"-tenants", "-2"}, {"-closed-loop", "-1"},
	} {
		out, err := goToolErr(t, "run", "./cmd/cacheblend-serve", args[0], args[1], "-rates", "1", "-n", "10")
		if err == nil || !strings.Contains(out, "cacheblend-serve: "+args[0]+" "+args[1]+":") {
			t.Fatalf("cacheblend-serve %s %s accepted or error unclear:\n%s", args[0], args[1], out)
		}
	}
}

// TestFiguresCLISmoke drives the figure CLI's flags: -list names the
// figures, a small figure run prints its table, and negative counts are
// rejected by name instead of being read as each figure's default.
func TestFiguresCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cacheblend binary")
	}
	out := goTool(t, "run", "./cmd/cacheblend", "-list")
	for _, w := range []string{"reproducible figures:", "14 ", "slo"} {
		if !strings.Contains(out, w) {
			t.Fatalf("cacheblend -list output missing %q:\n%s", w, out)
		}
	}
	out = goTool(t, "run", "./cmd/cacheblend", "-fig", "14", "-requests", "60")
	if !strings.Contains(out, "figure 14 finished in") {
		t.Fatalf("cacheblend -fig 14 output incomplete:\n%s", out)
	}
	for _, args := range [][]string{
		{"-requests", "-5"}, {"-cases", "-1"}, {"-parallel", "-1"},
	} {
		out, err := goToolErr(t, "run", "./cmd/cacheblend", "-fig", "14", args[0], args[1])
		if err == nil || !strings.Contains(out, "cacheblend: "+args[0]+" "+args[1]+":") {
			t.Fatalf("cacheblend %s %s accepted or error unclear:\n%s", args[0], args[1], out)
		}
	}
}

// TestServeCLIWorkloadSmoke drives the serving CLI's workload generators:
// a bursty stream and a multi-tenant mix with per-tenant telemetry.
func TestServeCLIWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	out := goTool(t, "run", "./cmd/cacheblend-serve",
		"-workload", "bursty", "-burst", "8", "-rates", "1", "-n", "200")
	for _, w := range []string{"workload=bursty", "mean_ttft"} {
		if !strings.Contains(out, w) {
			t.Fatalf("bursty serve CLI output missing %q:\n%s", w, out)
		}
	}
	out = goTool(t, "run", "./cmd/cacheblend-serve",
		"-tenants", "3", "-rates", "1", "-n", "300", "-v")
	for _, w := range []string{"tenants=3", "tenant 0", "tenant 2", "hit="} {
		if !strings.Contains(out, w) {
			t.Fatalf("multi-tenant serve CLI output missing %q:\n%s", w, out)
		}
	}
	if out, err := goToolErr(t, "run", "./cmd/cacheblend-serve", "-workload", "sawtooth", "-rates", "1"); err == nil {
		t.Fatalf("unknown workload accepted:\n%s", out)
	}
}

// TestServeCLITraceRecordReplay is the CLI half of the record/replay
// acceptance: a recorded bursty run replayed through -trace must print
// the identical result line, and a malformed trace must fail with a
// line-numbered error.
func TestServeCLITraceRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	gen := goTool(t, "run", "./cmd/cacheblend-serve",
		"-workload", "bursty", "-rates", "1", "-n", "200", "-record", trace)
	replay := goTool(t, "run", "./cmd/cacheblend-serve", "-trace", trace)
	resultLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "mean_ttft") {
				return line
			}
		}
		t.Fatalf("no result line in:\n%s", out)
		return ""
	}
	if g, r := resultLine(gen), resultLine(replay); g != r {
		t.Fatalf("trace replay result differs:\n gen    %s\n replay %s", g, r)
	}
	if !strings.Contains(replay, "workload=trace:run.jsonl") {
		t.Fatalf("replay output does not name the trace:\n%s", replay)
	}

	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := goToolErr(t, "run", "./cmd/cacheblend-serve", "-trace", bad)
	if err == nil {
		t.Fatalf("malformed trace accepted:\n%s", out)
	}
	if !strings.Contains(out, "line 1") {
		t.Fatalf("malformed-trace error does not name the line:\n%s", out)
	}
}

// TestServeCLIDeterministic is the CLI determinism acceptance: the same
// flags and -seed must print byte-identical output across two runs — the
// whole output, result lines, telemetry and all.
func TestServeCLIDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	args := []string{"run", "./cmd/cacheblend-serve",
		"-replicas", "2", "-batch", "4", "-decode", "12", "-n", "200",
		"-rates", "1", "-seed", "7", "-v"}
	a := goTool(t, args...)
	b := goTool(t, args...)
	if a != b {
		t.Fatalf("same seed printed different output:\n--- first\n%s--- second\n%s", a, b)
	}
	// A different seed must not reproduce the same result lines.
	args[len(args)-2] = "8"
	if c := goTool(t, args...); c == a {
		t.Fatal("different -seed reproduced identical output — seed ignored")
	}
}

// TestServeCLIDecodeSmoke drives the decode flags end to end and checks
// the TBT/E2E columns and phase-occupancy telemetry reach the output; the
// fixed distribution and a bad distribution name are covered too.
func TestServeCLIDecodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	out := goTool(t, "run", "./cmd/cacheblend-serve",
		"-decode", "16", "-batch", "4", "-rates", "1", "-n", "200", "-v")
	for _, w := range []string{"decode=16", "tbt=", "e2e=", "tok/s=", "steps prefill="} {
		if !strings.Contains(out, w) {
			t.Fatalf("decode serve CLI output missing %q:\n%s", w, out)
		}
	}
	out = goTool(t, "run", "./cmd/cacheblend-serve",
		"-decode", "8", "-decode-dist", "fixed", "-rates", "1", "-n", "150")
	if !strings.Contains(out, "tbt=") {
		t.Fatalf("fixed-dist decode output missing tbt:\n%s", out)
	}
	if out, err := goToolErr(t, "run", "./cmd/cacheblend-serve",
		"-decode", "8", "-decode-dist", "zipf", "-rates", "1"); err == nil {
		t.Fatalf("unknown -decode-dist accepted:\n%s", out)
	}
	// Unbounded budgets fail validation instead of running out of memory,
	// overflowing a draw, or overflowing a closed-loop arrival to +Inf.
	if out, err := goToolErr(t, "run", "./cmd/cacheblend-serve",
		"-decode", "1e10", "-decode-dist", "fixed", "-rates", "1", "-n", "5"); err == nil || !strings.Contains(out, "decode mean") {
		t.Fatalf("-decode 1e10 accepted or error unclear:\n%s", out)
	}
	if out, err := goToolErr(t, "run", "./cmd/cacheblend-serve",
		"-closed-loop", "2", "-think", "1e308", "-decode", "4", "-n", "10"); err == nil || !strings.Contains(out, "think time") {
		t.Fatalf("-think 1e308 accepted or error unclear:\n%s", out)
	}
}

// TestServeCLISchedSmoke drives the scheduling-policy flags: a
// chunked-prefill run must print the scheduling telemetry, and an
// unknown policy must fail with a clear error.
func TestServeCLISchedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	out := goTool(t, "run", "./cmd/cacheblend-serve",
		"-sched", "chunked-prefill",
		"-decode", "16", "-batch", "4", "-rates", "1", "-n", "200", "-v")
	for _, w := range []string{"sched=chunked-prefill", "tbt=", "sched stall=", "prefill-delay="} {
		if !strings.Contains(out, w) {
			t.Fatalf("chunked-prefill serve CLI output missing %q:\n%s", w, out)
		}
	}
	out = goTool(t, "run", "./cmd/cacheblend-serve",
		"-sched", "decode-priority", "-decode", "16", "-batch", "4", "-rates", "1", "-n", "200", "-v")
	if !strings.Contains(out, "sched=decode-priority") {
		t.Fatalf("decode-priority serve CLI output missing header:\n%s", out)
	}
	if out, err := goToolErr(t, "run", "./cmd/cacheblend-serve",
		"-sched", "sarathi", "-rates", "1"); err == nil || !strings.Contains(out, "scheduling policy") {
		t.Fatalf("unknown -sched accepted or error unclear:\n%s", out)
	}
}

// TestServeCLITraceRejectsWorkloadFlag: -trace fixes the request stream,
// so combining it with an explicit -workload must fail with a clear error
// instead of silently ignoring one of the two.
func TestServeCLITraceRejectsWorkloadFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	goTool(t, "run", "./cmd/cacheblend-serve", "-rates", "1", "-n", "100", "-record", trace)
	out, err := goToolErr(t, "run", "./cmd/cacheblend-serve", "-trace", trace, "-workload", "bursty")
	if err == nil {
		t.Fatalf("-trace with -workload accepted:\n%s", out)
	}
	if !strings.Contains(out, "cannot be combined with -workload") {
		t.Fatalf("rejection message unclear:\n%s", out)
	}
	// -decode flags are baked into the recorded stream too.
	out, err = goToolErr(t, "run", "./cmd/cacheblend-serve", "-trace", trace, "-decode", "32")
	if err == nil || !strings.Contains(out, "-decode") {
		t.Fatalf("-trace with -decode accepted or message unclear:\n%s", out)
	}
	// -trace alone still works.
	if out := goTool(t, "run", "./cmd/cacheblend-serve", "-trace", trace); !strings.Contains(out, "mean_ttft") {
		t.Fatalf("plain -trace replay broken:\n%s", out)
	}
}

// TestServeCLITieredSmoke drives the serving CLI with a three-tier KV
// placement and checks the per-tier telemetry reaches the output.
func TestServeCLITieredSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve binary")
	}
	out := goTool(t, "run", "./cmd/cacheblend-serve",
		"-tiers", "gpu-hbm:20,cpu-ram:60,nvme-ssd:0", "-n", "200", "-rates", "0.5", "-v")
	for _, w := range []string{"placement=gpu-hbm:20,cpu-ram:60,nvme-ssd:0",
		"tier gpu-hbm", "tier cpu-ram", "tier nvme-ssd", "promotions="} {
		if !strings.Contains(out, w) {
			t.Fatalf("tiered serve CLI output missing %q:\n%s", w, out)
		}
	}
	// A context count whose byte total wraps around int64 is rejected,
	// naming the flag and the count: 137438953473 contexts of Mistral-7B's
	// 6×512-token context (3·2²⁷ bytes) used to wrap to one context, and
	// 30000000000 to a negative capacity.
	for _, tc := range []struct{ flag, value, count string }{
		{"-tiers", "gpu-hbm:137438953473,nvme-ssd:0", "137438953473"},
		{"-tiers", "gpu-hbm:30000000000,nvme-ssd:0", "30000000000"},
		{"-capacity", "137438953473", "137438953473"},
	} {
		out, err := goToolErr(t, "run", "./cmd/cacheblend-serve", tc.flag, tc.value, "-rates", "1", "-n", "10")
		if err == nil || !strings.Contains(out, tc.flag+": "+tc.count+" contexts") {
			t.Fatalf("%s %s accepted or error unclear:\n%s", tc.flag, tc.value, out)
		}
	}
}

// TestKVStoreBenchCLISmoke runs the store benchmark on a small workload and
// checks that flags the workload cannot draw from are rejected by name
// instead of panicking (-pool 0) or printing a meaningless hit rate
// (-skew NaN).
func TestKVStoreBenchCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the kvstore-bench binary")
	}
	out := goTool(t, "run", "./cmd/kvstore-bench", "-ops", "2000", "-pool", "200")
	for _, w := range []string{"hit rate by capacity", "50% of pool", "per-tier load time", "gpu-hbm"} {
		if !strings.Contains(out, w) {
			t.Fatalf("kvstore-bench output missing %q:\n%s", w, out)
		}
	}
	for _, args := range [][]string{
		{"-ops", "0"}, {"-pool", "0"}, {"-pool", "-3"},
		{"-skew", "NaN"}, {"-skew", "-1"}, {"-skew", "Inf"},
	} {
		out, err := goToolErr(t, "run", "./cmd/kvstore-bench", args[0], args[1])
		if err == nil || !strings.Contains(out, "kvstore-bench: "+args[0]+" ") || strings.Contains(out, "panic") {
			t.Fatalf("kvstore-bench %s %s accepted or error unclear:\n%s", args[0], args[1], out)
		}
	}
}
