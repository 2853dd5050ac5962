package experiments

import (
	"strings"
	"testing"
)

func TestPmapOrderAndWorkers(t *testing.T) {
	defer func(old int) { MaxParallel = old }(MaxParallel)
	for _, mp := range []int{1, 2, 0} {
		MaxParallel = mp
		got := pmap(37, func(i int) int { return i * i })
		if len(got) != 37 {
			t.Fatalf("MaxParallel=%d: %d results, want 37", mp, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("MaxParallel=%d: result %d = %d, want %d", mp, i, v, i*i)
			}
		}
	}
	if out := pmap(0, func(int) int { return 0 }); len(out) != 0 {
		t.Fatalf("pmap(0) returned %d results", len(out))
	}
}

func TestPmapPanicPropagates(t *testing.T) {
	defer func(old int) { MaxParallel = old }(MaxParallel)
	for _, mp := range []int{1, 4} {
		MaxParallel = mp
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("MaxParallel=%d: panic did not propagate", mp)
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "cell 3") {
					t.Fatalf("MaxParallel=%d: unexpected panic value %v", mp, r)
				}
			}()
			pmap(8, func(i int) int {
				if i == 3 {
					panic("cell 3 failed")
				}
				return i
			})
		}()
	}
}

// TestParallelSequentialEquivalence is the sweep-parallelism acceptance
// check: every registered experiment, run sequentially (MaxParallel=1)
// and on the default worker pool, must render byte-identical text —
// each cell is an independent deterministic simulation, and the tables
// assemble in grid order either way. The sequential render must also
// match the figure golden; rewrite it on purpose with
//
//	go test ./internal/experiments -run TestParallelSequentialEquivalence -update
//
// and list what moved first by running the same test with -audit.
func TestParallelSequentialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment twice")
	}
	opts := RunOpts{MaxCases: 2, Requests: 120}
	render := func(tabs []*Table) string {
		var b strings.Builder
		for _, tab := range tabs {
			b.WriteString(tab.Format())
			b.WriteByte('\n')
		}
		return b.String()
	}
	defer func(old int) { MaxParallel = old }(MaxParallel)
	var all strings.Builder
	for _, e := range All() {
		MaxParallel = 1
		seq := render(e.Run(opts))
		MaxParallel = 0
		par := render(e.Run(opts))
		if seq != par {
			t.Errorf("figure %s: parallel output diverges from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				e.ID, seq, par)
		}
		all.WriteString(seq)
	}
	checkFigureGolden(t, all.String())
}
