package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/audit"
)

var (
	updateGolden = flag.Bool("update", false, "rewrite the figure golden")
	auditGolden  = flag.Bool("audit", false, "on a figure golden mismatch, print one row per moved table column")
)

// figureGolden holds every registered figure's tables at the sizes
// TestParallelSequentialEquivalence renders. testdata/fig_all.txt holds
// `cacheblend -fig all` at its default sizes, without the "finished in"
// lines; CI diffs it, since rendering it here under -race takes a minute.
var figureGolden = filepath.Join("testdata", "figures.txt")

// checkFigureGolden compares the rendered figures with the golden, or
// rewrites the golden under -update. The quality figures record amd64
// float32 rounding, so other architectures skip the comparison.
func checkFigureGolden(t *testing.T, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(figureGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", figureGolden)
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("figure golden records amd64 rounding; %s may fuse multiply-adds", runtime.GOARCH)
		return
	}
	blob, err := os.ReadFile(figureGolden)
	if err != nil {
		t.Fatalf("missing figure golden (run with -update once): %v", err)
	}
	want := string(blob)
	if got == want {
		return
	}
	if *auditGolden {
		t.Errorf("figures moved from %s:\n%s", figureGolden, auditFigures(got, want))
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("figures differ from %s at line %d (rerun with -audit for every moved column):\n got %q\nwant %q",
				figureGolden, i+1, g, w)
		}
	}
}

// table is one Format-rendered table read back from text.
type table struct {
	header []string
	rows   [][]string
	notes  []string
}

// cellSep splits a Format row: columns are padded and joined by two
// spaces, and no cell holds two spaces in a row.
var cellSep = regexp.MustCompile(`  +`)

// parseTables reads Format output back into tables keyed by title.
func parseTables(text string) (map[string]*table, []string) {
	tables := map[string]*table{}
	var titles []string
	var cur *table
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, " ")
		switch {
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			title := strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")
			cur = &table{}
			tables[title] = cur
			titles = append(titles, title)
		case cur == nil || line == "":
		case strings.HasPrefix(line, "note: "):
			cur.notes = append(cur.notes, line)
		case cur.header == nil:
			cur.header = cellSep.Split(line, -1)
		default:
			cur.rows = append(cur.rows, cellSep.Split(line, -1))
		}
	}
	return tables, titles
}

// auditFigures tallies every moved cell by table and column, with the
// row (its first cell) as the case.
func auditFigures(got, want string) string {
	var tally audit.Tally
	gt, titles := parseTables(got)
	wt, wantTitles := parseTables(want)
	for _, title := range wantTitles {
		if gt[title] == nil {
			tally.Add(title, "table", "absent", "present")
		}
	}
	for _, title := range titles {
		g, w := gt[title], wt[title]
		if w == nil {
			tally.Add(title, "table", "present", "absent")
			continue
		}
		if strings.Join(g.header, "|") != strings.Join(w.header, "|") {
			tally.Add(title+" | header", "table", "moved", "")
		}
		if len(g.rows) != len(w.rows) {
			tally.Add(title+" | rows", "table", fmt.Sprint(len(g.rows)), fmt.Sprint(len(w.rows)))
		}
		if strings.Join(g.notes, "\n") != strings.Join(w.notes, "\n") {
			tally.Add(title+" | notes", "table", "moved", "")
		}
		for r := 0; r < len(g.rows) && r < len(w.rows); r++ {
			where := fmt.Sprintf("row %d (%s)", r+1, cellAt(w.rows[r], 0))
			for c, col := range g.header {
				if gc, wc := cellAt(g.rows[r], c), cellAt(w.rows[r], c); gc != wc {
					tally.Add(title+" | "+col, where, gc, wc)
				}
			}
		}
	}
	return tally.String()
}

// cellAt returns a row's i-th cell, or "" past its end: a trailing empty
// cell reads back as no cell.
func cellAt(row []string, i int) string {
	if i < len(row) {
		return row[i]
	}
	return ""
}
