// Package audit tallies what moved between a committed golden and a fresh
// run, so that a deliberate output change can be reviewed field by field
// instead of as a raw diff. Each row names one field and gives how many
// cases moved in it, the largest relative move, and the case holding it.
// The serve trace-replay goldens and the figure golden print it under
// their tests' -audit flag.
package audit

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Tally accumulates moves keyed by field. The zero value is ready to use.
type Tally struct {
	rows map[string]*row
}

type row struct {
	cases map[string]bool
	max   float64 // largest relative move; -1 until a numeric move
	at    string  // the case holding max, or the first case moved
}

// Add records that field moved from want to got in the named case. When
// both values read as numbers, the move is |got−want|/|want| (+Inf from
// zero); other values count the case only. An empty value is an absent
// one, read as zero: a JSON field left out by omitempty.
func (t *Tally) Add(field, where, got, want string) {
	if t.rows == nil {
		t.rows = map[string]*row{}
	}
	r := t.rows[field]
	if r == nil {
		r = &row{cases: map[string]bool{}, max: -1, at: where}
		t.rows[field] = r
	}
	r.cases[where] = true
	g, gok := number(got)
	w, wok := number(want)
	if !gok || !wok {
		return
	}
	rel := math.Inf(1)
	if w != 0 {
		rel = math.Abs(g-w) / math.Abs(w)
	}
	if rel > r.max {
		r.max, r.at = rel, where
	}
}

// number reads a leaf as a float, ignoring a table cell's unit suffix.
func number(s string) (float64, bool) {
	if s == "" {
		return 0, true
	}
	f, err := strconv.ParseFloat(strings.TrimRight(s, "%×xs"), 64)
	return f, err == nil
}

// Len reports how many fields moved.
func (t *Tally) Len() int { return len(t.rows) }

// String renders one row per moved field, sorted by field.
func (t *Tally) String() string {
	fields := make([]string, 0, len(t.rows))
	for f := range t.rows {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "field\tmoved\tmax move\tat")
	for _, f := range fields {
		r := t.rows[f]
		move := "-"
		switch {
		case math.IsInf(r.max, 1):
			move = "from 0"
		case r.max >= 0:
			move = strconv.FormatFloat(100*r.max, 'f', 2, 64) + "%"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", f, len(r.cases), move, r.at)
	}
	tw.Flush()
	return b.String()
}

// Compare adds every leaf in which two decoded JSON values differ, under
// its path with slice indices collapsed: Tiers[0].Hits and Tiers[2].Hits
// are both field Tiers[].Hits.
func (t *Tally) Compare(where string, got, want any) {
	g, w := map[string]string{}, map[string]string{}
	flatten("", got, g)
	flatten("", want, w)
	for path, gv := range g {
		if gv != w[path] {
			t.Add(collapse(path), where, gv, w[path])
		}
	}
	for path, wv := range w {
		if _, ok := g[path]; !ok {
			t.Add(collapse(path), where, "", wv)
		}
	}
}

// flatten records each leaf of a decoded JSON value under its path:
// object keys joined by dots, slice elements as [i].
func flatten(path string, v any, out map[string]string) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flatten(p, e, out)
		}
	case []any:
		for i, e := range v {
			flatten(path+"["+strconv.Itoa(i)+"]", e, out)
		}
	default:
		out[path] = fmt.Sprint(v)
	}
}

// collapse drops the indices of a flatten path's slice elements.
func collapse(path string) string {
	var b strings.Builder
	skip := false
	for _, r := range path {
		switch {
		case r == '[':
			skip = true
			b.WriteRune(r)
		case r == ']':
			skip = false
			b.WriteRune(r)
		case !skip:
			b.WriteRune(r)
		}
	}
	return b.String()
}
