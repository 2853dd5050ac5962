package audit

import (
	"encoding/json"
	"strings"
	"testing"
)

func decode(t *testing.T, s string) any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCompareTalliesFields: moved leaves count once per case under their
// collapsed path, the largest relative move names its case, an absent
// leaf reads as zero and a non-numeric move has no relative size.
func TestCompareTalliesFields(t *testing.T) {
	var tally Tally
	want := `{"Rate":0.5,"Tiers":[{"Hits":10},{"Hits":4}],"Router":"shared","Stall":2}`
	tally.Compare("a", decode(t, `{"Rate":0.55,"Tiers":[{"Hits":11},{"Hits":5}],"Router":"shared","Stall":2}`), decode(t, want))
	tally.Compare("b", decode(t, `{"Rate":0.5,"Tiers":[{"Hits":10},{"Hits":4}],"Router":"hash"}`), decode(t, want))
	tally.Compare("c", decode(t, want), decode(t, want))
	if tally.Len() != 4 {
		t.Fatalf("%d fields moved, want Rate, Tiers[].Hits, Router and Stall:\n%s", tally.Len(), &tally)
	}
	out := tally.String()
	for _, line := range []string{
		"Rate          1      10.00%    a",
		"Router        1      -         b",
		"Stall         1      100.00%   b",
		"Tiers[].Hits  1      25.00%    a",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("audit lacks row %q:\n%s", line, out)
		}
	}
}

// TestAddReadsCellUnits: table cells carry a unit suffix, and a move from
// zero is infinite.
func TestAddReadsCellUnits(t *testing.T) {
	var tally Tally
	tally.Add("hit-rate", "row 1", "44%", "40%")
	tally.Add("hit-rate", "row 2", "41%", "40%")
	tally.Add("ttft", "row 3", "0.2s", "0")
	out := tally.String()
	if !strings.Contains(out, "hit-rate  2      10.00%    row 1") || !strings.Contains(out, "ttft      1      from 0    row 3") {
		t.Fatalf("unexpected audit:\n%s", out)
	}
}
