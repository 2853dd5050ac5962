package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/baselines"
)

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	out := tab.Format()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "long-header") ||
		!strings.Contains(out, "note: n1") {
		t.Fatalf("format output malformed:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,long-header\n1,2\n") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"2", "6", "7", "8", "10", "12", "13", "14", "15", "16", "17", "burst", "decode", "sched", "prefetch", "router", "failover", "slo"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("entry %d is %q want %q", i, all[i].ID, id)
		}
		if all[i].Desc == "" || all[i].Run == nil {
			t.Fatalf("entry %q incomplete", id)
		}
	}
	if _, ok := ByID("12"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("99"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not found", col)
	return ""
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q", s)
	}
	return v
}

func TestFig06Shape(t *testing.T) {
	tab := Fig06()
	// Per model: deviation at 15% HKVD must be far below ratio 0 and below
	// random selection at the same ratio.
	for i, row := range tab.Rows {
		if row[1] != "15%" {
			continue
		}
		h := num(t, cell(t, tab, i, "hkvd-selection"))
		r := num(t, cell(t, tab, i, "random-selection"))
		if h >= 0.8 {
			t.Fatalf("%s: 15%% HKVD deviation %.2f barely moved from 1.0", row[0], h)
		}
		if h >= r {
			t.Fatalf("%s: HKVD %.2f should beat random %.2f", row[0], h, r)
		}
	}
}

func TestFig07HeavyTail(t *testing.T) {
	tab := Fig07()
	for i := range tab.Rows {
		p50 := num(t, cell(t, tab, i, "p50"))
		p95 := num(t, cell(t, tab, i, "p95"))
		if p95 < 1.5*p50 {
			t.Fatalf("row %d: deviation distribution not heavy-tailed (p50 %.3f p95 %.3f)", i, p50, p95)
		}
	}
}

func TestFig08Correlation(t *testing.T) {
	tab := Fig08()
	var sum float64
	for i := range tab.Rows {
		sum += num(t, cell(t, tab, i, "spearman"))
	}
	avg := sum / float64(len(tab.Rows))
	if avg < 0.6 {
		t.Fatalf("mean neighbouring-layer rank correlation %.2f too low for Insight 2", avg)
	}
}

func TestFig10NoExtraDelayBelowThreshold(t *testing.T) {
	tab := Fig10()
	// At 15% on the 1 GB/s SSD the extra delay column must be ~0.
	for i, row := range tab.Rows {
		if row[0] == "15%" {
			if num(t, cell(t, tab, i, "extra-vs-loading")) > 1e-3 {
				t.Fatalf("15%% should be hidden by loading: %v", row)
			}
		}
	}
	b := Fig10b()
	if len(b.Notes) != 3 {
		t.Fatalf("device-choice notes missing: %v", b.Notes)
	}
}

func TestFig15SpeedupsReasonable(t *testing.T) {
	tab := Fig15()
	for i := range tab.Rows {
		sp := num(t, cell(t, tab, i, "speedup"))
		if sp < 1.5 || sp > 20 {
			t.Fatalf("row %d speedup %.2f out of plausible range", i, sp)
		}
	}
}

func TestFig12SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full model quality runs")
	}
	tab := Fig12(6)
	// 4 datasets × 3 models × 4 schemes rows.
	if len(tab.Rows) != 4*3*4 {
		t.Fatalf("unexpected row count %d", len(tab.Rows))
	}
	// For every dataset/model, cacheblend quality ≥ reuse quality and
	// cacheblend TTFT < full TTFT.
	byKey := map[string]map[baselines.Scheme][]string{}
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		if byKey[key] == nil {
			byKey[key] = map[baselines.Scheme][]string{}
		}
		byKey[key][baselines.Scheme(row[2])] = row
	}
	for key, group := range byKey {
		blendQ := num(t, group[baselines.CacheBlend][3])
		reuseQ := num(t, group[baselines.FullKVReuse][3])
		if blendQ < reuseQ {
			t.Fatalf("%s: blend quality %.2f below reuse %.2f", key, blendQ, reuseQ)
		}
		blendT := num(t, group[baselines.CacheBlend][5])
		fullT := num(t, group[baselines.FullRecompute][5])
		if blendT >= fullT {
			t.Fatalf("%s: blend TTFT %.3f not below full %.3f", key, blendT, fullT)
		}
	}
}

func TestFig17TieredShape(t *testing.T) {
	tab := Fig17Tiered(600)
	if len(tab.Rows) != 3*3 {
		t.Fatalf("want 9 rows (3 splits × 3 rates), got %d", len(tab.Rows))
	}
	// Acceptance: at every rate, the HBM+RAM+NVMe stack must beat
	// NVMe-only mean TTFT at equal total capacity.
	ttft := map[string]map[string]float64{}
	for i, row := range tab.Rows {
		if ttft[row[0]] == nil {
			ttft[row[0]] = map[string]float64{}
		}
		ttft[row[0]][row[1]] = num(t, cell(t, tab, i, "mean-ttft(s)"))
	}
	for rate, flat := range ttft["nvme-only"] {
		deep := ttft["hbm+ram+nvme"][rate]
		if deep >= flat {
			t.Fatalf("rate %s: hbm+ram+nvme TTFT %.4f not below nvme-only %.4f", rate, deep, flat)
		}
	}
}

// TestBurstSweepShape is the workload-subsystem acceptance check: at
// equal mean rate, rising burstiness must measurably inflate p95 TTFT for
// every scheme, and CacheBlend must absorb the heaviest bursts far better
// than full recompute.
func TestBurstSweepShape(t *testing.T) {
	tab := BurstSweep(600)
	if len(tab.Rows) != 3*3 {
		t.Fatalf("want 9 rows (3 schemes × 3 workloads), got %d", len(tab.Rows))
	}
	p95 := map[string]map[string]float64{}
	for i, row := range tab.Rows {
		if p95[row[0]] == nil {
			p95[row[0]] = map[string]float64{}
		}
		p95[row[0]][row[1]] = num(t, cell(t, tab, i, "p95(s)"))
	}
	for scheme, byLoad := range p95 {
		if byLoad["bursty×16"] <= 1.2*byLoad["poisson"] {
			t.Fatalf("%s: burst×16 p95 %.3f not measurably above poisson %.3f",
				scheme, byLoad["bursty×16"], byLoad["poisson"])
		}
	}
	blend := p95["cacheblend"]["bursty×16"]
	full := p95["full-recompute"]["bursty×16"]
	if blend >= full/2 {
		t.Fatalf("under heavy bursts cacheblend p95 %.3f should be far below full recompute's %.3f", blend, full)
	}
}

// TestDecodeSweepShape is the decode-phase acceptance check: CacheBlend's
// mean-TTFT advantage over full recompute stays roughly constant across
// generation lengths, while per-token cost converges — the schemes sit
// far closer on mean TBT than on TTFT, and normalized latency (e2e per
// token) tightens as decode comes to dominate.
func TestDecodeSweepShape(t *testing.T) {
	tab := DecodeSweep(600)
	if len(tab.Rows) != 3*4 {
		t.Fatalf("want 12 rows (3 schemes × 4 lengths), got %d", len(tab.Rows))
	}
	get := func(scheme, decode, col string) float64 {
		for i, row := range tab.Rows {
			if row[0] == scheme && row[1] == decode {
				return num(t, cell(t, tab, i, col))
			}
		}
		t.Fatalf("row %s/%s missing", scheme, decode)
		return 0
	}
	// TTFT advantage roughly constant across generation lengths.
	var lo, hi float64
	for _, d := range []string{"0", "16", "64", "256"} {
		adv := get("full-recompute", d, "mean-ttft(s)") / get("cacheblend", d, "mean-ttft(s)")
		if adv < 2 {
			t.Fatalf("decode %s: TTFT advantage %.2f× collapsed", d, adv)
		}
		if lo == 0 || adv < lo {
			lo = adv
		}
		if adv > hi {
			hi = adv
		}
	}
	if hi > 1.5*lo {
		t.Fatalf("TTFT advantage not roughly constant across generation lengths: %.2f×–%.2f×", lo, hi)
	}
	// Per-token convergence: at the longest generations the schemes sit
	// far closer on TBT than on TTFT…
	ttftRatio := get("full-recompute", "256", "mean-ttft(s)") / get("cacheblend", "256", "mean-ttft(s)")
	tbtRatio := get("full-recompute", "256", "mean-tbt(s)") / get("cacheblend", "256", "mean-tbt(s)")
	if tbtRatio > ttftRatio/1.5 {
		t.Fatalf("decode 256: TBT gap %.2f× not far below TTFT gap %.2f×", tbtRatio, ttftRatio)
	}
	// …and normalized latency converges as decode dominates.
	r16 := get("full-recompute", "16", "e2e/tok(s)") / get("cacheblend", "16", "e2e/tok(s)")
	r256 := get("full-recompute", "256", "e2e/tok(s)") / get("cacheblend", "256", "e2e/tok(s)")
	if r256 >= r16 {
		t.Fatalf("normalized-latency gap widened with generation length: %.2f× at 16 vs %.2f× at 256", r16, r256)
	}
}

// TestSchedSweepShape is the scheduling-policy acceptance check: on the
// bursty workload, chunked prefill must cut P95 TBT against FIFO at
// equal completed throughput (the gain comes from removing stall, not
// from shedding load), with the StallTime column collapsing accordingly;
// decode-priority must pay for its (milder) TBT relief with a higher
// prefill delay than FIFO's.
func TestSchedSweepShape(t *testing.T) {
	tab := SchedSweep(400)
	if len(tab.Rows) != 3*3 {
		t.Fatalf("want 9 rows (3 policies × 3 workloads), got %d", len(tab.Rows))
	}
	get := func(policy, load, col string) float64 {
		for i, row := range tab.Rows {
			if row[0] == policy && row[1] == load {
				return num(t, cell(t, tab, i, col))
			}
		}
		t.Fatalf("row %s/%s missing", policy, load)
		return 0
	}
	for _, load := range []string{"bursty×4", "bursty×16"} {
		fifoTBT := get("fifo", load, "p95-tbt(s)")
		chunkTBT := get("chunked-prefill", load, "p95-tbt(s)")
		if chunkTBT >= 0.7*fifoTBT {
			t.Fatalf("%s: chunked-prefill p95 TBT %.4f not well below FIFO's %.4f", load, chunkTBT, fifoTBT)
		}
		fifoTput := get("fifo", load, "tput(req/s)")
		chunkTput := get("chunked-prefill", load, "tput(req/s)")
		if chunkTput < 0.95*fifoTput {
			t.Fatalf("%s: chunked-prefill throughput %.3f fell below FIFO's %.3f — TBT win must come at equal throughput",
				load, chunkTput, fifoTput)
		}
		if stall := get("chunked-prefill", load, "stall(s)"); stall >= get("fifo", load, "stall(s)")/2 {
			t.Fatalf("%s: chunked-prefill stall %.1fs not well below FIFO's %.1fs",
				load, stall, get("fifo", load, "stall(s)"))
		}
	}
	// Decode-priority trades prefill delay for decoder relief.
	if dp, fifo := get("decode-priority", "bursty×16", "prefill-delay(s)"), get("fifo", "bursty×16", "prefill-delay(s)"); dp <= fifo {
		t.Fatalf("decode-priority prefill delay %.3f should exceed FIFO's %.3f (that is the trade)", dp, fifo)
	}
	if dp, fifo := get("decode-priority", "bursty×16", "mean-tbt(s)"), get("fifo", "bursty×16", "mean-tbt(s)"); dp > fifo {
		t.Fatalf("decode-priority mean TBT %.4f above FIFO's %.4f — deferring prefills bought nothing", dp, fifo)
	}
}

func TestFig14ScalingShape(t *testing.T) {
	tab := Fig14Scaling(400)
	if len(tab.Rows) != 3*4 {
		t.Fatalf("want 12 rows (3 replica counts × 4 rates), got %d", len(tab.Rows))
	}
	// At the top (most saturating) rate, the 4-replica cluster must
	// complete requests faster than the single replica.
	tput := map[string]float64{}
	for i, row := range tab.Rows {
		if (i+1)%4 == 0 { // last rate of each replica block
			tput[row[0]] = num(t, cell(t, tab, i, "tput(req/s)"))
		}
	}
	if tput["4"] <= tput["1"] {
		t.Fatalf("4-replica saturated throughput %.2f not above 1-replica %.2f", tput["4"], tput["1"])
	}
}

func TestPrefetchSweepShape(t *testing.T) {
	tab := PrefetchSweep(600)
	if len(tab.Rows) != 3*2 {
		t.Fatalf("want 6 rows (3 policies × 2 workloads), got %d", len(tab.Rows))
	}
	get := func(policy, load, col string) float64 {
		for i, row := range tab.Rows {
			if row[0] == policy && row[1] == load {
				return num(t, cell(t, tab, i, col))
			}
		}
		t.Fatalf("row %s/%s missing", policy, load)
		return 0
	}
	// The headline claim: on heavily bursty traffic the async policies
	// turn queueing delay into transfer overlap — less tier-read stall,
	// lower mean TTFT, a hotter top tier — at unchanged throughput.
	const load = "bursty×24"
	offStall, offTTFT := get("off", load, "stall(s)"), get("off", load, "mean-ttft(s)")
	for _, policy := range []string{"on-enqueue", "predictive"} {
		if s := get(policy, load, "stall(s)"); s >= 0.85*offStall {
			t.Fatalf("%s stall %.3f not well below synchronous %.3f", policy, s, offStall)
		}
		if ttft := get(policy, load, "mean-ttft(s)"); ttft >= offTTFT {
			t.Fatalf("%s mean TTFT %.3f not below synchronous %.3f", policy, ttft, offTTFT)
		}
		if h, o := get(policy, load, "hbm-hit"), get("off", load, "hbm-hit"); h <= o {
			t.Fatalf("%s HBM hit %.0f%% not above synchronous %.0f%%", policy, h, o)
		}
		if tp, o := get(policy, load, "tput(req/s)"), get("off", load, "tput(req/s)"); tp < 0.99*o {
			t.Fatalf("%s throughput %.3f fell below synchronous %.3f", policy, tp, o)
		}
		// Speculation is never free: accuracy and waste must be reported.
		if acc := get(policy, load, "accuracy"); acc <= 0 || acc > 100 {
			t.Fatalf("%s accuracy %.0f%% out of range", policy, acc)
		}
		if w := get(policy, load, "wasted(MB)"); w <= 0 {
			t.Fatalf("%s wasted bytes not reported", policy)
		}
	}
	// The synchronous baseline issues no transfers at all.
	offRows := 0
	for i, row := range tab.Rows {
		if row[0] != "off" {
			continue
		}
		offRows++
		if acc := cell(t, tab, i, "accuracy"); acc != "-" {
			t.Fatalf("off row %s reports prefetch accuracy %q", row[1], acc)
		}
	}
	if offRows != 2 {
		t.Fatalf("want 2 off rows (one per workload), got %d", offRows)
	}
}

func TestFailoverSweepShape(t *testing.T) {
	tab := FailoverSweep(600)
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 rows (one per routing policy), got %d", len(tab.Rows))
	}
	get := func(policy, col string) float64 {
		for i, row := range tab.Rows {
			if row[0] == policy {
				return num(t, cell(t, tab, i, col))
			}
		}
		t.Fatalf("row %s missing", policy)
		return 0
	}
	// Every policy sees the same kill, and the routed policies drain a
	// real backlog off the dead node.
	for _, policy := range []string{"hash", "affinity"} {
		if r := get(policy, "rerouted"); r <= 0 {
			t.Fatalf("%s re-routed %.1f requests, want > 0 (the kill drains a backlog)", policy, r)
		}
		if rec := get(policy, "recovery(s)"); rec <= 0 {
			t.Fatalf("%s recovery %.2f, want > 0", policy, rec)
		}
	}
	// The headline claim: affinity re-scores the orphaned tenant onto
	// overlapping survivors, so it re-warms cheaper and recovers faster
	// than ring-successor hashing.
	if a, h := get("affinity", "recovery(s)"), get("hash", "recovery(s)"); a >= h {
		t.Fatalf("affinity recovery %.2f s not below hash %.2f s", a, h)
	}
	if a, h := get("affinity", "rewarm(s)"), get("hash", "rewarm(s)"); a >= h {
		t.Fatalf("affinity re-warm stall %.2f s not below hash %.2f s", a, h)
	}
}

// TestSLOSweepShape is the deadline-aware-scheduling acceptance check.
// At overload (the largest closed-loop client pool) the slo policy must
// beat FIFO and decode-priority on SLO attainment — holding late
// requests back so feasible ones make their targets is the whole point —
// and the open-loop rows must show the self-throttling contrast: a
// closed pool's admission queue is bounded by its client count while the
// open-loop queue at the same offered rate grows far past it.
func TestSLOSweepShape(t *testing.T) {
	tab := SLOSweep(400)
	if len(tab.Rows) != 4*3+3 {
		t.Fatalf("want 15 rows (4 policies × 3 loads closed + 3 open), got %d", len(tab.Rows))
	}
	get := func(loop, policy, load, col string) float64 {
		for i, row := range tab.Rows {
			if row[0] == loop && row[1] == policy && row[2] == load {
				return num(t, cell(t, tab, i, col))
			}
		}
		t.Fatalf("row %s/%s/%s missing", loop, policy, load)
		return 0
	}
	for _, load := range []string{"moderate", "overload"} {
		slo := get("closed", "slo", load, "attain")
		for _, rival := range []string{"fifo", "decode-priority", "chunked-prefill"} {
			if r := get("closed", rival, load, "attain"); slo <= r {
				t.Fatalf("%s: slo attainment %.3f not above %s's %.3f", load, slo, rival, r)
			}
		}
		if sg, fg := get("closed", "slo", load, "goodput(r/s)"), get("closed", "fifo", load, "goodput(r/s)"); sg <= fg {
			t.Fatalf("%s: slo goodput %.3f not above fifo's %.3f", load, sg, fg)
		}
	}
	// Self-throttling: the closed overload pool (3 tenants × 12 clients)
	// bounds its queue at the client count; the open-loop stream at the
	// matching offered rate does not.
	if q := get("closed", "fifo", "overload", "queue"); q > 36 {
		t.Fatalf("closed-loop mean queue depth %.1f exceeds the 36-client pool", q)
	}
	if oq, cq := get("open", "fifo", "overload", "queue"), get("closed", "fifo", "overload", "queue"); oq <= 2*cq {
		t.Fatalf("open-loop queue depth %.1f not well above closed-loop's %.1f", oq, cq)
	}
	// The closed loop's realised rate flattens at saturation instead of
	// tracking the offered rate the open-loop rows are fed.
	if cr, or := get("closed", "fifo", "overload", "rate(r/s)"), get("open", "fifo", "overload", "rate(r/s)"); cr >= or/2 {
		t.Fatalf("closed-loop realised rate %.2f did not self-throttle below the offered %.2f", cr, or)
	}
}
