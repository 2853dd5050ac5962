package serve

import (
	"testing"

	"repro/internal/tensor"
)

// FuzzPolicyStep throws random member phase/budget mixes at one
// scheduling step — the prefill grant in both orders (admission order,
// and the slo policy's order over random arrivals, tenants with unequal
// running risk and a random boundary time) plus every policy's admission
// quota — and checks the invariants the replica loop's liveness rests
// on: a step with prefill work always grants the first prefiller in its
// order a non-zero slice (the batch can never stall), granted slices
// never exceed a member's remaining tokens, the step grants exactly the
// budget or all the work left, whichever is less (tokens are never
// double-counted nor left idle), and admission quotas stay within the
// batch-cap headroom with decode-priority's aging guarantee intact.
func FuzzPolicyStep(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(256), uint8(2))
	f.Add(int64(7), uint8(1), uint16(1), uint8(0))
	f.Add(int64(42), uint8(12), uint16(512), uint8(9))
	f.Add(int64(-3), uint8(0), uint16(64), uint8(255))

	f.Fuzz(func(t *testing.T, seed int64, n uint8, rawBudget uint16, deferred uint8) {
		g := tensor.NewRNG(seed)
		c := &cluster{cfg: sloConfig()}
		c.resolve()
		c.budget = int(rawBudget%1024) + 1
		tenants := 1 + g.Intn(4)
		for i := g.Intn(32); i > 0; i-- {
			c.bumpRisk(g.Intn(tenants), g.Float64() < 0.5)
		}
		// Waits up to 40 s span all three SLO classes at sloConfig's 2 s
		// target: feasible, late, and aged past starveLimit×2 s.
		now := 40 * g.Float64()
		size := int(n%16) + 1
		batch := make([]*member, size)
		waiting, decoders, work := 0, 0, 0 // members by phase, and the prefill tokens left
		for i := range batch {
			prefTotal := 1 + g.Intn(4096)
			m := &member{
				req:       request{idx: i, arrival: now * g.Float64(), tenant: g.Intn(tenants)},
				prefTotal: prefTotal,
				prefDone:  g.Intn(prefTotal), // < prefTotal: still prefilling
				perTok:    g.Float64(),
				decoding:  g.Float64() < 0.5,
			}
			if m.decoding {
				decoders++
			} else {
				waiting++
				work += m.prefTotal - m.prefDone
			}
			batch[i] = m
		}

		for _, slo := range []bool{false, true} {
			c.sloSched = slo
			for _, m := range batch {
				m.slice = g.Intn(100) // stale garbage the grant must overwrite
			}
			prefillers, d, longest := c.allocPrefill(batch, now)
			if d != decoders || prefillers < 0 || prefillers > waiting {
				t.Fatalf("slo=%v: phase counts out of range: %d prefillers of %d, %d decoders of %d",
					slo, prefillers, waiting, d, decoders)
			}
			granted, maxSlice := 0, 0.0
			first := -1 // the first prefiller in the grant order
			for i, m := range batch {
				if m.decoding {
					continue
				}
				if m.slice < 0 || m.slice > m.prefTotal-m.prefDone {
					t.Fatalf("slo=%v: member %d: slice %d outside [0, %d remaining] — tokens double-counted",
						slo, i, m.slice, m.prefTotal-m.prefDone)
				}
				granted += m.slice
				if s := float64(m.slice) * m.perTok; s > maxSlice {
					maxSlice = s
				}
				if first < 0 || (slo && c.sloCompare(m.req, batch[first].req, now) < 0) {
					first = i
				}
			}
			if want := min(c.budget, work); granted != want {
				t.Fatalf("slo=%v: granted %d tokens, want min(budget %d, %d left) = %d",
					slo, granted, c.budget, work, want)
			}
			if waiting > 0 && batch[first].slice == 0 {
				t.Fatalf("slo=%v: first prefiller in the order (member %d) skipped — the step would stall", slo, first)
			}
			if longest != maxSlice {
				t.Fatalf("slo=%v: longest slice %v, members say %v", slo, longest, maxSlice)
			}
		}

		// Every policy's quota stays inside the headroom, and
		// decode-priority admits once aged past its limit.
		headroom := g.Intn(9)
		for _, sched := range []string{"", SchedFIFO, SchedChunkedPrefill, SchedDecodePriority, SchedSLO} {
			p := &cluster{cfg: schedConfig(sched)}
			p.resolve()
			q := p.admitQuota(batch, headroom, int(deferred))
			if q < 0 || q > headroom {
				t.Fatalf("%s: quota %d outside [0, %d]", sched, q, headroom)
			}
			if sched == SchedDecodePriority && decoders > 0 && headroom > 0 && int(deferred) >= starveLimit && q < 1 {
				t.Fatalf("decode-priority aged %d boundaries but still defers", deferred)
			}
		}
	})
}
