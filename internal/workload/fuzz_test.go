package workload

import (
	"bytes"
	"testing"
)

// FuzzClosedLoop drives a closed-loop session with arbitrary pool shapes,
// think times, decode means and completion schedules and checks the
// contract the serving runtime leans on: every parameter set Validate
// accepts issues only requests Request.Validate accepts (finite arrivals,
// bounded decode budgets); the session always answers (no deadlock —
// every Complete either issues or reports the budget spent); per-client
// arrivals are strictly after t=0 and the completion that triggered them,
// and strictly increase; no client ever has more than one request
// outstanding (so a tenant never exceeds its Clients concurrency limit);
// and exactly n requests are issued in total.
func FuzzClosedLoop(f *testing.F) {
	f.Add(int64(1), 3, 4, uint8(20), []byte{0, 1, 2, 3, 4, 5}, 0.5, 4.0)
	f.Add(int64(7), 1, 1, uint8(5), []byte{0, 0, 0, 0}, 0.5, 4.0)
	f.Add(int64(42), 5, 2, uint8(40), []byte{9, 3, 7, 1, 250}, 0.5, 4.0)
	f.Add(int64(-3), 2, 8, uint8(2), []byte{}, 0.5, 4.0)
	f.Add(int64(1), 1, 2, uint8(10), []byte{1}, 1e308, 4.0)    // think draws past MaxFloat64
	f.Add(int64(1), 3, 2, uint8(10), []byte{1}, 2.0, 1e300)    // decode draws past MaxInt
	f.Add(int64(2), 3, 2, uint8(30), []byte{1}, MaxThink, 0.0) // at the think cap
	f.Add(int64(3), 3, 2, uint8(30), []byte{2}, 1e-9, float64(MaxDecodeMean))
	f.Add(int64(4), 2, 3, uint8(30), []byte{1, 2}, 5e-324, 4.0) // subnormal think: every draw rounds to 0
	f.Add(int64(5), 2, 3, uint8(30), []byte{3}, 1e-300, 4.0)    // draws far below an ulp of each completion

	f.Fuzz(func(t *testing.T, seed int64, tenants, clients int, n uint8, picks []byte, think, mean float64) {
		if tenants < 0 || tenants > 8 || clients < 1 || clients > 8 {
			return
		}
		w := ClosedLoop{Tenants: tenants, Clients: clients, Think: think,
			Chunks: Chunks{Pool: 64, PerRequest: 2, Skew: 0.8}, Decode: Decode{Mean: mean, Deterministic: seed%2 == 0}}
		if w.Validate() != nil {
			return
		}
		sess := w.Session(int(n), seed)

		// outstanding[ci] is the client's in-flight arrival (-1 = idle);
		// last[ci] its latest arrival (0 = none yet: a first arrival must
		// still be after t=0, since every client starts mid-think).
		outstanding := make([]float64, sess.Clients())
		last := make([]float64, sess.Clients())
		for ci := range outstanding {
			outstanding[ci] = -1
		}
		issued := 0
		now := 0.0
		note := func(iss Issue) {
			if iss.Client < 0 || iss.Client >= sess.Clients() {
				t.Fatalf("issue from client %d of %d", iss.Client, sess.Clients())
			}
			if outstanding[iss.Client] >= 0 {
				t.Fatalf("client %d issued while a request was outstanding: concurrency limit broken", iss.Client)
			}
			if iss.Req.Arrival <= last[iss.Client] {
				t.Fatalf("client %d arrival %v not after %v", iss.Client, iss.Req.Arrival, last[iss.Client])
			}
			if iss.Req.Arrival <= now {
				t.Fatalf("client %d arrival %v not after the completion at %v", iss.Client, iss.Req.Arrival, now)
			}
			if err := iss.Req.Validate(); err != nil {
				t.Fatalf("issued invalid request: %v", err)
			}
			outstanding[iss.Client] = iss.Req.Arrival
			last[iss.Client] = iss.Req.Arrival
			issued++
		}
		for _, iss := range sess.Initial() {
			note(iss)
		}
		// Complete in an arbitrary (fuzzer-chosen) order among in-flight
		// clients; the session must keep answering regardless.
		for step := 0; issued < int(n) || anyOutstanding(outstanding); step++ {
			busy := make([]int, 0, len(outstanding))
			for ci, a := range outstanding {
				if a >= 0 {
					busy = append(busy, ci)
				}
			}
			if len(busy) == 0 {
				break // budget spent and everything completed
			}
			var pick int
			if len(picks) > 0 {
				pick = int(picks[step%len(picks)]) % len(busy)
			}
			ci := busy[pick]
			if outstanding[ci] > now {
				now = outstanding[ci]
			}
			now += 0.125 // service time
			outstanding[ci] = -1
			if iss, ok := sess.Complete(ci, now); ok {
				note(iss)
			} else if issued != int(n) {
				t.Fatalf("session refused at %d of %d issued", issued, n)
			}
		}
		if issued != int(n) {
			t.Fatalf("session issued %d requests, budget %d", issued, n)
		}
		if _, ok := sess.Complete(0, now+1); ok {
			t.Fatal("session issued past its budget")
		}
	})
}

func anyOutstanding(outstanding []float64) bool {
	for _, a := range outstanding {
		if a >= 0 {
			return true
		}
	}
	return false
}

// FuzzTraceRoundTrip throws arbitrary bytes at the JSONL trace decoder:
// it must never panic, and whenever it accepts an input, the encoding
// must be canonical — encode→decode→encode is byte-stable and the decoded
// requests survive unchanged.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte(`{"t":0.5,"chunks":[3,0,17]}` + "\n" + `{"t":1.25,"tenant":2,"chunks":[51]}` + "\n"))
	f.Add([]byte(`{"t":0,"chunks":[0]}`))
	f.Add([]byte(`{"t":1e-3,"chunks":[1,2,3,4,5,6]}` + "\n"))
	f.Add([]byte("{not json\n"))
	f.Add([]byte(`{"t":-1,"chunks":[0]}`))
	f.Add([]byte(`{"t":0.5,"chunks":[2],"decode":40}` + "\n"))
	f.Add([]byte(`{"t":0.5,"chunks":[2],"decode":-7}`))
	f.Add([]byte(""))
	var buf bytes.Buffer
	if err := Record(&buf, Bursty{Rate: 3, Burst: 6, Chunks: Chunks{Pool: 40, PerRequest: 2, Skew: 1.1},
		Decode: Decode{Mean: 12}}.Generate(30, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		var enc1 bytes.Buffer
		if err := Record(&enc1, reqs); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		again, err := Load(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("round trip changed request count: %d → %d", len(reqs), len(again))
		}
		var enc2 bytes.Buffer
		if err := Record(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding not canonical:\n%q\n%q", enc1.Bytes(), enc2.Bytes())
		}
	})
}
