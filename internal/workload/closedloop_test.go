package workload

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
)

func testClosedLoop() ClosedLoop {
	return ClosedLoop{Tenants: 3, Clients: 4, Think: 2, Chunks: testChunks(), Decode: Decode{Mean: 16}}
}

func TestClosedLoopValidate(t *testing.T) {
	base := testClosedLoop()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid closed loop rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ClosedLoop)
	}{
		{"negative tenants", func(c *ClosedLoop) { c.Tenants = -1 }},
		{"zero clients", func(c *ClosedLoop) { c.Clients = 0 }},
		{"zero think", func(c *ClosedLoop) { c.Think = 0 }},
		{"negative think", func(c *ClosedLoop) { c.Think = -1 }},
		{"nan think", func(c *ClosedLoop) { c.Think = math.NaN() }},
		{"inf think", func(c *ClosedLoop) { c.Think = math.Inf(1) }},
		{"think above the cap", func(c *ClosedLoop) { c.Think = 1e308 }},
		{"bad chunks", func(c *ClosedLoop) { c.Chunks.PerRequest = 0 }},
		{"pool below tenants", func(c *ClosedLoop) { c.Chunks.Pool = 2 }},
		{"bad decode", func(c *ClosedLoop) { c.Decode.Mean = -1 }},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// TestClosedLoopInitial pins the initial wave: one request per client
// (pool-wide), sorted by arrival, stamped with the client's tenant, and
// drawing chunks from the tenant's disjoint corpus slice.
func TestClosedLoopInitial(t *testing.T) {
	w := testClosedLoop()
	sess := w.Session(1000, 7)
	if got, want := sess.Clients(), 12; got != want {
		t.Fatalf("Clients() = %d, want %d", got, want)
	}
	init := sess.Initial()
	if len(init) != 12 {
		t.Fatalf("initial wave has %d issues, want one per client", len(init))
	}
	slice := w.Chunks.Pool / 3
	seen := make(map[int]bool)
	for i, iss := range init {
		if seen[iss.Client] {
			t.Fatalf("client %d issued twice in the initial wave", iss.Client)
		}
		seen[iss.Client] = true
		r := iss.Req
		if err := r.Validate(); err != nil {
			t.Fatalf("initial issue %d invalid: %v", i, err)
		}
		if i > 0 && r.Arrival < init[i-1].Req.Arrival {
			t.Fatalf("initial wave out of order at %d: %v after %v", i, r.Arrival, init[i-1].Req.Arrival)
		}
		if want := iss.Client / w.Clients; r.Tenant != want {
			t.Fatalf("client %d stamped tenant %d, want %d", iss.Client, r.Tenant, want)
		}
		lo, hi := r.Tenant*slice, (r.Tenant+1)*slice
		for _, id := range r.Chunks {
			if id < lo || id >= hi {
				t.Fatalf("tenant %d drew chunk %d outside its slice [%d, %d)", r.Tenant, id, lo, hi)
			}
		}
		if r.DecodeTokens < 1 {
			t.Fatalf("decode-enabled client issued %d decode tokens", r.DecodeTokens)
		}
	}
}

// TestClosedLoopBudget pins the n budget: a session issues exactly n
// requests across Initial and Complete, then refuses.
func TestClosedLoopBudget(t *testing.T) {
	const n = 30
	sess := testClosedLoop().Session(n, 3)
	issued := len(sess.Initial())
	at := 100.0
	for issued < n+5 {
		iss, ok := sess.Complete(issued%sess.Clients(), at)
		if !ok {
			break
		}
		if iss.Req.Arrival <= at {
			t.Fatalf("arrival %v not after completion %v", iss.Req.Arrival, at)
		}
		at = iss.Req.Arrival
		issued++
	}
	if issued != n {
		t.Fatalf("session issued %d requests, budget %d", issued, n)
	}
	if _, ok := sess.Complete(0, at); ok {
		t.Fatal("session issued past its budget")
	}
}

// TestClosedLoopThinkGaps: the gap from a completion to the client's next
// arrival is a think draw, averaging Think (4000 draws put 3σ at ±4.7%).
func TestClosedLoopThinkGaps(t *testing.T) {
	const n = 4000
	w := testClosedLoop()
	sess := w.Session(2*n, 11)
	sess.Initial()
	sum := 0.0
	for i := 0; i < n; i++ {
		iss, ok := sess.Complete(i%sess.Clients(), 100)
		if !ok {
			t.Fatal("session refused within its budget")
		}
		sum += iss.Req.Arrival - 100
	}
	if mean := sum / n; math.Abs(mean-w.Think) > 0.05*w.Think {
		t.Fatalf("mean think gap %v, want %v ± 5%%", mean, w.Think)
	}
}

// TestClosedLoopSmallBudget: a budget below the pool size truncates the
// initial wave — surplus clients never start.
func TestClosedLoopSmallBudget(t *testing.T) {
	sess := testClosedLoop().Session(5, 3)
	if got := len(sess.Initial()); got != 5 {
		t.Fatalf("initial wave has %d issues under budget 5", got)
	}
}

// TestClosedLoopDeterminism: same seed ⇒ byte-identical session
// trajectory; different seed ⇒ a different one.
func TestClosedLoopDeterminism(t *testing.T) {
	drive := func(seed int64) []Request {
		sess := testClosedLoop().Session(200, seed)
		var out []Request
		var pending []Issue
		pending = append(pending, sess.Initial()...)
		for len(pending) > 0 {
			// Complete in arrival order, as the simulator would.
			sort.SliceStable(pending, func(a, b int) bool {
				return pending[a].Req.Arrival < pending[b].Req.Arrival
			})
			iss := pending[0]
			pending = pending[1:]
			out = append(out, iss.Req)
			if next, ok := sess.Complete(iss.Client, iss.Req.Arrival+0.25); ok {
				pending = append(pending, next)
			}
		}
		return out
	}
	a, _ := json.Marshal(drive(11))
	b, _ := json.Marshal(drive(11))
	c, _ := json.Marshal(drive(12))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different closed-loop trajectories")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestClosedLoopClientIndependence pins the per-client RNG streams: one
// client's draws don't depend on how often other clients complete, so
// the policy under test can't perturb the traffic it's measured on.
func TestClosedLoopClientIndependence(t *testing.T) {
	// Trajectory of client 0 when only client 0 runs vs when every other
	// client also completes between its requests.
	solo := testClosedLoop().Session(1000, 5)
	solo.Initial()
	var soloArr []float64
	at := 10.0
	for i := 0; i < 20; i++ {
		iss, ok := solo.Complete(0, at)
		if !ok {
			t.Fatal("budget exhausted early")
		}
		soloArr = append(soloArr, iss.Req.Arrival)
		at = iss.Req.Arrival
	}

	mixed := testClosedLoop().Session(1000, 5)
	mixed.Initial()
	at = 10.0
	for i := 0; i < 20; i++ {
		for ci := 1; ci < mixed.Clients(); ci++ {
			mixed.Complete(ci, at)
		}
		iss, ok := mixed.Complete(0, at)
		if !ok {
			t.Fatal("budget exhausted early")
		}
		if iss.Req.Arrival != soloArr[i] {
			t.Fatalf("issue %d: client 0 arrival %v with interleaving, %v without",
				i, iss.Req.Arrival, soloArr[i])
		}
		at = iss.Req.Arrival
	}
}

// TestClosedLoopGenerate: Generate returns exactly the initial wave.
func TestClosedLoopGenerate(t *testing.T) {
	w := testClosedLoop()
	reqs := w.Generate(1000, 7)
	init := w.Session(1000, 7).Initial()
	if len(reqs) != len(init) {
		t.Fatalf("Generate returned %d requests, initial wave %d", len(reqs), len(init))
	}
	for i := range reqs {
		if !reflect.DeepEqual(reqs[i], init[i].Req) {
			t.Fatalf("Generate[%d] = %+v, initial %+v", i, reqs[i], init[i].Req)
		}
	}
}

func TestClosedLoopSingleTenantDefault(t *testing.T) {
	w := ClosedLoop{Clients: 2, Think: 1, Chunks: testChunks()}
	if err := w.Validate(); err != nil {
		t.Fatalf("single-tenant zero value rejected: %v", err)
	}
	for _, iss := range w.Session(100, 1).Initial() {
		if iss.Req.Tenant != 0 {
			t.Fatalf("single-tenant stream stamped tenant %d", iss.Req.Tenant)
		}
	}
}
