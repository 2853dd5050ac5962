package model

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kvcache"
	"repro/internal/tensor"
)

// splitWork is the attended work, Σ(idx[r]+1) over a call's rows, that
// pays for one helper goroutine: a ForwardLayerPartial or ProjectKV call
// takes one helper per splitWork of work, up to GOMAXPROCS-1, so a call
// below it runs on the caller alone. When the value was chosen, an idle
// helper started 60–70 µs after it was woken on a 2-core Xeon VM, so a
// small pass finished before its helper could take a row. wake now
// yields to the helper, which starts within a few µs, but the value has
// not been retuned.
//
// The value comes from timing passes split (with this constant at 0)
// against serial ones, at -cpu 2 and 1 on a 2-core Xeon VM. On the
// constructed QA model, which runs every rag-* workload, a split pass of
// attended work up to about 1,000 took 0.88–1.05× the serial time,
// 1,200–1,500 took 0.87–0.90× and 1,900 or more 0.62–0.75×. On the
// dense Mistral7BSim every split pass was faster, from 0.71× at 36; on
// the QA model a split ProjectKV never was (1.05× at 127 rows), its rows
// being almost free. Of a 6-chunk CacheBlend answer on the QA model,
// 2048 splits the full-recompute layers (3,800–12,600) and most
// selective passes (1,560–4,760), and keeps on the caller the chunk
// prefills (at most 1,130) and the suffix-only passes of full KV reuse
// (at most 1,540). The dense models' smaller passes would gain too, but
// they run in sweeps that already keep every core busy.
const splitWork = 2048

// blocksPerWorker is how many blocks of rows a split pass is cut into
// per goroutine, so that a goroutine that starts late or draws costly
// rows leaves the rest to the others.
const blocksPerWorker = 8

// workers returns how many goroutines, the caller included, share the
// rows of a call whose attended work is work.
func workers(work int) int {
	return 1 + min(runtime.GOMAXPROCS(0)-1, work/splitWork)
}

// A layerPass is one ForwardLayerPartial or ProjectKV call on layer li,
// handed to the helper goroutines that share its rows. It lives in the
// caller's pooled scratch set, so a split call allocates nothing to
// describe itself.
type layerPass struct {
	m   *Model
	li  int
	lw  *LayerWeights
	lr  *layerRuns
	h   *tensor.Matrix
	idx []int
	c   *kvcache.Cache
	// qs holds row r's rotated query at r×Heads×HeadDim; nil when the
	// call projects K/V only (ProjectKV).
	qs        []float32
	out, attn *tensor.Matrix

	// attend selects the pass the rows run: attention, Wo and the FFN
	// rather than the projection.
	attend bool
	// Blocks of blk rows are handed out in turn: next counts the blocks
	// taken, and done the helpers still working on the pass.
	blk  int
	next atomic.Int64
	done sync.WaitGroup
}

// begin describes a call on layer li in s's pass descriptor.
func (m *Model) begin(s *scratch, li int, h *tensor.Matrix, idx []int, c *kvcache.Cache) *layerPass {
	p := &s.pass
	p.m, p.li, p.lw, p.lr = m, li, &m.Layer[li], &m.index().layer[li]
	p.h, p.idx, p.c = h, idx, c
	return p
}

// end drops the descriptor's references, so that neither a pooled
// scratch set nor a helper keeps a finished call's data alive.
func (p *layerPass) end() {
	p.m, p.lw, p.lr, p.h, p.idx, p.c = nil, nil, nil, nil, nil, nil
	p.qs, p.out, p.attn = nil, nil, nil
}

// each runs the projection or, when attend is set, the attention pass on
// every row: on the caller alone when n is 1, else in blocks shared with
// up to n-1 idle helpers. It returns once every row is done.
func (p *layerPass) each(s *scratch, n int, attend bool) {
	p.attend = attend
	p.blk = len(p.idx)
	p.next.Store(0)
	if n > 1 {
		p.blk = max(1, len(p.idx)/(blocksPerWorker*n))
		wake(p, n-1)
	}
	p.run(s)
	p.done.Wait()
}

// run computes blocks of p's rows with s's buffers until none is left.
// The attention pass takes the rows last first: a causal row's cost grows
// with its position, so the cheapest rows come last and even out the
// goroutines' finishing times.
func (p *layerPass) run(s *scratch) {
	n := len(p.idx)
	for {
		lo := int(p.next.Add(1)-1) * p.blk
		if lo >= n {
			return
		}
		hi := min(lo+p.blk, n)
		for r := lo; r < hi; r++ {
			if p.attend {
				p.attendRow(s, n-1-r)
			} else {
				p.project(s, r)
			}
		}
	}
}

// helperWork hands a pass to an idle helper. Helpers serve every model
// and live as long as the process: parked on this receive, one costs
// only its stack, and keeping them is what lets a split call start no
// goroutine and allocate nothing.
var helperWork = make(chan *layerPass)

// helpers counts the helper goroutines started, under helperMu.
var (
	helperMu sync.Mutex
	helpers  int
)

// wake hands p to up to n idle helpers, first starting helpers until n
// exist. It waits for none: a helper busy with another call's pass leaves
// its share to the goroutines that took p.
//
// Once a helper has taken p, wake yields the caller's P. A goroutine
// readied by a channel send waits in the sender's runnext slot, and an
// idle P steals from that slot only after a usleep(3) back-off, which
// Linux's default 50 µs timer slack stretches to ~60 µs. Yielding runs
// the helper at once on the caller's P and puts the caller on the global
// run queue, which an idle P takes from without that back-off. In
// rag-quality's split passes on a 2-core Xeon VM the helper joined 3 µs
// into a pass instead of 68 µs (p50). When no helper takes p, nothing
// yields.
func wake(p *layerPass, n int) {
	helperMu.Lock()
	for ; helpers < n; helpers++ {
		go helper()
	}
	helperMu.Unlock()
	for i := 0; i < n; i++ {
		p.done.Add(1)
		select {
		case helperWork <- p:
		default:
			p.done.Done()
			if i > 0 {
				runtime.Gosched()
			}
			return
		}
	}
	runtime.Gosched()
}

// helper runs blocks of the passes handed to it, with working buffers of
// its own, for the life of the process.
func helper() {
	var s scratch
	for p := range helperWork {
		s.fit(p.m.Cfg, 0, p.c.Tokens)
		p.run(&s)
		p.done.Done()
	}
}
