// Execution substrate: every campaign stage (the order-1 fault sweep,
// the order-2/3 snapshot trees) runs its independent work units
// through a Pool. The default pool spawns a private goroutine set per
// call — the engine's historical shape — while a session with an
// injected pool (Session.SetPool) shares one process-wide worker
// budget with every other campaign running beside it, the corpus
// scheduler's work-stealing substrate (see internal/campaign).
//
// Work is claimed in dynamically sized chunks from an atomic cursor
// (guided self-scheduling): chunks start large, amortizing claim
// overhead, and shrink as the queue drains, so one expensive chunk at
// the tail cannot straggle a whole stage. Results always land at
// fixed, cursor-independent positions, so chunking — like worker
// count — never changes a report bit.
package fault

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool executes batches of independent work units. Execute invokes run
// on disjoint index ranges [lo, hi) covering [0, n), possibly
// concurrently from multiple goroutines, and returns only after every
// unit has run. run must be safe for concurrent invocation on disjoint
// ranges.
type Pool interface {
	Execute(n int, run func(lo, hi int))
}

// maxChunk bounds a single claim so a worker never hoards a large
// prefix of the queue: a stage is always split finely enough for late
// joiners (or thieves from other cells) to help with the tail.
const maxChunk = 64

// chunkSpan is the dynamic chunk-size policy: an equal share of the
// remaining work per worker round (remaining/(4·workers)), clamped to
// [1, maxChunk]. Early chunks are large (claim overhead amortized),
// tail chunks approach one unit (no straggler).
func chunkSpan(remaining, workers int) int {
	if workers < 1 {
		workers = 1
	}
	span := remaining / (4 * workers)
	if span < 1 {
		return 1
	}
	if span > maxChunk {
		return maxChunk
	}
	return span
}

// ChunkCursor hands out dynamically sized, disjoint index ranges of
// [0, n) to concurrent claimants — the lock-free work queue behind
// both the default pool and the corpus scheduler's per-cell deques.
// The zero value is a drained cursor.
type ChunkCursor struct {
	next    atomic.Int64
	n       int
	workers int
}

// NewChunkCursor builds a cursor over n units, sizing chunks for the
// given worker count (values < 1 are treated as 1).
func NewChunkCursor(n, workers int) *ChunkCursor {
	if workers < 1 {
		workers = 1
	}
	return &ChunkCursor{n: n, workers: workers}
}

// Grab claims the next chunk. It returns ok == false once the cursor
// is drained; claimed ranges are disjoint and cover [0, n) exactly.
func (c *ChunkCursor) Grab() (lo, hi int, ok bool) {
	for {
		cur := c.next.Load()
		if int(cur) >= c.n {
			return 0, 0, false
		}
		span := chunkSpan(c.n-int(cur), c.workers)
		if c.next.CompareAndSwap(cur, cur+int64(span)) {
			lo = int(cur)
			hi = lo + span
			if hi > c.n {
				hi = c.n
			}
			return lo, hi, true
		}
	}
}

// Remaining reports how many units have not been claimed yet. Advisory
// only — concurrent Grab calls may drain it at any moment.
func (c *ChunkCursor) Remaining() int {
	r := c.n - int(c.next.Load())
	if r < 0 {
		return 0
	}
	return r
}

// goPool is the default execution substrate: a private worker set
// spawned per Execute call, claiming chunks from a shared cursor. It
// reproduces the engine's historical scheduling exactly (workers ×
// atomic cursor), with chunked claiming in place of per-item claiming.
type goPool struct {
	workers int
}

// Execute runs the batch on min(workers, n) goroutines.
func (p goPool) Execute(n int, run func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		run(0, n)
		return
	}
	cur := NewChunkCursor(n, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := cur.Grab()
				if !ok {
					return
				}
				run(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// SetPool injects a shared execution pool: every subsequent
// ExecuteShard/ExecuteSequences call runs its work
// units on it instead of spawning a private goroutine set, so many
// sessions can share one process-wide worker budget. The per-call
// workers arguments then only size chunks; the pool owns concurrency.
// Results are bit-identical either way. Call before executing, not
// concurrently with it.
func (s *Session) SetPool(p Pool) { s.sched = p }

// executePool resolves the substrate one stage runs on: the injected
// shared pool when one is set, a private per-call goroutine set
// otherwise.
func (s *Session) executePool(workers int) Pool {
	if s.sched != nil {
		return s.sched
	}
	return goPool{workers: s.workerCount(workers)}
}
