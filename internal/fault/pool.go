// Execution substrate: every campaign stage (the order-1 fault sweep,
// the order-2/3 snapshot trees) runs its independent work units on a
// WorkerPool. A session without an injected pool runs each stage on a
// private pool of its worker count; a session with one (Session.SetPool)
// shares that pool's budget with every other session running beside it
// — the corpus scheduler's shape (see internal/campaign).
//
// Work is claimed in dynamically sized chunks from an atomic cursor
// (guided self-scheduling): chunks start large, amortizing claim
// overhead, and shrink as the queue drains, so one expensive chunk at
// the tail cannot straggle a whole stage. Results always land at
// fixed, cursor-independent positions, so chunking — like worker
// count, and like which batch's goroutine held a slot when — never
// changes a report bit.
package fault

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunk bounds a single claim so a worker never hoards a large
// prefix of the queue: a stage is always split finely enough for late
// joiners (or another batch's freed slots) to help with the tail.
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
// [0, n) to concurrent claimants — the lock-free work queue of one
// WorkerPool batch. The zero value is a drained cursor.
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

// WorkerPool executes batches of independent work units under one
// concurrency budget: at most budget goroutines run work at any moment,
// across every batch submitted to the pool. Safe for concurrent use.
//
// Each Execute builds one ChunkCursor over its batch and starts
// min(budget, n) goroutines; each takes a slot from the pool before it
// claims chunks, drains the cursor, and gives the slot back. Concurrent
// batches therefore share the budget: a goroutine keeps to its own
// batch while it lasts (affinity — one session's warm state), and a
// batch that runs dry hands its slots to the waiting goroutines of the
// others, which then finish their tails with the whole budget.
type WorkerPool struct {
	slots chan struct{}
}

// NewWorkerPool returns a pool with the given concurrency budget
// (values <= 0 mean GOMAXPROCS). No goroutine outlives a batch, so the
// pool needs no shutdown.
func NewWorkerPool(workers int) *WorkerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{slots: make(chan struct{}, workers)}
}

// Execute invokes run on disjoint index ranges [lo, hi) covering
// [0, n), possibly concurrently from several goroutines, and returns
// once every unit has run. run must be safe for concurrent invocation
// on disjoint ranges, and must not call Execute on the same pool: the
// inner batch would wait for a slot its own caller holds.
func (p *WorkerPool) Execute(n int, run func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := min(cap(p.slots), n)
	cur := NewChunkCursor(n, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			p.slots <- struct{}{}
			defer func() { <-p.slots }()
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

// Close is a no-op: no goroutine outlives the batch that started it.
// It remains only for bench/layers, which closes the pool it probes.
func (p *WorkerPool) Close() {}

// SetPool injects a shared execution pool: every subsequent
// ExecuteShard/ExecuteSequences call runs its work units on it instead
// of on a private pool, so many sessions can share one process-wide
// worker budget. The per-call workers arguments are then ignored: the
// pool owns concurrency. Results are bit-identical either way.
// Call before executing, not concurrently with it.
func (s *Session) SetPool(p *WorkerPool) { s.sched = p }

// executePool resolves the pool one stage runs on: the injected shared
// pool when one is set, a private pool of the stage's worker count
// otherwise.
func (s *Session) executePool(workers int) *WorkerPool {
	if s.sched != nil {
		return s.sched
	}
	return NewWorkerPool(s.workerCount(workers))
}
