package fault

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChunkCursorCoversRange: concurrent Grabs partition [0, n) into
// disjoint, in-order chunks with no unit lost or duplicated.
func TestChunkCursorCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		cur := NewChunkCursor(n, 4)
		seen := make([]atomic.Int32, n)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					lo, hi, ok := cur.Grab()
					if !ok {
						return
					}
					if lo >= hi || lo < 0 || hi > n {
						t.Errorf("n=%d: bad chunk [%d,%d)", n, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
				}
			}()
		}
		wg.Wait()
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: unit %d grabbed %d times", n, i, got)
			}
		}
	}
}

// TestChunkSpanBounds: the guided self-scheduling span stays within
// [1, maxChunk] and shrinks as the queue drains, so tail chunks are
// small enough for freed slots to balance them.
func TestChunkSpanBounds(t *testing.T) {
	for _, tc := range []struct {
		remaining, workers, want int
	}{
		{0, 4, 1},        // floor: always make progress
		{1, 4, 1},        // floor
		{16, 4, 1},       // 16/(4*4) = 1
		{1024, 4, 64},    // 1024/16 = 64 = cap
		{1 << 20, 8, 64}, // huge queue: capped
		{100, 1, 25},     // 100/4
		{100, 0, 25},     // workers floor-clamped to 1
		{8, 100, 1},      // more workers than work
	} {
		if got := chunkSpan(tc.remaining, tc.workers); got != tc.want {
			t.Errorf("chunkSpan(%d, %d) = %d, want %d",
				tc.remaining, tc.workers, got, tc.want)
		}
	}
}

// TestWorkerPoolExecute: Execute covers [0, n) exactly once, for unit
// counts around the chunking thresholds and budgets below, at, and
// above the unit count — the private pool of a session stage and the
// corpus's shared pool alike.
func TestWorkerPoolExecute(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 16} {
		pool := NewWorkerPool(workers)
		for _, n := range []int{0, 1, 5, 7, 64, 129, 1000} {
			hits := make([]atomic.Int32, n)
			pool.Execute(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: unit %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestGoPoolExecute: a stage of a session without an injected pool
// goes to a private pool of the stage's worker count, which covers
// [0, n) exactly once for worker counts below, at, and above the unit
// count; once a pool is injected, every stage goes to that pool.
func TestGoPoolExecute(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		pool := (&Session{}).executePool(workers)
		if got := cap(pool.slots); got != workers {
			t.Fatalf("workers=%d: private pool budget %d", workers, got)
		}
		for _, n := range []int{0, 1, 5, 129} {
			hits := make([]atomic.Int32, n)
			pool.Execute(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: unit %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
	shared := NewWorkerPool(3)
	s := &Session{}
	s.SetPool(shared)
	if s.executePool(16) != shared {
		t.Fatal("a session with an injected pool ran a stage on a private pool")
	}
}

// TestWorkerPoolConcurrentSources: many goroutines submit Executes at
// once — the corpus shape, one batch per concurrently running cell
// stage — and every unit of every batch runs exactly once.
func TestWorkerPoolConcurrentSources(t *testing.T) {
	pool := NewWorkerPool(4)
	const sources, units = 16, 257
	counts := make([][]atomic.Int32, sources)
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		counts[s] = make([]atomic.Int32, units)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pool.Execute(units, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[s][i].Add(1)
				}
			})
		}(s)
	}
	wg.Wait()
	for s := range counts {
		for i := range counts[s] {
			if got := counts[s][i].Load(); got != 1 {
				t.Fatalf("source %d unit %d ran %d times", s, i, got)
			}
		}
	}
}

// gauge tracks how many run calls are in flight and the most ever seen
// at once.
type gauge struct{ cur, peak atomic.Int32 }

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *gauge) exit() { g.cur.Add(-1) }

// TestWorkerPoolBudget: concurrent batches share one budget — however
// many Execute calls are in flight, no more than the budget's worth of
// run calls ever execute at once — and a batch that runs dry hands its
// slots to another batch still working, so a long batch beside short
// ones gets the whole budget once they have drained.
func TestWorkerPoolBudget(t *testing.T) {
	const budget = 3
	t.Run("shared", func(t *testing.T) {
		pool := NewWorkerPool(budget)
		var g gauge
		var wg sync.WaitGroup
		for b := 0; b < 12; b++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pool.Execute(40, func(lo, hi int) {
					g.enter()
					defer g.exit()
					time.Sleep(50 * time.Microsecond)
				})
			}()
		}
		wg.Wait()
		if p := g.peak.Load(); p > budget || p < 2 {
			t.Fatalf("peak concurrent run calls %d, want within [2, %d]", p, budget)
		}
	})

	t.Run("handoff", func(t *testing.T) {
		pool := NewWorkerPool(budget)
		var all, long gauge
		gate, drained := make(chan struct{}), make(chan struct{})

		// Two short batches take two of the three slots and hold them
		// until the gate opens.
		held := make(chan struct{})
		var shorts sync.WaitGroup
		for b := 0; b < budget-1; b++ {
			shorts.Add(1)
			go func() {
				defer shorts.Done()
				pool.Execute(1, func(lo, hi int) {
					all.enter()
					defer all.exit()
					held <- struct{}{}
					<-gate
				})
			}()
		}
		for b := 0; b < budget-1; b++ {
			<-held
		}

		// The long batch gets the last slot; its other goroutines wait.
		// Its units hold off until the short batches have returned, then
		// measure how many of them run at once.
		started := make(chan struct{})
		var once sync.Once
		done := make(chan struct{})
		go func() {
			defer close(done)
			pool.Execute(64, func(lo, hi int) {
				once.Do(func() { close(started) })
				<-drained
				for i := lo; i < hi; i++ {
					all.enter()
					long.enter()
					time.Sleep(time.Millisecond)
					long.exit()
					all.exit()
				}
			})
		}()
		<-started
		close(gate)
		shorts.Wait()
		close(drained)
		<-done
		if p := long.peak.Load(); p < 2 {
			t.Fatalf("long batch peaked at %d concurrent runner(s) after the short batches drained, want > 1", p)
		}
		if p := all.peak.Load(); p > budget {
			t.Fatalf("peak concurrent run calls %d exceeds the budget %d", p, budget)
		}
	})
}
