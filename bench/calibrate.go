package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The machine a run measures on does not hold its speed: over a minute
// its CPU-bound throughput drifts by a quarter or more, in slow
// stretches that last from seconds to minutes, and r2r's CPU time per
// request drifts with it. A run therefore also times a fixed CPU-bound
// loop between requests and around every set-up, and scales each
// measured time to the speed at which that loop takes calNominal. The
// loop shares no code with the repository, so no change to r2r can
// change it.
const (
	calNominal = 10 * time.Millisecond
	calIters   = 1_000_000
	calWords   = 1 << 15 // a 256 KiB working set
)

var calTable = func() []uint64 {
	t := make([]uint64, calWords)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

// calSink keeps the compiler from discarding the loop.
var calSink atomic.Uint64

// calLoop is the fixed work: data-dependent table loads, stores and
// branches, the shape of an interpreter's dispatch loop.
func calLoop(t []uint64) {
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < calIters; i++ {
		j := x >> 49 // 15 bits: an index into t
		x = x*6364136223846793005 + t[j]
		if x&1 == 0 {
			t[j] ^= x
		}
	}
	calSink.Add(x)
}

// slowdown runs the loop on every processor at once, reps times, and
// returns the median wall time over calNominal: 1 at the reference
// speed, 1.25 when the machine runs a quarter slower. Every processor
// takes part because most requests keep both busy (two simulation
// workers, or one plus the garbage collector), and a slow stretch may
// hit one processor only.
func slowdown(reps int) float64 {
	procs := runtime.GOMAXPROCS(0)
	tables := make([][]uint64, procs)
	for i := range tables {
		tables[i] = make([]uint64, calWords)
	}
	times := make([]time.Duration, reps)
	for i := range times {
		for _, t := range tables {
			copy(t, calTable)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for _, t := range tables {
			wg.Add(1)
			go func(t []uint64) {
				defer wg.Done()
				calLoop(t)
			}(t)
		}
		wg.Wait()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return float64(times[reps/2]) / float64(calNominal)
}
