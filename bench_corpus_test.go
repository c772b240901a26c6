// Benchmarks for the corpus batch runner: the full registered
// case-study corpus swept at orders 1+2, cold (private in-memory store,
// everything simulated) and warm (replayed from a pre-warmed
// disk-backed store).
package reinforce

import (
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// corpusBenchJobs builds the standing benchmark corpus: every
// registered case, skip + bitflip, site-deduplicated (the `r2r corpus`
// default shape).
func corpusBenchJobs(b *testing.B) []campaign.CorpusJob {
	b.Helper()
	var jobs []campaign.CorpusJob
	for _, c := range cases.Corpus() {
		bin, err := c.Build()
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, campaign.CorpusJob{
			Case: c.Name,
			Campaign: fault.Campaign{
				Binary: bin, Good: c.Good, Bad: c.Bad,
				Models:     []fault.Model{fault.ModelSkip, fault.ModelBitFlip},
				DedupSites: true,
			},
		})
	}
	return jobs
}

// corpusBenchOptions is the standing option set (pair budget bounded
// like the corpus experiment's).
func corpusBenchOptions(st *campaign.Store) campaign.CorpusOptions {
	return campaign.CorpusOptions{
		Options: campaign.Options{MaxPairs: 512, Store: st},
		Orders:  []int{1, 2},
	}
}

// runCorpusBench executes one corpus sweep and returns it after
// failing the benchmark on any cell error.
func runCorpusBench(b *testing.B, jobs []campaign.CorpusJob, opt campaign.CorpusOptions) *campaign.CorpusResult {
	b.Helper()
	res, err := campaign.RunCorpus(jobs, opt)
	if err != nil {
		b.Fatal(err)
	}
	if errs := res.Errs(); len(errs) > 0 {
		b.Fatal(errs[0])
	}
	return res
}

// BenchmarkCorpusCold measures the full corpus sweep with a fresh
// in-memory store per iteration: every order-1 campaign simulated,
// every order-2 solo stage answered from the iteration's own store.
func BenchmarkCorpusCold(b *testing.B) {
	jobs := corpusBenchJobs(b)
	injections, cells := 0, 0
	for i := 0; i < b.N; i++ {
		res := runCorpusBench(b, jobs, corpusBenchOptions(nil))
		injections = res.Aggregate().Injections
		cells = len(res.Results)
	}
	b.ReportMetric(float64(injections), "injections/op")
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkCorpusColdParallel is the cold sweep with concurrent case
// chains on a shared worker pool — the `r2r corpus -parallel-cells`
// configuration. Results are bit-identical to BenchmarkCorpusCold
// (test-enforced by the scheduler differential suite); only the
// schedule differs. cells/s is the guarded corpus throughput metric.
func BenchmarkCorpusColdParallel(b *testing.B) {
	jobs := corpusBenchJobs(b)
	cells := 0
	for i := 0; i < b.N; i++ {
		opt := corpusBenchOptions(nil)
		opt.ParallelCells = len(jobs)
		res := runCorpusBench(b, jobs, opt)
		cells = len(res.Results)
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkCorpusWarm measures the same sweep replayed from a
// pre-warmed disk-backed store — the `r2r corpus -cache-dir`
// re-invocation, which must answer every campaign without simulating.
func BenchmarkCorpusWarm(b *testing.B) {
	jobs := corpusBenchJobs(b)
	dir := b.TempDir()
	warmup, err := campaign.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	runCorpusBench(b, jobs, corpusBenchOptions(warmup))
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		st, err := campaign.NewStore(dir) // fresh store: hits come from disk
		if err != nil {
			b.Fatal(err)
		}
		res := runCorpusBench(b, jobs, corpusBenchOptions(st))
		if res.Cache.Misses != 0 {
			b.Fatalf("warm corpus run missed the store: %+v", res.Cache)
		}
		hits = res.Cache.Hits
	}
	b.ReportMetric(float64(hits), "hits/op")
}

// BenchmarkCorpusWarmCapped is the warm replay through a store capped
// to a handful of resident entries — the corpus-scale memory-bound
// configuration, where reads keep coming from disk instead of
// accumulating every campaign in RAM.
func BenchmarkCorpusWarmCapped(b *testing.B) {
	jobs := corpusBenchJobs(b)
	dir := b.TempDir()
	warmup, err := campaign.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	runCorpusBench(b, jobs, corpusBenchOptions(warmup))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := campaign.NewStoreCapped(dir, 2)
		if err != nil {
			b.Fatal(err)
		}
		res := runCorpusBench(b, jobs, corpusBenchOptions(st))
		if res.Cache.Misses != 0 {
			b.Fatalf("capped warm corpus run missed the store: %+v", res.Cache)
		}
		if st.MemEntries() > 2 {
			b.Fatalf("cap not enforced: %d resident entries", st.MemEntries())
		}
	}
}
