package campaign

import (
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// corpusJobs builds a small two-case corpus from the registered
// catalog (the mini pincheck used elsewhere lacks a second case).
func corpusJobs(t *testing.T, models ...fault.Model) []CorpusJob {
	t.Helper()
	var jobs []CorpusJob
	for _, name := range []string{"pincheck", "otpauth"} {
		c, err := cases.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, CorpusJob{
			Case: c.Name,
			Campaign: fault.Campaign{
				Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
				Models: models, DedupSites: true,
			},
		})
	}
	return jobs
}

func runCorpus(t *testing.T, jobs []CorpusJob, opt CorpusOptions) *CorpusResult {
	t.Helper()
	res, err := RunCorpus(jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errs() {
		t.Fatal(e)
	}
	return res
}

// injectionsOf flattens a corpus result to the per-cell injection
// lists, the bit-identity currency of the engine's determinism tests.
func injectionsOf(res *CorpusResult) [][]fault.Injection {
	var out [][]fault.Injection
	for _, c := range res.Results {
		out = append(out, c.Report.Injections)
		if c.Order2 != nil {
			pairs := make([]fault.Injection, 0, len(c.Order2.Pairs))
			for _, p := range c.Order2.Pairs {
				pairs = append(pairs, fault.Injection{Fault: p.Pair.First, Outcome: p.Outcome})
			}
			out = append(out, pairs)
		}
	}
	return out
}

// TestCorpusWorkerInvariance: corpus results are bit-identical across
// worker counts, at both orders.
func TestCorpusWorkerInvariance(t *testing.T) {
	jobs := corpusJobs(t, fault.ModelSkip)
	opt := func(workers int) CorpusOptions {
		return CorpusOptions{
			Options: Options{Workers: workers, MaxPairs: 128},
			Orders:  []int{1, 2},
		}
	}
	serial := runCorpus(t, jobs, opt(1))
	parallel := runCorpus(t, jobs, opt(8))
	if !reflect.DeepEqual(injectionsOf(serial), injectionsOf(parallel)) {
		t.Fatal("1-worker and 8-worker corpus runs differ")
	}
}

// TestCorpusSharesStoreAcrossOrders: with Orders {1, 2}, the order-2
// cell's solo sweep is the same plan the order-1 cell stored — so even
// a cold corpus run gets store hits, proving the cells really share one
// store.
func TestCorpusSharesStoreAcrossOrders(t *testing.T) {
	jobs := corpusJobs(t, fault.ModelSkip)
	res := runCorpus(t, jobs, CorpusOptions{
		Options: Options{MaxPairs: 128},
		Orders:  []int{1, 2},
	})
	if res.Cache.Hits < len(jobs) {
		t.Fatalf("cold corpus run shared %d store hits, want >= %d (one per order-2 solo stage)",
			res.Cache.Hits, len(jobs))
	}
	for _, c := range res.Results {
		if c.Order == 2 && c.Cache.Hits < 1 {
			t.Errorf("%s order-2 cell did not reuse the order-1 sweep: %+v", c.Case, c.Cache)
		}
	}
}

// TestCorpusWarmReplayBitIdentical: a second corpus run over the same
// disk-backed store must answer every campaign from it and reproduce
// the cold run bit for bit — the `r2r corpus -cache-dir` warm-pass
// contract CI smoke-tests end to end.
func TestCorpusWarmReplayBitIdentical(t *testing.T) {
	jobs := corpusJobs(t, fault.ModelSkip, fault.ModelBitFlip)
	dir := t.TempDir()
	opt := func(st *Store) CorpusOptions {
		return CorpusOptions{Options: Options{Store: st, MaxPairs: 128}, Orders: []int{1, 2}}
	}
	cold := runCorpus(t, jobs, opt(newTestStore(t, dir)))
	warm := runCorpus(t, jobs, opt(newTestStore(t, dir))) // fresh store, same dir
	if !reflect.DeepEqual(injectionsOf(cold), injectionsOf(warm)) {
		t.Fatal("warm corpus replay differs from the cold run")
	}
	if warm.Cache.Misses != 0 {
		t.Fatalf("warm corpus run missed the store: %+v", warm.Cache)
	}
	if warm.Cache.Hits == 0 {
		t.Fatal("warm corpus run recorded no hits")
	}
	if cold.Cache.Misses == 0 {
		t.Fatal("cold corpus run reported no misses — the warm assertion is vacuous")
	}
}

// TestCorpusDefaultsAndValidation: order defaults to {1}; orders
// outside {1, 2, 3} are rejected; a failing cell does not sink the
// sweep.
func TestCorpusDefaultsAndValidation(t *testing.T) {
	jobs := corpusJobs(t, fault.ModelSkip)
	res := runCorpus(t, jobs, CorpusOptions{})
	if len(res.Results) != len(jobs) || res.Results[0].Order != 1 {
		t.Fatalf("default orders: got %d results", len(res.Results))
	}
	if _, err := RunCorpus(jobs, CorpusOptions{Orders: []int{4}}); err == nil {
		t.Fatal("order 4 accepted")
	}
	bad := append([]CorpusJob{}, jobs...)
	bad[0].Campaign.Good = bad[0].Campaign.Bad // indistinguishable oracle
	res, err := RunCorpus(bad, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs()) != 1 {
		t.Fatalf("want exactly one failing cell, got %v", res.Errs())
	}
	if res.Results[1].Err != nil {
		t.Fatal("healthy cell failed alongside the broken one")
	}
	// A job whose session fails fails every cell of its chain, with the
	// same error, in sequence and on the shared pool alike.
	for _, parallel := range []int{1, 2} {
		res, err = RunCorpus(bad, CorpusOptions{Options: Options{MaxPairs: 16}, Orders: []int{1, 2}, ParallelCells: parallel})
		if err != nil {
			t.Fatal(err)
		}
		r := res.Results
		if r[0].Err == nil || r[1].Err == nil || r[0].Err.Error() != r[1].Err.Error() {
			t.Errorf("parallel=%d: broken job's cells: %v, %v; want one error for both", parallel, r[0].Err, r[1].Err)
		}
		if r[2].Err != nil || r[3].Err != nil {
			t.Errorf("parallel=%d: healthy job's cells failed: %v, %v", parallel, r[2].Err, r[3].Err)
		}
	}
}

// TestCorpusSummaries: the export path — per-cell rows plus the
// aggregate — matches the cell reports.
func TestCorpusSummaries(t *testing.T) {
	jobs := corpusJobs(t, fault.ModelSkip)
	res := runCorpus(t, jobs, CorpusOptions{Options: Options{MaxPairs: 64}, Orders: []int{1, 2}})
	sums := res.Summaries()
	if len(sums) != len(res.Results)+1 {
		t.Fatalf("got %d summaries, want %d cells + aggregate", len(sums), len(res.Results))
	}
	agg := sums[len(sums)-1]
	if agg.Name != "corpus" {
		t.Fatalf("aggregate row named %q", agg.Name)
	}
	wantInj, wantSuccess, wantPairs := 0, 0, 0
	for _, c := range res.Results {
		wantInj += len(c.Report.Injections)
		wantSuccess += c.Report.Count(fault.OutcomeSuccess)
		if c.Order2 != nil {
			wantPairs += len(c.Order2.Pairs)
		}
	}
	if agg.Injections != wantInj || agg.Success != wantSuccess {
		t.Errorf("aggregate = %d/%d injections/success, want %d/%d",
			agg.Injections, agg.Success, wantInj, wantSuccess)
	}
	if agg.Order2 == nil || agg.Order2.Pairs != wantPairs {
		t.Errorf("aggregate pairs = %+v, want %d", agg.Order2, wantPairs)
	}
	if agg.Cache == nil {
		t.Error("aggregate lost the shared-cache accounting")
	}
}
