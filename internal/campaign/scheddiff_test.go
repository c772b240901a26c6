// The differential soundness harness for the corpus scheduler: the
// same corpus sweep executed sequentially and with concurrent case
// chains on a shared worker pool must produce bit-identical results —
// every cell, every order, regardless of the worker budget, chunk
// sizing, slot handoffs between cells, or store state.
// This is the contract that makes `-parallel-cells` safe to use
// anywhere the sequential runner was.
//
// External test package, like prunediff_test.go: the harness consumes
// campaigntest, which imports campaign.
package campaign_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/campaign/campaigntest"
	"github.com/r2r/reinforce/internal/fault"
)

// Scheduler-matrix budgets, sized like the prune harness's: wide enough
// that the order-2 and order-3 stages do real work on every catalog
// case, small enough that the matrix stays affordable.
const (
	schedMaxFaults  = 400
	schedMaxPairs   = 256
	schedMaxTriples = 128
)

// schedCorpusJobs builds one corpus job per catalog case under the
// given models, reusing the prune harness's case/model matrix so the
// scheduler is exercised on exactly the campaigns the rest of the
// differential suite trusts.
func schedCorpusJobs(t *testing.T, modelSets [][]fault.Model) []campaign.CorpusJob {
	t.Helper()
	names, _ := diffMatrix(t)
	var jobs []campaign.CorpusJob
	for i, name := range names {
		// Rotate through the model sets so the sweep covers every
		// registered model without squaring the matrix.
		models := modelSets[i%len(modelSets)]
		jobs = append(jobs, campaign.CorpusJob{
			Case:     name,
			Campaign: campaigntest.CaseCampaign(t, name, models, schedMaxFaults),
		})
	}
	return jobs
}

// runSchedCorpus executes a corpus sweep and fails the test on any
// error — sweep-level or per-cell.
func runSchedCorpus(t *testing.T, label string, jobs []campaign.CorpusJob, opt campaign.CorpusOptions) *campaign.CorpusResult {
	t.Helper()
	res, err := campaign.RunCorpus(jobs, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, e := range res.Errs() {
		t.Fatalf("%s: %v", label, e)
	}
	return res
}

// TestSchedulerDifferentialCorpus: the full (case × model) corpus at
// orders {1, 2, 3}, sequential vs parallel cells at worker budgets 1
// and 8 — all four scheduling shapes bit-identical.
func TestSchedulerDifferentialCorpus(t *testing.T) {
	_, modelSets := diffMatrix(t)
	jobs := schedCorpusJobs(t, modelSets)
	opt := func(parallelCells, workers int) campaign.CorpusOptions {
		return campaign.CorpusOptions{
			Options: campaign.Options{
				Workers:    workers,
				MaxPairs:   schedMaxPairs,
				MaxTriples: schedMaxTriples,
			},
			Orders:        []int{1, 2, 3},
			ParallelCells: parallelCells,
		}
	}
	sequential := runSchedCorpus(t, "sequential", jobs, opt(1, 1))
	for _, workers := range []int{1, 8} {
		label := fmt.Sprintf("parallel-cells workers=%d", workers)
		parallel := runSchedCorpus(t, label, jobs, opt(len(jobs), workers))
		campaigntest.AssertCorpusEqual(t, label, sequential, parallel)
	}
}

// TestSchedulerWarmStoreReplay: a parallel-cells sweep over a
// disk-backed store, replayed warm, answers everything
// from the store and reproduces the cold run bit for bit — the
// cold-then-warm CI smoke in library form.
func TestSchedulerWarmStoreReplay(t *testing.T) {
	jobs := schedCorpusJobs(t, [][]fault.Model{{fault.ModelSkip}, {fault.ModelBitFlip}})
	dir := t.TempDir()
	run := func(label string) *campaign.CorpusResult {
		st, err := campaign.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		opt := campaign.CorpusOptions{
			Options:       campaign.Options{Workers: 8, MaxPairs: schedMaxPairs, MaxTriples: schedMaxTriples, Store: st},
			Orders:        []int{1, 2, 3},
			ParallelCells: len(jobs),
		}
		res := runSchedCorpus(t, label, jobs, opt)
		if res.Cache.WriteErrors != 0 {
			t.Fatalf("%s: %d entry writes failed", label, res.Cache.WriteErrors)
		}
		return res
	}
	cold := run("cold")
	if cold.Cache.Misses == 0 {
		t.Fatal("cold sweep reported no store misses — the warm assertion is vacuous")
	}
	warm := run("warm")
	campaigntest.AssertCorpusEqual(t, "warm replay", cold, warm)
	if warm.Cache.Misses != 0 {
		t.Fatalf("warm parallel sweep missed the store: %+v", warm.Cache)
	}
	if warm.Cache.Hits == 0 {
		t.Fatal("warm parallel sweep recorded no hits")
	}
}

// TestSchedulerProgressMonotonic: with cells interleaving on the shared
// pool, every cell's progress stream must stay monotonic (done never
// decreases, job identity never flickers mid-stream) and end complete
// — the corpus progress-remapping contract under concurrency.
func TestSchedulerProgressMonotonic(t *testing.T) {
	jobs := schedCorpusJobs(t, [][]fault.Model{{fault.ModelSkip}})
	var mu sync.Mutex
	type stream struct {
		last  campaign.Progress
		count int
	}
	streams := map[string]*stream{}
	var violations []string
	progress := func(p campaign.Progress) {
		// Options.Progress promises serialized delivery; assert it
		// anyway by doing the bookkeeping under our own lock and
		// checking per-stream invariants.
		mu.Lock()
		defer mu.Unlock()
		s, ok := streams[p.Job]
		if !ok {
			s = &stream{}
			streams[p.Job] = s
		}
		if s.count > 0 {
			if p.Done < s.last.Done {
				violations = append(violations,
					fmt.Sprintf("%s: done went backwards (%d after %d)", p.Job, p.Done, s.last.Done))
			}
			if p.Total != s.last.Total || p.JobIndex != s.last.JobIndex {
				violations = append(violations,
					fmt.Sprintf("%s: job identity flickered mid-stream", p.Job))
			}
		}
		s.last = p
		s.count++
	}
	runSchedCorpus(t, "progress", jobs, campaign.CorpusOptions{
		Options:       campaign.Options{Workers: 8, MaxPairs: schedMaxPairs, Progress: progress},
		Orders:        []int{1, 2},
		ParallelCells: len(jobs),
	})
	mu.Lock()
	defer mu.Unlock()
	for _, v := range violations {
		t.Error(v)
	}
	if len(streams) == 0 {
		t.Fatal("no progress delivered")
	}
	for job, s := range streams {
		if s.last.Done != s.last.Total {
			t.Errorf("%s: stream ended at %d/%d", job, s.last.Done, s.last.Total)
		}
	}
}
