package experiments

import (
	"fmt"
	"sync"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/patch"
)

// suite memoizes the expensive pipeline artifacts shared by several
// experiments. The paper's evaluation reuses the same building blocks
// over and over — the Hybrid rewrite of a case study is identical in
// Table V and every §V-C claim, the Faulter+Patcher result is shared by
// Table V and the duplication comparison, and the baseline campaign of
// a case is the same sweep the skip/bitflip/class claims each need —
// so regenerating the full evaluation does each unit of work exactly
// once per process.
//
// Baseline campaigns are run once under both fault models and served
// to single-model experiments through fault.Report.FilterModels, which
// is bit-identical to running the narrower campaign (campaigns
// enumerate each model independently).
type suite struct {
	mu       sync.Mutex
	hybrid   map[string]*harden.HybridResult
	hybridSW map[string]*harden.HybridResult
	fp       map[string]*patch.Result
	fpO2     map[string]*patch.Result
	baseline map[string]*fault.Report
}

// memo is the process-wide suite shared by every experiment entry
// point.
var memo = &suite{
	hybrid:   make(map[string]*harden.HybridResult),
	hybridSW: make(map[string]*harden.HybridResult),
	fp:       make(map[string]*patch.Result),
	fpO2:     make(map[string]*patch.Result),
	baseline: make(map[string]*fault.Report),
}

// campStore is the process-wide in-memory campaign store behind every
// experiment sweep: campaigns shared between experiments — a variant's
// skip sweep run both stand-alone and as an order-2 pruning stage —
// are content-addressed and execute once per process.
var campStore = func() *campaign.Store {
	st, err := campaign.NewStore("")
	if err != nil {
		panic(err)
	}
	return st
}()

// campOptions returns the standing experiment option set (the shared
// store plus a pair budget).
func campOptions(maxPairs int) campaign.Options {
	return campaign.Options{Store: campStore, MaxPairs: maxPairs}
}

func modelsKey(models []fault.Model) string {
	k := ""
	for _, m := range models {
		k += "|" + m.String()
	}
	return k
}

// hybridFor returns the (memoized) Hybrid rewrite of a case study.
func (s *suite) hybridFor(c *cases.Case) (*harden.HybridResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.hybrid[c.Name]; ok {
		return r, nil
	}
	r, err := harden.Hybrid(c.MustBuild(), harden.HybridOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s hybrid: %w", c.Name, err)
	}
	if err := c.Check(r.Binary); err != nil {
		return nil, err
	}
	s.hybrid[c.Name] = r
	return r, nil
}

// fpFor returns the (memoized) Faulter+Patcher result of a case study
// hardened under the given fault models.
func (s *suite) fpFor(c *cases.Case, models []fault.Model) (*patch.Result, error) {
	key := c.Name + modelsKey(models)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.fp[key]; ok {
		return r, nil
	}
	r, err := patch.Harden(c.MustBuild(), patch.Options{
		Good: c.Good, Bad: c.Bad, Models: models, StepLimit: stepLimit,
	})
	if err != nil {
		return nil, fmt.Errorf("%s faulter+patcher: %w", c.Name, err)
	}
	if err := c.Check(r.Binary); err != nil {
		return nil, err
	}
	s.fp[key] = r
	return r, nil
}

// hybridSWFor returns the (memoized) order-2 Hybrid rewrite — branch
// hardening plus the skip-window pass — of a case study.
func (s *suite) hybridSWFor(c *cases.Case) (*harden.HybridResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.hybridSW[c.Name]; ok {
		return r, nil
	}
	r, err := harden.Hybrid(c.MustBuild(), harden.HybridOptions{SkipWindow: true})
	if err != nil {
		return nil, fmt.Errorf("%s hybrid+skipwindow: %w", c.Name, err)
	}
	if err := c.Check(r.Binary); err != nil {
		return nil, err
	}
	s.hybridSW[c.Name] = r
	return r, nil
}

// fpOrder2For returns the (memoized) order-2 Faulter+Patcher result of
// a case study: the skip-model fixed point followed by the pair
// escalation stage.
func (s *suite) fpOrder2For(c *cases.Case) (*patch.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.fpO2[c.Name]; ok {
		return r, nil
	}
	r, err := patch.Harden(c.MustBuild(), patch.Options{
		Good: c.Good, Bad: c.Bad, Models: []fault.Model{fault.ModelSkip},
		StepLimit: stepLimit, DedupSites: true,
		Order: 2, MaxPairs: beyond2MaxPairs,
	})
	if err != nil {
		return nil, fmt.Errorf("%s faulter+patcher order-2: %w", c.Name, err)
	}
	if err := c.Check(r.Binary); err != nil {
		return nil, err
	}
	s.fpO2[c.Name] = r
	return r, nil
}

// baselineFor returns the baseline (unhardened) campaign report of a
// case study restricted to the given models. The underlying sweep runs
// once per case under both models and is filtered per request.
func (s *suite) baselineFor(c *cases.Case, models []fault.Model) (*fault.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	full, ok := s.baseline[c.Name]
	if !ok {
		var err error
		full, err = campaign.Run(fault.Campaign{
			Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
			Models: bothModels, StepLimit: stepLimit,
		}, campOptions(0))
		if err != nil {
			return nil, fmt.Errorf("%s baseline campaign: %w", c.Name, err)
		}
		s.baseline[c.Name] = full
	}
	return full.FilterModels(models...), nil
}
