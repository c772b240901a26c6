package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/r2r/reinforce/bench/internal/verdict"
	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/lift"
	"github.com/r2r/reinforce/internal/lower"
	"github.com/r2r/reinforce/internal/oracle"
	"github.com/r2r/reinforce/internal/passes"
	"github.com/r2r/reinforce/internal/patch"
	"github.com/r2r/reinforce/internal/report"
	"github.com/r2r/reinforce/internal/static"
)

// Settings cmd/r2r applies that the replay must apply too.
const (
	corpusStepLimit = 32 << 20 // cmd/r2r's corpusStepLimit
	oracleInputs    = 32       // `oracle -n 32`
	oracleSeed      = 1        // `oracle` default -seed
)

// replayer re-executes measured requests in-process, calling the same
// functions each r2r command reaches in the same order, with a span
// around every call into a layer. It writes artifacts under work, never
// over the subprocess's.
type replayer struct {
	t    *tracer
	work string
}

// replayed is a replay's verdict, comparable with the subprocess's.
type replayed struct {
	Out, P, H string
	Root      span
}

// replay runs one request and digests its outputs like the benchmark does.
func (rp *replayer) replay(req verdict.Request) (*replayed, error) {
	t := rp.t
	t.req = req.ID
	root := t.begin("request")
	outs, p, h, err := rp.request(req)
	t.end(0)
	res := &replayed{Root: t.spans[root]}
	if err != nil {
		return res, err
	}
	parts := make([][]byte, len(outs))
	for i, o := range outs {
		if parts[i], err = verdict.Normalize(o); err != nil {
			return res, err
		}
	}
	res.Out = verdict.Digest(parts...)
	if res.P, err = verdict.FileDigest(p); err == nil {
		res.H, err = verdict.FileDigest(h)
	}
	return res, err
}

// request dispatches on the request kind and returns the JSON outputs
// in command order plus the artifact paths.
func (rp *replayer) request(req verdict.Request) (outs [][]byte, p, h string, err error) {
	in := req.In
	one := func(o []byte, err error) ([][]byte, string, string, error) { return [][]byte{o}, "", "", err }
	switch req.Kind {
	case verdict.KindSweep:
		return one(rp.campaignO1(in, "all", 1))
	case verdict.KindO2:
		return one(rp.campaignO2Pruned(in, 32768, 2))
	case verdict.KindO3:
		return one(rp.corpusO3())
	case verdict.KindHarden:
		p, h = rp.artifact(in, ".P"), rp.artifact(in, ".H")
		steps := []func() ([]byte, error){
			func() ([]byte, error) { return rp.patch(in, "", p) },
			func() ([]byte, error) { return nil, rp.hybrid(in, h) },
			func() ([]byte, error) { return rp.verify(p) },
			func() ([]byte, error) { return rp.verify(h) },
			func() ([]byte, error) { return rp.oracle(in.Path, h) },
			func() ([]byte, error) { return rp.oracle(in.Path, p) },
		}
		for _, step := range steps {
			o, err := step()
			if err != nil {
				return nil, "", "", err
			}
			if o != nil {
				outs = append(outs, o)
			}
		}
		return outs, p, h, nil
	case verdict.KindRerun:
		p = rp.artifact(in, ".rerun.P")
		o1, err := rp.campaignO2Store(in, req.CacheDir)
		if err != nil {
			return nil, "", "", err
		}
		o2, err := rp.patch(in, req.CacheDir, p)
		return [][]byte{o1, o2}, p, "", err
	}
	return nil, "", "", fmt.Errorf("unknown request kind %q", req.Kind)
}

func (rp *replayer) artifact(in *verdict.Input, suffix string) string {
	return filepath.Join(rp.work, in.Name+suffix)
}

// load reads and parses a binary, as cmd/r2r's loadBinary does.
func (rp *replayer) load(path string) (*elf.Binary, error) {
	var bin *elf.Binary
	var err error
	rp.t.span("elf.Load", func() {
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			bin, err = elf.Load(data)
		}
	})
	return bin, err
}

// save encodes and writes a binary, as cmd/r2r's saveBinary does.
func (rp *replayer) save(bin *elf.Binary, path string) error {
	var err error
	rp.t.span("elf.Bytes", func() {
		var img []byte
		if img, err = bin.Bytes(); err == nil {
			err = os.WriteFile(path, img, 0o755)
		}
	})
	return err
}

// writeJSON renders an output document inside a span.
func (rp *replayer) writeJSON(name string, w func(*bytes.Buffer) error) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	rp.t.span(name, func() { err = w(&buf) })
	return buf.Bytes(), err
}

func (rp *replayer) campaignFor(in *verdict.Input, models []fault.Model) (fault.Campaign, error) {
	bin, err := rp.load(in.Path)
	return fault.Campaign{Binary: bin, Good: in.Good, Bad: in.Bad, Models: models}, err
}

func (rp *replayer) session(c fault.Campaign) (*fault.Session, error) {
	var s *fault.Session
	var err error
	rp.t.span("fault.NewSession", func() { s, err = fault.NewSession(c) })
	return s, err
}

// campaignO1 replays `campaign -model M -workers W -json BIN`.
func (rp *replayer) campaignO1(in *verdict.Input, modelSpec string, workers int) ([]byte, error) {
	models, err := fault.ParseModels(modelSpec)
	if err != nil {
		return nil, err
	}
	c, err := rp.campaignFor(in, models)
	if err != nil {
		return nil, err
	}
	s, err := rp.session(c)
	if err != nil {
		return nil, err
	}
	var inj []fault.Injection
	rp.t.span("fault.ExecuteShard", func() { inj, _ = s.ExecuteShard(0, 1, workers, nil) })
	var sum campaign.Summary
	rp.t.span("campaign.Summarize", func() { sum = campaign.Summarize(filepath.Base(in.Path), s.Report(inj)) })
	return rp.writeJSON("campaign.WriteJSON", func(b *bytes.Buffer) error { return campaign.WriteJSON(b, []campaign.Summary{sum}) })
}

// campaignO2Pruned replays `campaign -order 2 -prune -max-pairs N
// -workers W -json BIN`: the pruned solo sweep, the pair list, and the
// pruned pair sweep on the first-fault snapshot tree.
func (rp *replayer) campaignO2Pruned(in *verdict.Input, maxPairs, workers int) ([]byte, error) {
	models, err := fault.ParseModels("both")
	if err != nil {
		return nil, err
	}
	c, err := rp.campaignFor(in, models)
	if err != nil {
		return nil, err
	}
	s, err := rp.session(c)
	if err != nil {
		return nil, err
	}
	var solo []fault.Injection
	rp.t.span("fault.ExecuteShardSim", func() { solo, _ = s.ExecuteShardSim(0, 1, workers, s.NewPruner().Simulate, nil) })
	var pairs []fault.FaultPair
	rp.t.span("fault.EnumeratePairs", func() { pairs = fault.EnumeratePairs(solo, maxPairs) })
	var pr *fault.PairPruner
	rp.t.span("fault.NewPairPruner", func() { pr = s.NewPairPruner(solo) })
	var inj []fault.PairInjection
	var tally fault.Tally
	rp.t.span("fault.ExecutePairShardPruned", func() { inj, tally = s.ExecutePairShardPruned(pairs, pr, 0, 1, workers, nil) })
	var sum campaign.Summary
	rp.t.span("campaign.SummarizeOrder2", func() {
		sum = campaign.SummarizeOrder2(filepath.Base(in.Path), &campaign.Order2Report{Solo: s.Report(solo), Pairs: inj, PairTally: tally})
	})
	return rp.writeJSON("campaign.WriteJSON", func(b *bytes.Buffer) error { return campaign.WriteJSON(b, []campaign.Summary{sum}) })
}

// campaignO2Store replays `campaign -order 2 -workers 2 -json
// -cache-dir D BIN` through the store.
func (rp *replayer) campaignO2Store(in *verdict.Input, dir string) ([]byte, error) {
	models, err := fault.ParseModels("both")
	if err != nil {
		return nil, err
	}
	c, err := rp.campaignFor(in, models)
	if err != nil {
		return nil, err
	}
	var st *campaign.Store
	rp.t.span("campaign.NewStore", func() { st, err = campaign.NewStore(dir) })
	if err != nil {
		return nil, err
	}
	var res *campaign.Order2Result
	rp.t.span("campaign.RunOrder2Incremental", func() {
		res, err = campaign.RunOrder2Incremental(c, campaign.Options{Workers: 2, Store: st}, nil)
	})
	if err != nil {
		return nil, err
	}
	var sum campaign.Summary
	rp.t.span("campaign.SummarizeOrder2", func() {
		sum = campaign.SummarizeOrder2(filepath.Base(in.Path), res.Report)
		sum.Cache = &res.Cache
	})
	return rp.writeJSON("campaign.WriteJSON", func(b *bytes.Buffer) error { return campaign.WriteJSON(b, []campaign.Summary{sum}) })
}

// corpusJobs builds the catalog's corpus jobs as `r2r corpus` does with
// its default models and de-duplicated sites.
func (rp *replayer) corpusJobs() ([]campaign.CorpusJob, error) {
	models, err := fault.ParseModels("both")
	if err != nil {
		return nil, err
	}
	var jobs []campaign.CorpusJob
	for _, c := range cases.Corpus() {
		var bin *elf.Binary
		rp.t.span("cases.Build", func() { bin, err = c.Build() })
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, campaign.CorpusJob{Case: c.Name, Campaign: fault.Campaign{
			Binary: bin, Good: c.Good, Bad: c.Bad, Models: models,
			StepLimit: corpusStepLimit, DedupSites: true,
		}})
	}
	return jobs, nil
}

func corpusO3Options(parallelCells int) campaign.CorpusOptions {
	return campaign.CorpusOptions{
		Options:       campaign.Options{Workers: 2, MaxTriples: 4096, Prune: true},
		Orders:        []int{1, 2, 3},
		ParallelCells: parallelCells,
	}
}

// corpusO3 replays `corpus -order 3 -prune -max-triples 4096
// -parallel-cells 5 -workers 2 -json`.
func (rp *replayer) corpusO3() ([]byte, error) {
	jobs, err := rp.corpusJobs()
	if err != nil {
		return nil, err
	}
	var res *campaign.CorpusResult
	rp.t.span("campaign.RunCorpus", func() { res, err = campaign.RunCorpus(jobs, corpusO3Options(5)) })
	if err != nil {
		return nil, err
	}
	if errs := res.Errs(); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return rp.writeJSON("campaign.WriteJSON", func(b *bytes.Buffer) error { return campaign.WriteJSON(b, res.Summaries()) })
}

// patch replays `patch -order 2 -json -o OUT [-cache-dir D] BIN`,
// including its post-pass static gate.
func (rp *replayer) patch(in *verdict.Input, dir, out string) ([]byte, error) {
	models, err := fault.ParseModels("both")
	if err != nil {
		return nil, err
	}
	bin, err := rp.load(in.Path)
	if err != nil {
		return nil, err
	}
	opt := patch.Options{Good: in.Good, Bad: in.Bad, Models: models, Order: 2}
	if dir != "" {
		rp.t.span("campaign.NewStore", func() { opt.Store, err = campaign.NewStore(dir) })
		if err != nil {
			return nil, err
		}
	}
	var res *patch.Result
	rp.t.span("patch.Harden", func() { res, err = patch.Harden(bin, opt) })
	if err != nil {
		return nil, err
	}
	if hasOrder2(res.Program) {
		var vfs []static.Finding
		rp.t.span("static.VerifyBIR", func() { vfs = static.VerifyBIR(res.Program, birConfig()) })
		if len(vfs) > 0 {
			return nil, fmt.Errorf("static verification failed: %d finding(s)", len(vfs))
		}
	}
	if err := rp.save(res.Binary, out); err != nil {
		return nil, err
	}
	return rp.writeJSON("patch.WriteJSON", func(b *bytes.Buffer) error { return res.WriteJSON(b) })
}

// hybrid replays `hybrid -harden order2 -o OUT BIN`: the Hybrid
// pipeline step by step (harden.Hybrid with SkipWindow), then the
// post-pass static gate.
func (rp *replayer) hybrid(in *verdict.Input, out string) error {
	bin, err := rp.load(in.Path)
	if err != nil {
		return err
	}
	lr, low, err := rp.hybridBuild(bin)
	if err != nil {
		return err
	}
	var a *static.Analysis
	rp.t.span("static.Analyze", func() { a, err = static.Analyze(low.Binary) })
	if err != nil {
		return err
	}
	var fs []static.Finding
	rp.t.span("static.CheckCoverage", func() { fs = a.CheckCoverage() })
	rp.t.span("static.VerifyIR", func() { fs = append(fs, static.VerifyIR(lr.Module, irConfig())...) })
	if len(fs) > 0 {
		return fmt.Errorf("static verification failed: %d finding(s)", len(fs))
	}
	return rp.save(low.Binary, out)
}

// hybridBuild is harden.Hybrid with SkipWindow set, one span per stage.
func (rp *replayer) hybridBuild(bin *elf.Binary) (*lift.Result, *lower.Result, error) {
	var lr *lift.Result
	var err error
	rp.t.span("lift.Lift", func() { lr, err = lift.Lift(bin) })
	if err != nil {
		return nil, nil, err
	}
	var hs passes.HardenStats
	var sw passes.SkipWindowStats
	for _, stage := range []struct {
		name string
		ps   []passes.Pass
	}{
		{"passes.Cleanup", passes.CleanupPipeline()},
		{"passes.BranchHarden", []passes.Pass{passes.BranchHarden{Stats: &hs}}},
		{"passes.SkipWindowHarden", []passes.Pass{passes.SkipWindowHarden{Stats: &sw}}},
		{"passes.PostHardenCleanup", passes.PostHardenCleanup()},
	} {
		rp.t.span(stage.name, func() { err = passes.Run(lr.Module, stage.ps...) })
		if err != nil {
			return nil, nil, err
		}
	}
	var low *lower.Result
	rp.t.span("lower.Lower", func() { low, err = lower.Lower(lr, lower.Options{}) })
	return lr, low, err
}

// verify replays `verify -json BIN`.
func (rp *replayer) verify(path string) ([]byte, error) {
	bin, err := rp.load(path)
	if err != nil {
		return nil, err
	}
	var a *static.Analysis
	rp.t.span("static.Analyze", func() { a, err = static.Analyze(bin) })
	if err != nil {
		return nil, err
	}
	var fs []static.Finding
	rp.t.span("static.CheckCoverage", func() { fs = a.CheckCoverage() })
	if len(fs) > 0 {
		return nil, fmt.Errorf("%s: %d hardening invariant violation(s)", path, len(fs))
	}
	return rp.writeJSON("static.WriteFindingsJSON", func(b *bytes.Buffer) error { return static.WriteFindingsJSON(b, fs) })
}

// oracle replays `oracle -n 32 -workers 1 -json ORIG HARDENED`.
func (rp *replayer) oracle(origPath, hardPath string) ([]byte, error) {
	orig, err := rp.load(origPath)
	if err != nil {
		return nil, err
	}
	hard, err := rp.load(hardPath)
	if err != nil {
		return nil, err
	}
	var inputs [][]byte
	rp.t.span("oracle.GenericInputs", func() { inputs = oracle.GenericInputs(oracleInputs, oracleSeed, 0) })
	var rep *oracle.Report
	rp.t.span("oracle.Diff", func() { rep = oracle.Diff(orig, hard, inputs, oracle.Options{Workers: 1}) })
	if rep.Divergences > 0 {
		return nil, fmt.Errorf("%d behavioral divergence(s)", rep.Divergences)
	}
	cr := &oracle.CaseReport{
		Case: filepath.Base(origPath), Pipeline: "external", HardenedDigest: hard.Digest(),
		Inputs: rep.Inputs, Divergences: rep.Divergences, Divergent: rep.Divergent, Truncated: rep.Truncated,
	}
	return rp.writeJSON("report.WriteJSON", func(b *bytes.Buffer) error { return report.WriteJSON(b, []*oracle.CaseReport{cr}) })
}

// irConfig and birConfig bind the verifier to the toolchain's names,
// exactly as cmd/r2r does.
func irConfig() static.IRConfig {
	return static.IRConfig{OkCell: passes.CellSWOk, CtrCell: passes.CellStepCtr, Window: passes.DefaultSkipWindow}
}

func birConfig() static.BIRConfig {
	return static.BIRConfig{FaultHandler: patch.FaulthandlerLabel}
}

func hasOrder2(p *bir.Program) bool {
	for _, b := range p.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Order2 {
				return true
			}
		}
	}
	return false
}
