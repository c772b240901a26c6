package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/r2r/reinforce/bench/internal/stats"
	"github.com/r2r/reinforce/bench/internal/verdict"
	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/lift"
	"github.com/r2r/reinforce/internal/oracle"
	"github.com/r2r/reinforce/internal/patch"
	"github.com/r2r/reinforce/internal/static"
)

// Loop sizes of the layer probes: enough repetitions that a call of a
// few microseconds is timed over at least a millisecond.
const (
	microReps  = 200
	parseReps  = 50
	exportReps = 20
	emuBudget  = 40 * time.Millisecond // per binary and emulator mode
	emuAllocs  = 20                    // runs per binary for the allocation count
	stepLimit  = 32 << 20
)

// probeBin is one probe binary, loaded once.
type probeBin struct {
	name      string
	data      []byte
	bin       *elf.Binary
	good, bad []byte
}

// prober measures each layer directly on the probe binaries, inside
// spans, and fills the per-layer metrics. It reuses the replayer's
// instrumented pipeline steps where a probe runs the same calls.
type prober struct {
	rp   *replayer
	seed uint64
	bins []*probeBin
	m    map[string]float64
}

// acc accumulates time over units of work.
type acc struct {
	d time.Duration
	n int64
}

func (a *acc) add(d time.Duration, n int) { a.d += d; a.n += int64(n) }

// per is the mean time per unit, in the given unit of time.
func (a acc) per(unit time.Duration) float64 { return float64(a.d) / float64(unit) / float64(a.n) }

// rate is units per second.
func (a acc) rate() float64 { return float64(a.n) / a.d.Seconds() }

func newProber(rp *replayer, seed uint64, ins []verdict.Input) (*prober, error) {
	p := &prober{rp: rp, seed: seed, m: map[string]float64{}}
	for _, in := range ins {
		data, err := os.ReadFile(in.Path)
		if err != nil {
			return nil, err
		}
		bin, err := elf.Load(data)
		if err != nil {
			return nil, err
		}
		p.bins = append(p.bins, &probeBin{name: in.Name, data: data, bin: bin, good: in.Good, bad: in.Bad})
	}
	return p, nil
}

func (p *prober) run() error {
	for _, probe := range []func() error{p.elf, p.emu, p.fault, p.campaign, p.pipelines} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) at(layer, name string) *tracer {
	p.rp.t.req = "probe/" + layer + "/" + name
	return p.rp.t
}

// elf times image parsing and encoding, and the variant generator
// behind every run's inputs.
func (p *prober) elf() error {
	var parse, write acc
	for _, b := range p.bins {
		t := p.at("elf", b.name)
		var err error
		parse.add(t.spanN("elf.Load", parseReps, func() {
			for i := 0; i < parseReps && err == nil; i++ {
				_, err = elf.Load(b.data)
			}
		}), parseReps)
		write.add(t.spanN("elf.Bytes", parseReps, func() {
			for i := 0; i < parseReps && err == nil; i++ {
				_, err = b.bin.Bytes()
			}
		}), parseReps)
		if err != nil {
			return err
		}
	}
	t := p.at("cases", "catalog")
	d := t.span("oracle.Variants", func() {
		for _, c := range cases.Corpus() {
			oracle.Variants(c, 19, p.seed)
		}
	})
	p.m["elf.parse_us"] = parse.per(time.Microsecond)
	p.m["elf.write_us"] = write.per(time.Microsecond)
	p.m["cases.variants_ms"] = float64(d) / float64(time.Millisecond)
	return nil
}

// emu times the emulator alone: whole runs on the fast path and on the
// single-step interpreter, allocations per run, the snapshot fork, and
// the state digest, all on the bad-input reference run.
func (p *prober) emu() error {
	for _, mode := range []struct {
		metric string
		single bool
	}{{"emu.steps_per_s", false}, {"emu.singlestep_steps_per_s", true}} {
		var steps int64
		var d time.Duration
		for _, b := range p.bins {
			t := p.at("emu", b.name)
			cfg := emu.Config{Stdin: b.bad, StepLimit: stepLimit, SingleStep: mode.single}
			t.begin("emu.Run")
			start := time.Now()
			runs := 0
			for runs == 0 || time.Since(start) < emuBudget {
				res, _ := emu.New(b.bin, cfg).Run()
				steps += int64(res.Steps)
				runs++
			}
			d += t.end(int64(runs))
		}
		p.m[mode.metric] = float64(steps) / d.Seconds()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range p.bins {
		for i := 0; i < emuAllocs; i++ {
			emu.New(b.bin, emu.Config{Stdin: b.bad, StepLimit: stepLimit}).Run()
		}
	}
	runtime.ReadMemStats(&after)
	p.m["emu.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(emuAllocs*len(p.bins))

	var fork, digest acc
	for _, b := range p.bins {
		t := p.at("emu", b.name)
		cfg := emu.Config{Stdin: b.bad, StepLimit: stepLimit}
		res, _ := emu.New(b.bin, cfg).Run()
		m := emu.New(b.bin, cfg)
		m.RunUntil(res.Steps / 2)
		fork.add(t.spanN("emu.Fork", microReps, func() {
			for i := 0; i < microReps; i++ {
				m.Snapshot().Resume(cfg).Release()
			}
		}), microReps)
		digest.add(t.spanN("emu.StateDigest", microReps, func() {
			for i := 0; i < microReps; i++ {
				m.StateDigest()
			}
		}), microReps)
	}
	p.m["emu.fork_us"] = fork.per(time.Microsecond)
	p.m["emu.digest_us"] = digest.per(time.Microsecond)
	return nil
}

// fault times the simulation engine: session set-up and the exhaustive
// single-worker sweep over every model (the sweep workload's shape),
// then the pruned solo, pair and triple stages on two workers (the
// multifault workload's shape), with the pruners' accounting.
func (p *prober) fault() error {
	all, err := fault.ParseModels("all")
	if err != nil {
		return err
	}
	both, err := fault.ParseModels("both")
	if err != nil {
		return err
	}
	var session, inject, pair, triple, export acc
	var solo, pairs fault.PruneStats
	for _, b := range p.bins {
		t := p.at("fault", b.name)
		c := fault.Campaign{Binary: b.bin, Good: b.good, Bad: b.bad, Models: all}
		var s *fault.Session
		session.add(t.span("fault.NewSession", func() { s, err = fault.NewSession(c) }), 1)
		if err != nil {
			return err
		}
		var inj []fault.Injection
		t.begin("fault.ExecuteShard")
		inj, _ = s.ExecuteShard(0, 1, 1, nil)
		inject.add(t.end(int64(len(inj))), len(inj))

		rep := s.Report(inj)
		t = p.at("campaign", b.name)
		export.add(t.spanN("campaign.Export", exportReps, func() {
			for i := 0; i < exportReps && err == nil; i++ {
				var sb strings.Builder
				err = campaign.WriteJSON(&sb, []campaign.Summary{campaign.Summarize(b.name, rep)})
			}
		}), exportReps)
		if err != nil {
			return err
		}

		t = p.at("fault", b.name)
		c.Models = both
		if s, err = p.rp.session(c); err != nil {
			return err
		}
		pr := s.NewPruner()
		var soloInj []fault.Injection
		t.span("fault.ExecuteShardSim", func() { soloInj, _ = s.ExecuteShardSim(0, 1, 2, pr.Simulate, nil) })
		solo.Add(pr.Stats())
		list := fault.EnumeratePairs(soloInj, 32768)
		pp := s.NewPairPruner(soloInj)
		var pairInj []fault.PairInjection
		t.begin("fault.ExecutePairShardPruned")
		pairInj, _ = s.ExecutePairShardPruned(list, pp, 0, 1, 2, nil)
		pair.add(t.end(int64(len(list))), len(list))
		pairs.Add(pp.Stats())
		triples := fault.EnumerateTriples(soloInj, 4096)
		pp.SetPairOutcomes(pairInj)
		t.begin("fault.ExecuteTripleShard")
		s.ExecuteTripleShard(triples, pp, 0, 1, 2, nil)
		triple.add(t.end(int64(len(triples))), len(triples))
	}
	p.m["fault.session_ms"] = session.per(time.Millisecond)
	p.m["fault.injection_us"] = inject.per(time.Microsecond)
	p.m["fault.injections"] = float64(inject.n)
	p.m["fault.solo_pruned_frac"] = float64(solo.Pruned()) / float64(solo.Total())
	p.m["fault.pair_us"] = pair.per(time.Microsecond)
	p.m["fault.pair_pruned_frac"] = float64(pairs.Pruned()) / float64(pairs.Total())
	p.m["fault.triple_us"] = triple.per(time.Microsecond)
	p.m["campaign.export_us"] = export.per(time.Microsecond)
	return nil
}

// storeAcc accumulates the store probe over the probe binaries.
type storeAcc struct {
	lookup, lookupMem, save acc
	entryBytes              int64
}

// campaign times the orchestration layer: plan keys, the disk store's
// read and write paths, the shared worker pool with empty work, and the
// order-3 corpus sweep with sequential versus five parallel cells.
func (p *prober) campaign() error {
	both, err := fault.ParseModels("both")
	if err != nil {
		return err
	}
	var plan acc
	var st storeAcc
	for _, b := range p.bins {
		t := p.at("campaign", b.name)
		c := fault.Campaign{Binary: b.bin, Good: b.good, Bad: b.bad, Models: both}
		plan.add(t.spanN("campaign.NewPlan", microReps, func() {
			for i := 0; i < microReps; i++ {
				campaign.NewPlan(c, campaign.Shard{Index: 0, Count: 1}, 2, 0)
			}
		}), microReps)
		if err := p.store(b, c, &st); err != nil {
			return err
		}
	}
	p.m["campaign.plan_us"] = plan.per(time.Microsecond)
	p.m["campaign.store_lookup_ms"] = st.lookup.per(time.Millisecond)
	p.m["campaign.store_lookup_mem_us"] = st.lookupMem.per(time.Microsecond)
	p.m["campaign.store_save_ms"] = st.save.per(time.Millisecond)
	p.m["campaign.store_entry_kb"] = float64(st.entryBytes) / 1024 / float64(st.lookup.n)

	t := p.at("campaign", "pool")
	pool := campaign.NewWorkerPool(2)
	pool.Execute(1024, func(lo, hi int) {})
	d := t.spanN("campaign.WorkerPool.Execute", microReps, func() {
		for i := 0; i < microReps; i++ {
			pool.Execute(1024, func(lo, hi int) {})
		}
	})
	pool.Close()
	p.m["campaign.pool_execute_us"] = float64(d) / float64(time.Microsecond) / microReps

	// Alternate sequential and parallel cells so drift hits both alike.
	t = p.at("campaign", "corpus")
	var seq, par []float64
	for i := 0; i < 2; i++ {
		for _, cells := range []int{1, 5} {
			jobs, err := p.rp.corpusJobs()
			if err != nil {
				return err
			}
			d := t.span("campaign.RunCorpus", func() { _, err = campaign.RunCorpus(jobs, corpusO3Options(cells)) })
			if err != nil {
				return err
			}
			if cells == 1 {
				seq = append(seq, d.Seconds())
			} else {
				par = append(par, d.Seconds())
			}
		}
	}
	p.m["campaign.corpus_parallel_speedup"] = stats.Median(seq) / stats.Median(par)
	return nil
}

// store fills a disk store cold, as the rerun workload's set-up does,
// then reads every entry back through a fresh store (from disk, then
// from memory) and writes each one again into an empty store.
func (p *prober) store(b *probeBin, c fault.Campaign, a *storeAcc) error {
	t := p.at("campaign", b.name)
	dir := filepath.Join(p.rp.work, "store", b.name)
	var err error
	var filled, fresh, out *campaign.Store
	if filled, err = campaign.NewStore(dir); err != nil {
		return err
	}
	t.span("campaign.RunOrder2Incremental", func() {
		_, err = campaign.RunOrder2Incremental(c, campaign.Options{Workers: 2, Store: filled}, nil)
	})
	if err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if fresh, err = campaign.NewStore(dir); err != nil {
		return err
	}
	if out, err = campaign.NewStore(filepath.Join(p.rp.work, "store-save", b.name)); err != nil {
		return err
	}
	var entries []*campaign.Entry
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		a.entryBytes += fi.Size()
		key := strings.TrimSuffix(filepath.Base(f), ".json")
		var e *campaign.Entry
		a.lookup.add(t.span("campaign.Store.Lookup", func() { e, _ = fresh.Lookup(key) }), 1)
		a.lookupMem.add(t.span("campaign.Store.Lookup", func() { fresh.Lookup(key) }), 1)
		if e == nil {
			return fmt.Errorf("store entry %s did not load", f)
		}
		entries = append(entries, e)
	}
	d := t.span("campaign.Store.Save", func() {
		for _, e := range entries {
			if err == nil {
				err = out.Save(e)
			}
		}
	})
	d += t.span("campaign.Store.Close", out.Close)
	a.save.add(d, len(entries))
	return err
}

// pipelineAcc accumulates the pipeline probe over the probe binaries.
type pipelineAcc struct {
	disasm, reasm, fixed, lift, passes, lower     acc
	analyze, coverage, verifyIR, verifyBIR, diff  acc
	iterations, reused, resim, irInsts, codeBytes int64
	codeRatio, stepRatio                          []float64
}

// pipelines times both hardening pipelines stage by stage, the static
// verifier on their artifacts and the differential oracle, and measures
// what the hardening costs the binary: code size and executed steps on
// the accepted input, as geometric means over the artifacts.
func (p *prober) pipelines() error {
	var a pipelineAcc
	for _, b := range p.bins {
		if err := p.pipeline(b, &a); err != nil {
			return err
		}
	}
	p.m["bir.disassemble_ms"] = a.disasm.per(time.Millisecond)
	p.m["bir.reassemble_ms"] = a.reasm.per(time.Millisecond)
	p.m["patch.fixed_point_ms"] = a.fixed.per(time.Millisecond)
	p.m["patch.iterations"] = float64(a.iterations)
	p.m["patch.reused_frac"] = float64(a.reused) / float64(a.reused+a.resim)
	p.m["lift.lift_ms"] = a.lift.per(time.Millisecond)
	p.m["passes.harden_ms"] = a.passes.per(time.Millisecond)
	p.m["lower.lower_ms"] = a.lower.per(time.Millisecond)
	p.m["lift.ir_insts"] = float64(a.irInsts)
	p.m["lower.code_bytes"] = float64(a.codeBytes)
	p.m["static.analyze_ms"] = a.analyze.per(time.Millisecond)
	p.m["static.coverage_ms"] = a.coverage.per(time.Millisecond)
	p.m["static.verify_ir_ms"] = a.verifyIR.per(time.Millisecond)
	p.m["static.verify_bir_ms"] = a.verifyBIR.per(time.Millisecond)
	p.m["oracle.diff_ms"] = float64(a.diff.d) / float64(time.Millisecond) / float64(2*len(p.bins))
	p.m["oracle.inputs_per_s"] = a.diff.rate()
	p.m["harden.code_overhead_pct"] = (stats.GeoMean(a.codeRatio) - 1) * 100
	p.m["harden.steps_overhead_pct"] = (stats.GeoMean(a.stepRatio) - 1) * 100
	return nil
}

// pipeline runs the pipeline probe on one binary.
func (p *prober) pipeline(b *probeBin, a *pipelineAcc) error {
	both, err := fault.ParseModels("both")
	if err != nil {
		return err
	}
	t := p.at("pipelines", b.name)
	var prog *bir.Program
	a.disasm.add(t.span("bir.Disassemble", func() { prog, err = bir.Disassemble(b.bin) }), 1)
	if err != nil {
		return err
	}
	a.reasm.add(t.span("bir.Reassemble", func() { _, err = prog.Reassemble() }), 1)
	if err != nil {
		return err
	}

	var pres *patch.Result
	a.fixed.add(t.span("patch.Harden", func() {
		pres, err = patch.Harden(b.bin, patch.Options{Good: b.good, Bad: b.bad, Models: both, Order: 2})
	}), 1)
	if err != nil {
		return err
	}
	a.iterations += int64(len(pres.Iterations) + len(pres.PairIterations))
	a.reused += int64(pres.Cache.Reused)
	a.resim += int64(pres.Cache.Resimulated)
	a.verifyBIR.add(t.span("static.VerifyBIR", func() { static.VerifyBIR(pres.Program, birConfig()) }), 1)

	lifted, err := lift.Lift(b.bin)
	if err != nil {
		return err
	}
	a.irInsts += int64(lifted.Module.NumInsts())
	first := len(t.spans)
	lr, low, err := p.rp.hybridBuild(b.bin)
	if err != nil {
		return err
	}
	var passes time.Duration
	for _, s := range t.spans[first:] {
		switch {
		case s.Name == "lift.Lift":
			a.lift.add(s.dur(), 1)
		case s.Name == "lower.Lower":
			a.lower.add(s.dur(), 1)
		case strings.HasPrefix(s.Name, "passes."):
			passes += s.dur()
		}
	}
	a.passes.add(passes, 1)
	a.codeBytes += int64(low.Binary.CodeSize())
	a.verifyIR.add(t.span("static.VerifyIR", func() { static.VerifyIR(lr.Module, irConfig()) }), 1)

	origSteps, err := goodSteps(b.bin, b.good)
	if err != nil {
		return err
	}
	inputs := oracle.GenericInputs(oracleInputs, oracleSeed, 0)
	for _, hard := range []*elf.Binary{pres.Binary, low.Binary} {
		var an *static.Analysis
		var steps uint64
		a.analyze.add(t.span("static.Analyze", func() { an, err = static.Analyze(hard) }), 1)
		if err != nil {
			return err
		}
		a.coverage.add(t.span("static.CheckCoverage", func() { an.CheckCoverage() }), 1)
		a.diff.add(t.span("oracle.Diff", func() { oracle.Diff(b.bin, hard, inputs, oracle.Options{Workers: 1}) }), len(inputs))
		if steps, err = goodSteps(hard, b.good); err != nil {
			return err
		}
		a.codeRatio = append(a.codeRatio, float64(hard.CodeSize())/float64(b.bin.CodeSize()))
		a.stepRatio = append(a.stepRatio, float64(steps)/float64(origSteps))
	}
	return nil
}

// goodSteps counts the steps a binary executes on its accepted input.
func goodSteps(bin *elf.Binary, good []byte) (uint64, error) {
	res, err := emu.New(bin, emu.Config{Stdin: good, StepLimit: stepLimit}).Run()
	return res.Steps, err
}
