// Benchmark harness regenerating every table, figure and claim of the
// paper's evaluation (§V), plus ablations of the hardening pipelines
// and microbenchmarks of the substrate layers.
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark logs the regenerated table (paper column vs
// measured column) and reports its headline numbers as benchmark
// metrics, so bench output doubles as the experiment record.
package reinforce

import (
	"fmt"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/encode"
	"github.com/r2r/reinforce/internal/experiments"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/isa"
	"github.com/r2r/reinforce/internal/lift"
	"github.com/r2r/reinforce/internal/lower"
	"github.com/r2r/reinforce/internal/passes"
	"github.com/r2r/reinforce/internal/patch"
)

// ---------------------------------------------------------------------
// Tables I–III: the local protection patterns. The benchmark measures
// pattern application + reassembly and logs the hardened code shape.
// ---------------------------------------------------------------------

func benchPattern(b *testing.B, op isa.Op, name string) {
	b.Helper()
	c := cases.Pincheck()
	src := c.MustBuild()
	logged := false
	for i := 0; i < b.N; i++ {
		prog, err := bir.Disassemble(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prog.Reassemble(); err != nil {
			b.Fatal(err)
		}
		patch.EnsureFaulthandler(prog)
		var ref bir.InstRef
		found := false
		for _, blk := range prog.Blocks {
			for j := range blk.Insts {
				if blk.Insts[j].I.Op == op && !blk.Insts[j].Protected {
					ref = bir.InstRef{Block: blk, Index: j}
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			b.Fatalf("no %v site", op)
		}
		if err := patch.Apply(prog, ref, patch.StylePaper); err != nil {
			b.Fatal(err)
		}
		out, err := prog.Reassemble()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("%s pattern: %d -> %d bytes of code", name, src.CodeSize(), out.CodeSize())
			b.ReportMetric(float64(out.CodeSize()-src.CodeSize()), "pattern-bytes")
		}
	}
}

// BenchmarkTableI regenerates Table I (mov protection pattern).
func BenchmarkTableI(b *testing.B) { benchPattern(b, isa.MOV, "Table I mov") }

// BenchmarkTableII regenerates Table II (cmp protection pattern).
func BenchmarkTableII(b *testing.B) { benchPattern(b, isa.CMP, "Table II cmp") }

// BenchmarkTableIII regenerates Table III (jcc protection pattern).
func BenchmarkTableIII(b *testing.B) { benchPattern(b, isa.JCC, "Table III jcc") }

// ---------------------------------------------------------------------
// Table IV: qualitative overhead of branch hardening.
// ---------------------------------------------------------------------

// BenchmarkTableIV regenerates Table IV.
func BenchmarkTableIV(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tab, data, err := experiments.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("\n%s", tab)
			sum := func(m map[string]int) (n int) {
				for _, v := range m {
					n += v
				}
				return
			}
			b.ReportMetric(float64(sum(data.IRAfter))/float64(sum(data.IRBefore)), "ir-growth-x")
			b.ReportMetric(float64(sum(data.X86After))/float64(sum(data.X86Before)), "x86-growth-x")
		}
	}
}

// ---------------------------------------------------------------------
// Table V: code-size overhead per pipeline.
// ---------------------------------------------------------------------

// BenchmarkTableV regenerates Table V.
func BenchmarkTableV(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tab, data, err := experiments.TableV()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("\n%s", tab)
			for _, d := range data {
				b.ReportMetric(d.FaulterPatcher, d.Case+"-fp-%")
				b.ReportMetric(d.Hybrid, d.Case+"-hybrid-%")
			}
		}
	}
}

// ---------------------------------------------------------------------
// §V-C claims.
// ---------------------------------------------------------------------

// BenchmarkClaimSkipResolved regenerates the instruction-skip claim.
func BenchmarkClaimSkipResolved(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tab, data, err := experiments.ClaimSkip()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("\n%s", tab)
			residual := 0
			for _, d := range data {
				residual += d.PointsAfter
			}
			b.ReportMetric(float64(residual), "residual-skip-vulns")
		}
	}
}

// BenchmarkClaimBitflipReduction regenerates the single-bit-flip claim.
func BenchmarkClaimBitflipReduction(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tab, data, err := experiments.ClaimBitflip()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("\n%s", tab)
			worst := 1.0
			for _, d := range data {
				if d.PointsBefore > 0 {
					r := 1 - float64(d.PointsAfter)/float64(d.PointsBefore)
					if r < worst {
						worst = r
					}
				}
			}
			b.ReportMetric(worst*100, "worst-reduction-%")
		}
	}
}

// BenchmarkClaimVulnClasses regenerates the vulnerability-class census.
func BenchmarkClaimVulnClasses(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tab, data, err := experiments.ClaimClass()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("\n%s", tab)
			other := 0
			for _, d := range data {
				other += d.Counts[fault.ClassOther]
			}
			b.ReportMetric(float64(other), "outside-cluster-sites")
		}
	}
}

// BenchmarkClaimDuplicationOverhead regenerates the duplication-baseline
// comparison.
func BenchmarkClaimDuplicationOverhead(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tab, data, err := experiments.ClaimDup()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("\n%s", tab)
			for _, d := range data {
				b.ReportMetric(d.DupPct, d.Case+"-dup-%")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Figures 4 & 5: CFG shapes.
// ---------------------------------------------------------------------

// BenchmarkFigure4 regenerates Figure 4 (plain branch CFG census).
func BenchmarkFigure4(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		tab, data, err := experiments.Figures()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("\n%s", tab)
			b.ReportMetric(float64(data.BlocksBefore), "fig4-blocks")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5 (hardened branch CFG census).
func BenchmarkFigure5(b *testing.B) {
	logged := false
	for i := 0; i < b.N; i++ {
		_, data, err := experiments.Figures()
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("fig5: +%d validation blocks, +%d fault-response blocks per branch",
				data.ValidationBlocks, data.FaultRespBlocks)
			b.ReportMetric(float64(data.ValidationBlocks), "fig5-validation-blocks")
			b.ReportMetric(float64(data.FaultRespBlocks), "fig5-fltresp-blocks")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations: each knob of the Hybrid pipeline toggled in isolation.
// ---------------------------------------------------------------------

// BenchmarkAblationTargeting compares targeted patching against blanket
// duplication on the reassembly substrate.
func BenchmarkAblationTargeting(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	logged := false
	for i := 0; i < b.N; i++ {
		fp, err := patch.Harden(bin, patch.Options{
			Good: c.Good, Bad: c.Bad,
		})
		if err != nil {
			b.Fatal(err)
		}
		dup, err := patch.HardenAll(bin, patch.StyleFallthrough)
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			b.Logf("targeted %.2f%% vs blanket %.2f%%", fp.Overhead()*100, dup.Overhead()*100)
			b.ReportMetric(fp.Overhead()*100, "targeted-%")
			b.ReportMetric(dup.Overhead()*100, "blanket-%")
		}
	}
}

// BenchmarkAblationLoweringOpts measures how much of the Hybrid overhead
// each code-generator optimization buys back.
func BenchmarkAblationLoweringOpts(b *testing.B) {
	bin := cases.Pincheck().MustBuild()
	configs := []struct {
		name string
		opt  harden.HybridOptions
	}{
		{"full", harden.HybridOptions{}},
		{"no-fusion", harden.HybridOptions{Lower: lower.Options{DisableFusion: true}}},
		{"no-acc-cache", harden.HybridOptions{Lower: lower.Options{DisableAccCache: true}}},
		{"no-cleanup", harden.HybridOptions{SkipCleanup: true}},
	}
	logged := false
	for i := 0; i < b.N; i++ {
		line := ""
		for _, cfg := range configs {
			res, err := harden.Hybrid(bin, cfg.opt)
			if err != nil {
				b.Fatal(err)
			}
			line += fmt.Sprintf("  %s=%.1f%%", cfg.name, res.Overhead()*100)
			if !logged {
				b.ReportMetric(res.Overhead()*100, cfg.name+"-%")
			}
		}
		if !logged {
			logged = true
			b.Logf("hybrid overhead by codegen config:%s", line)
		}
	}
}

// BenchmarkAblationFaultPersistence compares persistent and transient
// bit flips.
func BenchmarkAblationFaultPersistence(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	logged := false
	for i := 0; i < b.N; i++ {
		var succ [2]int
		for j, transient := range []bool{false, true} {
			rep, err := fault.Run(fault.Campaign{
				Binary: bin, Good: c.Good, Bad: c.Bad,
				Models: []fault.Model{fault.ModelBitFlip}, Transient: transient,
			})
			if err != nil {
				b.Fatal(err)
			}
			succ[j] = len(rep.Successful())
		}
		if !logged {
			logged = true
			b.Logf("bitflip successes: persistent=%d transient=%d", succ[0], succ[1])
			b.ReportMetric(float64(succ[0]), "persistent-vulns")
			b.ReportMetric(float64(succ[1]), "transient-vulns")
		}
	}
}

// BenchmarkAblationFaultDedup compares per-trace-offset and per-site
// fault targeting.
func BenchmarkAblationFaultDedup(b *testing.B) {
	c := cases.Bootloader() // loop-heavy: dedup matters
	bin := c.MustBuild()
	logged := false
	for i := 0; i < b.N; i++ {
		var injections [2]int
		var sites [2]int
		for j, dedup := range []bool{false, true} {
			rep, err := fault.Run(fault.Campaign{
				Binary: bin, Good: c.Good, Bad: c.Bad,
				Models: []fault.Model{fault.ModelSkip}, DedupSites: dedup,
			})
			if err != nil {
				b.Fatal(err)
			}
			injections[j] = len(rep.Injections)
			sites[j] = len(rep.VulnerableSites())
		}
		if !logged {
			logged = true
			b.Logf("skip injections: full=%d dedup=%d (vulnerable sites %d vs %d)",
				injections[0], injections[1], sites[0], sites[1])
			b.ReportMetric(float64(injections[0]), "full-injections")
			b.ReportMetric(float64(injections[1]), "dedup-injections")
		}
	}
}

// BenchmarkAblationChecksum compares the paper's XOR edge checksum with
// the add/rotate variant.
func BenchmarkAblationChecksum(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	logged := false
	for i := 0; i < b.N; i++ {
		var sizes [2]int
		for j, kind := range []passes.ChecksumKind{passes.ChecksumXOR, passes.ChecksumAddRot} {
			res, err := harden.Hybrid(bin, harden.HybridOptions{Checksum: kind})
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Check(res.Binary); err != nil {
				b.Fatal(err)
			}
			sizes[j] = res.Binary.CodeSize()
		}
		if !logged {
			logged = true
			b.Logf("hybrid code size: xor=%dB addrot=%dB", sizes[0], sizes[1])
			b.ReportMetric(float64(sizes[0]), "xor-bytes")
			b.ReportMetric(float64(sizes[1]), "addrot-bytes")
		}
	}
}

// BenchmarkAblationPatternStyle compares the paper's printed Tables
// I–III patterns against the fall-through variant: the printed patterns
// leave their own taken-branch displacements attackable, which is
// exactly the residual the paper's 50% bit-flip figure reflects.
func BenchmarkAblationPatternStyle(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	logged := false
	for i := 0; i < b.N; i++ {
		var residual [2]int
		for j, style := range []patch.Style{patch.StylePaper, patch.StyleFallthrough} {
			res, err := patch.Harden(bin, patch.Options{
				Good: c.Good, Bad: c.Bad,
				Models: []fault.Model{fault.ModelBitFlip},
				Style:  style,
			})
			if err != nil {
				b.Fatal(err)
			}
			residual[j] = len(res.Final.Successful())
		}
		if !logged {
			logged = true
			b.Logf("residual bitflip points: paper-style=%d fallthrough-style=%d",
				residual[0], residual[1])
			b.ReportMetric(float64(residual[0]), "paper-style-residual")
			b.ReportMetric(float64(residual[1]), "fallthrough-residual")
		}
	}
}

// ---------------------------------------------------------------------
// Substrate microbenchmarks.
// ---------------------------------------------------------------------

// BenchmarkEncode measures single-instruction encoding.
func BenchmarkEncode(b *testing.B) {
	in := isa.NewInst(isa.MOV, isa.R(isa.RAX), isa.M(isa.RBX, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encode.Encode(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures single-instruction decoding.
func BenchmarkDecode(b *testing.B) {
	code := encode.MustEncode(isa.NewInst(isa.MOV, isa.R(isa.RAX), isa.M(isa.RBX, 16)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decode.Decode(code, 0x401000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble measures assembling the pincheck case study.
func BenchmarkAssemble(b *testing.B) {
	src := cases.Pincheck().Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulator measures interpreter throughput (steps/sec) on the
// bootloader's hash loop.
func BenchmarkEmulator(b *testing.B) {
	c := cases.Bootloader()
	bin := c.MustBuild()
	b.ReportAllocs()
	var steps uint64
	for i := 0; i < b.N; i++ {
		m := emu.New(bin, emu.Config{Stdin: c.Good})
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		m.Release()
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkFaultCampaign measures a full skip-model campaign on
// pincheck.
func BenchmarkFaultCampaign(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	for i := 0; i < b.N; i++ {
		rep, err := fault.Run(fault.Campaign{
			Binary: bin, Good: c.Good, Bad: c.Bad,
			Models: []fault.Model{fault.ModelSkip},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Injections) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkCampaignEngineBitflip measures the snapshot-cached engine on
// the exhaustive pincheck bit-flip sweep — the workload the campaign
// subsystem exists for (golden run memoized once, every injection forks
// a copy-on-write snapshot, undecodable flips pre-screened).
func BenchmarkCampaignEngineBitflip(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	injections := 0
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(fault.Campaign{
			Binary: bin, Good: c.Good, Bad: c.Bad,
			Models: []fault.Model{fault.ModelBitFlip},
		}, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		injections += len(rep.Injections)
	}
	b.ReportMetric(float64(injections)/b.Elapsed().Seconds(), "injections/s")
}

// BenchmarkCampaignSessionReuse isolates the engine's per-injection
// cost: one session, every fault simulated b.N-independent times.
func BenchmarkCampaignSessionReuse(b *testing.B) {
	c := cases.Pincheck()
	s, err := fault.NewSession(fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip},
	})
	if err != nil {
		b.Fatal(err)
	}
	faults := s.Faults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Simulate(faults[i%len(faults)])
	}
}

// BenchmarkCampaignBatch measures the batch API sweeping both case
// studies under the skip model, as the evaluation harness does.
func BenchmarkCampaignBatch(b *testing.B) {
	var jobs []campaign.Job
	for _, c := range cases.All() {
		jobs = append(jobs, campaign.Job{
			Name: c.Name,
			Campaign: fault.Campaign{
				Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
				Models: []fault.Model{fault.ModelSkip},
			},
		})
	}
	for i := 0; i < b.N; i++ {
		for _, r := range campaign.RunAll(jobs, campaign.Options{}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkCampaignNewModels measures the extended fault catalog
// (register flips, multi-skips, data flips) on pincheck.
func BenchmarkCampaignNewModels(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	injections := 0
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(fault.Campaign{
			Binary: bin, Good: c.Good, Bad: c.Bad,
			Models: []fault.Model{fault.ModelRegFlip, fault.ModelMultiSkip, fault.ModelDataFlip},
		}, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		injections += len(rep.Injections)
	}
	b.ReportMetric(float64(injections)/b.Elapsed().Seconds(), "injections/s")
}

// BenchmarkCampaignOrder2 measures an order-2 skip-pair campaign on
// pincheck (solo sweep + pruned pair enumeration + pair simulation).
func BenchmarkCampaignOrder2(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	pairs := 0
	for i := 0; i < b.N; i++ {
		rep, err := campaign.RunOrder2(fault.Campaign{
			Binary: bin, Good: c.Good, Bad: c.Bad,
			Models: []fault.Model{fault.ModelSkip},
		}, campaign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pairs += len(rep.Pairs)
	}
	b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkLift measures lifting the bootloader to IR.
func BenchmarkLift(b *testing.B) {
	bin := cases.Bootloader().MustBuild()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lift.Lift(bin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLower measures the full lift+cleanup+lower round trip.
func BenchmarkLower(b *testing.B) {
	bin := cases.Bootloader().MustBuild()
	for i := 0; i < b.N; i++ {
		lr, err := lift.Lift(bin)
		if err != nil {
			b.Fatal(err)
		}
		if err := passes.Run(lr.Module, passes.CleanupPipeline()...); err != nil {
			b.Fatal(err)
		}
		if _, err := lower.Lower(lr, lower.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridPipeline measures the complete Hybrid hardening
// pipeline end to end.
func BenchmarkHybridPipeline(b *testing.B) {
	bin := cases.Pincheck().MustBuild()
	for i := 0; i < b.N; i++ {
		if _, err := harden.Hybrid(bin, harden.HybridOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaulterPatcherPipeline measures the complete iterative
// pipeline end to end (skip model).
func BenchmarkFaulterPatcherPipeline(b *testing.B) {
	c := cases.Pincheck()
	bin := c.MustBuild()
	for i := 0; i < b.N; i++ {
		if _, err := patch.Harden(bin, patch.Options{
			Good: c.Good, Bad: c.Bad, Models: []fault.Model{fault.ModelSkip},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
