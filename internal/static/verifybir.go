// Binary-IR-level verification of the Faulter+Patcher order-2
// patterns: structural proofs over the patched program before
// reassembly. The order-2 patterns (patch.StyleOrder2) chain two
// independent verifications per protected site; the verifier proves
// per pattern run that detection branches actually come doubled and
// that each derives its own flags, so no single skip can disarm both.
package static

import (
	"fmt"

	"github.com/r2r/reinforce/internal/bir"
	"github.com/r2r/reinforce/internal/isa"
)

// BIRConfig parameterizes VerifyBIR. The zero value uses the
// toolchain's fault handler label ("faulthandler").
type BIRConfig struct {
	// FaultHandler is the label detection branches target
	// (patch.FaulthandlerLabel).
	FaultHandler string
}

func (c BIRConfig) withDefaults() BIRConfig {
	if c.FaultHandler == "" {
		c.FaultHandler = "faulthandler"
	}
	return c
}

// VerifyBIR proves the order-2 pattern invariants on a patched
// program:
//
//   - fault response: the fault handler block exists and ends by
//     exiting with the detector code (42), so detection branches
//     actually terminate the program;
//   - flag provenance: every detection branch (conditional jump to the
//     fault handler inside an order-2 run) branches on flags derived
//     inside the run, by a compare or a flags restore — never on
//     whatever flags the surrounding code left behind;
//   - doubled compare: no two detection branches share one flag
//     derivation (each check's compare is its own), and per run the
//     compare-derived detection branches come in pairs — dropping the
//     second check of a doubled pattern leaves an odd count.
//
// A program with no order-2-marked instruction yields a program-level
// finding: VerifyBIR is only meaningful on StyleOrder2 artifacts.
func VerifyBIR(p *bir.Program, cfg BIRConfig) []Finding {
	cfg = cfg.withDefaults()
	var findings []Finding

	order2 := 0
	for _, b := range p.Blocks {
		for i := 0; i < len(b.Insts); {
			if !b.Insts[i].Order2 {
				i++
				continue
			}
			j := i
			for j < len(b.Insts) && b.Insts[j].Order2 {
				j++
			}
			order2 += j - i
			findings = append(findings, verifyOrder2Run(b, i, j, cfg)...)
			i = j
		}
	}
	if order2 == 0 {
		findings = append(findings, Finding{
			Check:  "doubled-compare",
			Detail: "no order-2 pattern instruction found in program",
		})
		return findings
	}

	findings = append(findings, verifyFaultHandler(p, cfg)...)
	return findings
}

// verifyFaultHandler checks the fault handler block's tail shape:
// mov rax, 60 ; mov rdi, 42 ; syscall.
func verifyFaultHandler(p *bir.Program, cfg BIRConfig) []Finding {
	fh := p.Block(cfg.FaultHandler)
	if fh == nil {
		return []Finding{{Check: "fault-response", Where: cfg.FaultHandler,
			Detail: "fault handler block missing"}}
	}
	n := len(fh.Insts)
	bad := func() []Finding {
		return []Finding{{Check: "fault-response", Where: cfg.FaultHandler,
			Detail: fmt.Sprintf("fault handler does not end in exit(%d)", DetectorExitCode)}}
	}
	if n < 3 {
		return bad()
	}
	movImm := func(in isa.Inst, r isa.Reg, imm int64) bool {
		return in.Op == isa.MOV && in.Dst.IsReg(r) &&
			in.Src.Kind == isa.KindImm && in.Src.Imm == imm
	}
	if fh.Insts[n-1].I.Op != isa.SYSCALL ||
		!movImm(fh.Insts[n-2].I, isa.RDI, DetectorExitCode) ||
		!movImm(fh.Insts[n-3].I, isa.RAX, 60) {
		return bad()
	}
	return nil
}

// verifyOrder2Run checks one maximal run of consecutive order-2
// instructions b.Insts[lo:hi].
func verifyOrder2Run(b *bir.Block, lo, hi int, cfg BIRConfig) []Finding {
	var findings []Finding
	fail := func(check string, idx int, format string, args ...interface{}) {
		findings = append(findings, Finding{Check: check,
			Where:  fmt.Sprintf("%s+%d", b.Label, idx),
			Addr:   b.Insts[idx].I.Addr,
			Detail: fmt.Sprintf(format, args...)})
	}
	writesFlags := func(in isa.Inst) bool { return EffectsOf(in).Has(Flags) }

	prevBranch := lo - 1 // index of the previous detection branch
	cmpDerived := 0
	for i := lo; i < hi; i++ {
		in := b.Insts[i]
		if in.I.Op != isa.JCC || in.TargetLabel != cfg.FaultHandler {
			continue
		}
		// Nearest flag derivation before this detection branch.
		deriver := -1
		for k := i - 1; k >= lo; k-- {
			if writesFlags(b.Insts[k].I) {
				deriver = k
				break
			}
		}
		switch {
		case deriver < 0:
			fail("doubled-compare", i,
				"detection branch has no flag derivation inside its pattern")
		case b.Insts[deriver].I.Op != isa.CMP && b.Insts[deriver].I.Op != isa.POPFQ:
			fail("doubled-compare", i,
				"detection branch reads flags from %s, not a compare or flags restore",
				b.Insts[deriver].I.Mnemonic())
		case deriver <= prevBranch:
			fail("doubled-compare", i,
				"detection branch shares its flag derivation with the previous check")
		case b.Insts[deriver].I.Op == isa.CMP:
			cmpDerived++
		}
		prevBranch = i
	}
	if cmpDerived%2 != 0 {
		fail("doubled-compare", lo,
			"pattern run has %d compare-derived detection branches, want them doubled",
			cmpDerived)
	}
	return findings
}
