// IR-level verification of the skip-window countermeasure: structural
// proofs over the hardened module, before lowering. The skip-window
// pass annotates what it builds (ir.BlockRole, ir.Instr.Dup), so the
// verifier checks the claimed structure instead of pattern-matching
// instruction soup — and any weakening of that structure (a dropped
// cell re-read, a coalesced clone, a missing counter check) surfaces
// as a Finding at the exact block.
package static

import (
	"fmt"

	"github.com/r2r/reinforce/internal/ir"
)

// IRConfig parameterizes VerifyIR with the hardening pass's cell names
// and window width. The zero value uses the toolchain defaults
// (sw.ok / sw.ctr, window 4), which are what passes.SkipWindowHarden
// builds.
type IRConfig struct {
	// OkCell is the cell the first validation stage parks its combined
	// agreement-and-count bit in (passes.CellSWOk).
	OkCell string
	// CtrCell is the step-counter cell (passes.CellStepCtr).
	CtrCell string
	// Window is the maximum skip-window width the artifact claims to
	// resist; clones must sit more than Window instructions after
	// their originals.
	Window int
}

func (c IRConfig) withDefaults() IRConfig {
	if c.OkCell == "" {
		c.OkCell = "sw.ok"
	}
	if c.CtrCell == "" {
		c.CtrCell = "sw.ctr"
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	return c
}

// VerifyIR proves the skip-window invariants on a hardened module:
//
//   - structure: every instrumented block ends in a two-stage
//     validation chain (branch to a second-stage check re-reading the
//     parked bit from its cell, fault response on either stage's
//     failure path);
//   - step counter: the first-stage condition includes an equality
//     check of the counter cell against a constant;
//   - spacing: every duplicated computation sits more than Window
//     instructions after its original, so no single skip window covers
//     both.
//
// A module with no instrumented block at all yields a module-level
// finding: VerifyIR is only meaningful on artifacts that claim the
// countermeasure.
func VerifyIR(m *ir.Module, cfg IRConfig) []Finding {
	cfg = cfg.withDefaults()
	var findings []Finding
	hardened := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if b.Role != ir.RoleSWBody {
				continue
			}
			hardened++
			findings = append(findings, verifySWBlock(f, b, cfg)...)
		}
	}
	if hardened == 0 {
		findings = append(findings, Finding{
			Check:  "check-coverage",
			Where:  m.Name,
			Detail: "no skip-window-instrumented block found in module",
		})
	}
	return findings
}

// verifySWBlock checks one instrumented block's validation chain and
// clone spacing.
func verifySWBlock(f *ir.Function, b *ir.Block, cfg IRConfig) []Finding {
	var findings []Finding
	where := f.Name + "/" + b.Name
	fail := func(check, format string, args ...interface{}) {
		findings = append(findings, Finding{Check: check, Where: where,
			Detail: fmt.Sprintf(format, args...)})
	}

	// Clone spacing, independent of the validation chain: a clone that
	// drifted within a skip window of its original is a violation even
	// if every check is intact.
	pos := make(map[*ir.Instr]int, len(b.Insts))
	for i, in := range b.Insts {
		pos[in] = i
	}
	for i, in := range b.Insts {
		if in.Dup == nil {
			continue
		}
		op, ok := pos[in.Dup]
		if !ok {
			fail("skip-window-spacing", "clone %%%d separated from its original (not in the same block)", in.ID())
			continue
		}
		if i-op <= cfg.Window {
			fail("skip-window-spacing",
				"clone %%%d only %d instructions after its original (need > %d)",
				in.ID(), i-op, cfg.Window)
		}
	}

	// First validation stage: br ok, chk2, flt.
	term := b.Terminator()
	if term == nil || term.Op != ir.OpBr {
		fail("check-coverage", "instrumented block does not end in a validation branch")
		return findings
	}
	chk2, flt := term.Then, term.Else
	if flt == nil || flt.Role != ir.RoleSWFault {
		fail("check-coverage", "validation branch has no fault-response arm")
	} else if ft := flt.Terminator(); ft == nil || ft.Op != ir.OpFaultResp {
		fail("check-coverage", "fault arm %s does not end in a fault response", flt.Name)
	}
	if chk2 == nil || chk2.Role != ir.RoleSWCheck2 {
		fail("second-stage-check", "validation branch does not continue into a second-stage check")
	} else {
		findings = append(findings, verifyChk2(f, chk2, cfg)...)
	}

	// Step counter: the branch condition's dag must include
	// icmp eq (cellread ctr), const.
	if cond, ok := term.Args[0].(*ir.Instr); !ok || !condIncludesCtrCheck(cond, cfg.CtrCell) {
		fail("step-counter-check",
			"validation condition does not compare cell %s against its static count", cfg.CtrCell)
	}

	// The combined bit must be parked for the second stage to re-read.
	parked := false
	for _, in := range b.Insts {
		if in.Op == ir.OpCellWrite && in.Cell == cfg.OkCell {
			parked = true
			break
		}
	}
	if !parked {
		fail("second-stage-check", "validation bit is never parked in cell %s", cfg.OkCell)
	}
	return findings
}

// verifyChk2 checks a second-stage block: it must branch on a fresh
// read of the parked cell — not on a block-local value a single fault
// could have corrupted together with the first check — and its failure
// arm must be a fault response.
func verifyChk2(f *ir.Function, b *ir.Block, cfg IRConfig) []Finding {
	var findings []Finding
	where := f.Name + "/" + b.Name
	fail := func(format string, args ...interface{}) {
		findings = append(findings, Finding{Check: "second-stage-check", Where: where,
			Detail: fmt.Sprintf(format, args...)})
	}
	term := b.Terminator()
	if term == nil || term.Op != ir.OpBr {
		fail("second-stage check does not end in a branch")
		return findings
	}
	cond, ok := term.Args[0].(*ir.Instr)
	if !ok || cond.Op != ir.OpCellRead || cond.Cell != cfg.OkCell {
		fail("second-stage check does not re-read cell %s", cfg.OkCell)
	}
	if flt := term.Else; flt == nil || flt.Role != ir.RoleSWFault {
		fail("second-stage check has no fault-response arm")
	}
	if cont := term.Then; cont == nil || cont.Role != ir.RoleSWCont {
		fail("second-stage check does not continue into the block's original terminator")
	}
	return findings
}

// condIncludesCtrCheck walks a branch condition's conjunction dag and
// reports whether some leaf is icmp eq (cellread ctrCell), const.
func condIncludesCtrCheck(v *ir.Instr, ctrCell string) bool {
	switch v.Op {
	case ir.OpBin:
		if v.Bin != ir.And {
			return false
		}
		for _, a := range v.Args {
			if in, ok := a.(*ir.Instr); ok && condIncludesCtrCheck(in, ctrCell) {
				return true
			}
		}
		return false
	case ir.OpICmp:
		if v.Pred != ir.EQ || len(v.Args) != 2 {
			return false
		}
		rd, a := v.Args[0], v.Args[1]
		if _, isConst := a.(*ir.Const); !isConst {
			rd, a = a, rd
		}
		if _, isConst := a.(*ir.Const); !isConst {
			return false
		}
		in, ok := rd.(*ir.Instr)
		return ok && in.Op == ir.OpCellRead && in.Cell == ctrCell
	}
	return false
}
