// Static countermeasure verification: prove hardening invariants on
// the artifact itself, with no fault simulation. Each verifier returns
// a list of Findings; an empty list is a proof that the checked
// structural invariant holds for the artifact (under the documented
// modelling assumptions), not merely that sampled campaigns found
// nothing.
package static

import (
	"fmt"
	"io"
	"sort"

	"github.com/r2r/reinforce/internal/isa"
	"github.com/r2r/reinforce/internal/report"
)

// DetectorExitCode is the exit status every fault response in the
// toolchain uses (the patcher's faulthandler and the lowering's
// __faultresp both exit 42).
const DetectorExitCode = 42

// Finding is one verifier violation: a hardening invariant that does
// not hold at a specific site.
type Finding struct {
	// Check names the analysis that fired ("check-coverage",
	// "skip-window-spacing", "doubled-compare", ...).
	Check string `json:"check"`
	// Where locates the finding in artifact terms: a function/block
	// name for IR findings, a block label for bir findings, empty for
	// raw machine findings.
	Where string `json:"where,omitempty"`
	// Addr is the machine address, when the finding has one.
	Addr uint64 `json:"addr,omitempty"`
	// Detail explains the violation.
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	s := f.Check
	if f.Where != "" {
		s += " at " + f.Where
	}
	if f.Addr != 0 {
		s += fmt.Sprintf(" (%#x)", f.Addr)
	}
	return s + ": " + f.Detail
}

// WriteFindingsJSON exports findings as an indented JSON array (an
// empty slice marshals as [], so clean runs still produce valid JSON).
func WriteFindingsJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	return report.WriteJSON(w, fs)
}

// WriteFindingsCSV exports findings as CSV with a header row.
func WriteFindingsCSV(w io.Writer, fs []Finding) error {
	t := report.Table{Header: []string{"check", "where", "addr", "detail"}}
	for _, f := range fs {
		addr := ""
		if f.Addr != 0 {
			addr = fmt.Sprintf("%#x", f.Addr)
		}
		t.AddRow(f.Check, f.Where, addr, f.Detail)
	}
	return t.WriteCSV(w)
}

// CheckCoverage proves the machine-level check-coverage invariant:
// every proven fault-response-free exit is guarded — unreachable from
// the entry point without passing a verification branch that can
// divert into a fault response.
//
// Exit classification comes from the exploration's refined exits
// (Program.Exits). A detector exit is a proven exit(42). A
// fault-response-free exit is a *definite* exit whose status is 0 or
// unresolvable — the success report a fault attack tries to reach.
// Definite exits with a known nonzero, non-detector status (a
// rejection path's exit(1)) are fail-safe: diverting execution into
// one denies the attacker exactly like a detector does, so they need
// no guard. Possible exits whose syscall number could not be resolved
// are ignored, as are crash terminators (RET, HLT, UD2, undecodable
// bytes): treating unresolved syscalls as exits would flag every
// binary that marshals syscall arguments through memory.
//
// A verification branch is a conditional branch with a detector-only
// arm: a successor from which a detector exit is reachable and no
// fault-response-free exit is. Call fall-through edges are replaced by
// return edges (callee RET block -> continuation), so code after a
// call is only considered reachable through the callee's body and the
// checks on it.
//
// When no unguarded exit is found, the verifier additionally requires
// a reachable detector exit: an artifact whose exits are all
// unresolvable and which never reaches a fault response has no
// verification site at all, and reporting it clean would let an
// unhardened binary pass.
func (a *Analysis) CheckCoverage() []Finding {
	blocks := a.CFG.Blocks
	if len(blocks) == 0 {
		return nil
	}

	// Block-level successor sets with the call/return adjustment.
	succs := make(map[*Block]map[*Block]bool, len(blocks))
	type callSite struct {
		callee *Block
		cont   *Block
	}
	var calls []callSite
	for _, b := range blocks {
		set := make(map[*Block]bool, len(b.Succs))
		last, ok := a.Prog.Insts[b.End()]
		if ok && last.Op == isa.CALL {
			target := a.CFG.BlockAt(last.Target)
			cont := a.CFG.BlockAt(last.Addr + uint64(last.EncLen))
			if target != nil {
				set[target] = true
			}
			if target != nil && cont != nil {
				calls = append(calls, callSite{callee: target, cont: cont})
			}
		} else {
			for _, s := range b.Succs {
				set[s] = true
			}
		}
		succs[b] = set
	}

	endsInRet := func(b *Block) bool {
		in, ok := a.Prog.Insts[b.End()]
		return ok && in.Op == isa.RET
	}
	forward := func(from *Block, skip func(*Block) bool) map[*Block]bool {
		seen := map[*Block]bool{}
		stack := []*Block{from}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[b] {
				continue
			}
			seen[b] = true
			if skip != nil && skip(b) {
				continue
			}
			for s := range succs[b] {
				if !seen[s] {
					stack = append(stack, s)
				}
			}
		}
		return seen
	}

	// Return edges, to a fixpoint (a callee may reach its RET only
	// through another call's return edge).
	for changed := true; changed; {
		changed = false
		for _, cs := range calls {
			for b := range forward(cs.callee, nil) {
				if endsInRet(b) && !succs[b][cs.cont] {
					succs[b][cs.cont] = true
					changed = true
				}
			}
		}
	}

	// Exit classification. Exits sit at arbitrary positions inside
	// their block (a definite exit ends it; a possible exit does not),
	// so map every instruction address to its containing block.
	owner := make(map[uint64]*Block)
	for _, b := range blocks {
		for _, addr := range b.Addrs {
			owner[addr] = b
		}
	}
	var detBlocks, freeBlocks []*Block
	freeExits := make(map[*Block][]uint64)
	for addr, e := range a.Prog.Exits {
		if !e.Definite {
			continue
		}
		b := owner[addr]
		if b == nil {
			continue
		}
		switch {
		case e.CodeKnown && e.Code == DetectorExitCode:
			detBlocks = append(detBlocks, b)
		case !e.CodeKnown || e.Code == 0:
			if len(freeExits[b]) == 0 {
				freeBlocks = append(freeBlocks, b)
			}
			freeExits[b] = append(freeExits[b], addr)
		}
		// Known nonzero non-detector exits are fail-safe rejections.
	}

	// Backward reachability over the adjusted graph.
	preds := make(map[*Block][]*Block, len(blocks))
	for b, set := range succs {
		for s := range set {
			preds[s] = append(preds[s], b)
		}
	}
	backward := func(from []*Block) map[*Block]bool {
		seen := map[*Block]bool{}
		stack := append([]*Block{}, from...)
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[b] {
				continue
			}
			seen[b] = true
			for _, p := range preds[b] {
				if !seen[p] {
					stack = append(stack, p)
				}
			}
		}
		return seen
	}
	reachDet := backward(detBlocks)
	reachFree := backward(freeBlocks)

	// Verification sites: conditional branches with a detector-only arm.
	site := make(map[*Block]bool, len(blocks))
	for _, b := range blocks {
		in, ok := a.Prog.Insts[b.End()]
		if !ok || in.Op != isa.JCC {
			continue
		}
		for s := range succs[b] {
			if reachDet[s] && !reachFree[s] {
				site[b] = true
				break
			}
		}
	}

	// Unguarded reachability: verification sites are entered (their
	// body executes, including any exit inside it) but not traversed.
	entry := a.CFG.BlockAt(a.Prog.Entry)
	if entry == nil {
		return nil
	}
	unguarded := forward(entry, func(b *Block) bool { return site[b] })

	var findings []Finding
	for _, b := range freeBlocks {
		if !unguarded[b] {
			continue
		}
		for _, addr := range freeExits[b] {
			e := a.Prog.Exits[addr]
			code := "unknown code"
			if e.CodeKnown {
				code = fmt.Sprintf("code %d", e.Code)
			}
			findings = append(findings, Finding{
				Check: "check-coverage",
				Addr:  addr,
				Detail: fmt.Sprintf("exit (%s) reachable from entry without passing a verification branch",
					code),
			})
		}
	}
	// No unguarded exit: still demand a reachable fault response, or
	// the clean verdict is vacuous (e.g. an unhardened artifact whose
	// exit codes are marshalled through memory).
	if len(findings) == 0 {
		reach := forward(entry, nil)
		detReachable := false
		for _, b := range detBlocks {
			if reach[b] {
				detReachable = true
				break
			}
		}
		if !detReachable {
			findings = append(findings, Finding{
				Check:  "check-coverage",
				Detail: fmt.Sprintf("no reachable fault response (exit %d): artifact has no verification site", DetectorExitCode),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool { return findings[i].Addr < findings[j].Addr })
	return findings
}
