// Package core holds the values the paper reports for its tables,
// figures and claims, the single source of truth the experiments suite
// (internal/experiments, its only importer) compares regenerated
// artifacts against.
package core

// PaperOverheads is Table V as printed: code-size overhead percentages.
type PaperOverheads struct {
	FaulterPatcher float64
	Hybrid         float64
}

// PaperTableV maps case study name to the paper's Table V row.
var PaperTableV = map[string]PaperOverheads{
	"pincheck":   {FaulterPatcher: 17.61, Hybrid: 85.88},
	"bootloader": {FaulterPatcher: 19.67, Hybrid: 48.67},
}

// PaperDuplicationMinPct is the paper's §V-C lower bound for blanket
// instruction duplication ("implies at least 300% overhead in code
// size").
const PaperDuplicationMinPct = 300.0

// PaperBitflipReduction is the §V-C bit-flip result: vulnerable points
// reduced by 50%.
const PaperBitflipReduction = 0.50

// InstCount is one "N× mnemonic" entry of Table IV.
type InstCount struct {
	N        int
	Mnemonic string
}

// PaperTableIV reproduces Table IV as printed: the instruction mix of
// one conditional branch before and after hardening, at the compiler-IR
// level and lowered to x86-64.
var PaperTableIV = struct {
	IRBefore, IRAfter   []InstCount
	X86Before, X86After []InstCount
}{
	IRBefore: []InstCount{{1, "cmp"}, {1, "br"}},
	IRAfter: []InstCount{
		{1, "cmp"}, {2, "zext"}, {2, "sub"}, {6, "xor"}, {2, "or"},
		{4, "and"}, {1, "br"}, {4, "switch"},
	},
	X86Before: []InstCount{{1, "cmp"}, {1, "jx"}},
	X86After: []InstCount{
		{2, "cmp"}, {6, "mov"}, {2, "sub"}, {6, "xor"}, {2, "or"},
		{6, "and"}, {2, "test"}, {4, "jx"}, {5, "jmp"},
	},
}

// Figure5Shape is the expected CFG census of one hardened branch
// (paper Fig. 5): per outgoing edge two validation blocks and one
// fault-response block.
type Figure5Shape struct {
	ValidationPerEdge int
	FaultRespPerEdge  int
	EdgesPerBranch    int
}

// PaperFigure5 is Fig. 5's structure.
var PaperFigure5 = Figure5Shape{ValidationPerEdge: 2, FaultRespPerEdge: 1, EdgesPerBranch: 2}

// OverheadPct converts original/hardened sizes to a percentage.
func OverheadPct(original, hardened int) float64 {
	if original == 0 {
		return 0
	}
	return 100 * float64(hardened-original) / float64(original)
}
