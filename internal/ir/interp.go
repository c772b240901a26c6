package ir

import (
	"errors"
	"fmt"

	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
)

// Interpreter errors.
var (
	ErrInterpHalt  = errors.New("ir: halt executed")
	ErrInterpLimit = errors.New("ir: step limit exceeded")
	ErrInterpDepth = errors.New("ir: call depth exceeded")
	ErrNoEntry     = errors.New("ir: module has no entry function")
)

// ExecConfig parameterizes a reference-interpreter run. The stack is
// the emulator's: emu.DefaultStackSize bytes below emu.DefaultStackTop.
type ExecConfig struct {
	Stdin     []byte
	StepLimit uint64
	MaxDepth  int

	// Sections to map into the flat memory (typically the data
	// sections of the binary the module was lifted from).
	Sections []*elf.Section
}

// ExecResult mirrors emu.Result so lifted modules can be compared
// against machine execution differentially.
type ExecResult struct {
	Exited   bool
	ExitCode int
	Stdout   []byte
	Stderr   []byte
	Steps    uint64
	Faulted  bool // a FaultResp fired
}

// interp is one interpreter run.
type interp struct {
	mod   *Module
	cells map[string]uint64
	mem   *emu.Memory

	stdin []byte
	inPos int

	res   ExecResult
	limit uint64
	depth int
	maxD  int
}

// Exec runs the module's entry function under the reference
// interpreter. The returned error is nil for a clean exit (including a
// FaultResp, which exits with code 42 like the machine-level handler).
func Exec(m *Module, cfg ExecConfig) (ExecResult, error) {
	entry := m.Func(m.EntryFunc)
	if entry == nil {
		return ExecResult{}, ErrNoEntry
	}
	if cfg.StepLimit == 0 {
		cfg.StepLimit = emu.DefaultStepLimit
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 256
	}

	it := &interp{
		mod:   m,
		cells: make(map[string]uint64, len(m.Cells)),
		mem:   emu.NewMemory(),
		stdin: cfg.Stdin,
		limit: cfg.StepLimit,
		maxD:  cfg.MaxDepth,
	}
	for _, s := range cfg.Sections {
		it.mem.LoadSection(s)
	}
	it.mem.Map(emu.DefaultStackTop-emu.DefaultStackSize, emu.DefaultStackSize, elf.FlagRead|elf.FlagWrite)
	if _, ok := m.CellType("rsp"); ok {
		it.cells["rsp"] = emu.DefaultStackTop - 64
	}

	err := it.call(entry)
	if err != nil {
		return it.res, err
	}
	return it.res, nil
}

// call executes one function to completion (ret, exit, or fault).
func (it *interp) call(f *Function) error {
	if it.depth >= it.maxD {
		return ErrInterpDepth
	}
	it.depth++
	defer func() { it.depth-- }()

	vals := make([]uint64, f.nextID+1)
	blk := f.Entry()
	for {
		next, done, err := it.execBlock(blk, vals)
		if err != nil || done {
			return err
		}
		if next == nil {
			return nil // ret
		}
		blk = next
	}
}

// execBlock runs one block. It returns the successor block (nil for
// ret) and done=true when the program exited.
func (it *interp) execBlock(b *Block, vals []uint64) (*Block, bool, error) {
	for _, in := range b.Insts {
		if it.res.Steps >= it.limit {
			return nil, false, ErrInterpLimit
		}
		it.res.Steps++
		if it.res.Exited {
			return nil, true, nil
		}

		get := func(n int) uint64 {
			switch v := in.Args[n].(type) {
			case *Const:
				return v.Val & v.Ty.Mask()
			case *Instr:
				return vals[v.id]
			}
			panic("ir: unknown value kind")
		}

		switch in.Op {
		case OpBin:
			vals[in.id] = evalBin(in.Bin, in.Ty, get(0), get(1))
		case OpICmp:
			if evalICmp(in.Pred, in.Args[0].Type(), get(0), get(1)) {
				vals[in.id] = 1
			} else {
				vals[in.id] = 0
			}
		case OpZExt:
			vals[in.id] = get(0) & in.Args[0].Type().Mask()
		case OpSExt:
			vals[in.id] = signExtend(get(0), in.Args[0].Type()) & in.Ty.Mask()
		case OpTrunc:
			vals[in.id] = get(0) & in.Ty.Mask()
		case OpSelect:
			if get(0)&1 != 0 {
				vals[in.id] = get(1)
			} else {
				vals[in.id] = get(2)
			}
		case OpLoad:
			v, err := it.mem.ReadUint(get(0), uint8(in.Ty.Bits()/8))
			if err != nil {
				return nil, false, err
			}
			vals[in.id] = v
		case OpStore:
			w := uint8(in.Args[0].Type().Bits() / 8)
			if w == 0 {
				w = 1 // i1 stores one byte
			}
			if err := it.mem.WriteUint(get(1), get(0), w); err != nil {
				return nil, false, err
			}
		case OpCellRead:
			vals[in.id] = it.cells[in.Cell] & in.Ty.Mask()
		case OpCellWrite:
			ty, _ := it.mod.CellType(in.Cell)
			it.cells[in.Cell] = get(0) & ty.Mask()
		case OpCall:
			if err := it.call(in.Callee); err != nil {
				return nil, false, err
			}
			if it.res.Exited {
				return nil, true, nil
			}
		case OpSyscall:
			if err := it.syscall(); err != nil {
				return nil, false, err
			}
			if it.res.Exited {
				return nil, true, nil
			}
		case OpBr:
			if get(0)&1 != 0 {
				return in.Then, false, nil
			}
			return in.Else, false, nil
		case OpJmp:
			return in.Then, false, nil
		case OpRet:
			return nil, false, nil
		case OpHalt:
			return nil, false, ErrInterpHalt
		case OpFaultResp:
			it.res.Stderr = append(it.res.Stderr, []byte("FAULT\n")...)
			it.res.Exited = true
			it.res.ExitCode = 42
			it.res.Faulted = true
			return nil, true, nil
		default:
			return nil, false, fmt.Errorf("ir: unknown opcode %d", in.Op)
		}
	}
	return nil, false, fmt.Errorf("ir: block %s fell off the end", b.Name)
}

// EvalBin evaluates a binary operation at a type (compile-time folding
// uses the same semantics as the interpreter).
func EvalBin(kind BinKind, ty Type, a, b uint64) uint64 { return evalBin(kind, ty, a, b) }

// EvalICmp evaluates a comparison at a type.
func EvalICmp(p Pred, ty Type, a, b uint64) bool { return evalICmp(p, ty, a, b) }

// SignExtendValue sign-extends v from the given type to 64 bits.
func SignExtendValue(v uint64, from Type) uint64 { return signExtend(v, from) }

func signExtend(v uint64, from Type) uint64 {
	bits := from.Bits()
	if bits == 0 || bits == 64 {
		return v
	}
	return uint64(int64(v<<(64-bits)) >> (64 - bits))
}

func evalBin(kind BinKind, ty Type, a, b uint64) uint64 {
	mask := ty.Mask()
	a &= mask
	b &= mask
	var r uint64
	switch kind {
	case Add:
		r = a + b
	case Sub:
		r = a - b
	case Mul:
		r = a * b
	case And:
		r = a & b
	case Or:
		r = a | b
	case Xor:
		r = a ^ b
	case Shl:
		if b >= uint64(ty.Bits()) {
			r = 0
		} else {
			r = a << b
		}
	case LShr:
		if b >= uint64(ty.Bits()) {
			r = 0
		} else {
			r = a >> b
		}
	case AShr:
		sa := signExtend(a, ty)
		sh := b
		if sh >= uint64(ty.Bits()) {
			sh = uint64(ty.Bits()) - 1
		}
		r = uint64(int64(sa) >> sh)
	}
	return r & mask
}

func evalICmp(p Pred, ty Type, a, b uint64) bool {
	a &= ty.Mask()
	b &= ty.Mask()
	sa, sb := int64(signExtend(a, ty)), int64(signExtend(b, ty))
	switch p {
	case EQ:
		return a == b
	case NE:
		return a != b
	case ULT:
		return a < b
	case ULE:
		return a <= b
	case UGT:
		return a > b
	case UGE:
		return a >= b
	case SLT:
		return sa < sb
	case SLE:
		return sa <= sb
	case SGT:
		return sa > sb
	case SGE:
		return sa >= sb
	}
	return false
}

// syscall implements the same Linux subset as the machine emulator,
// reading and writing the architectural register cells.
func (it *interp) syscall() error {
	cell := func(n string) uint64 { return it.cells[n] }
	set := func(n string, v uint64) { it.cells[n] = v }

	nr := cell("rax")
	a0, a1, a2 := cell("rdi"), cell("rsi"), cell("rdx")

	// Hardware clobbers on syscall.
	set("rcx", 0)
	set("r11", 0)

	ret := func(v int64) { set("rax", uint64(v)) }
	const maxIO = 1 << 20

	switch nr {
	case 0: // read
		if a0 != 0 {
			ret(-9)
			return nil
		}
		n := int(a2)
		if n < 0 || n > maxIO {
			ret(-14)
			return nil
		}
		remain := len(it.stdin) - it.inPos
		if n > remain {
			n = remain
		}
		if n > 0 {
			buf := it.stdin[it.inPos : it.inPos+n]
			for i, c := range buf {
				if err := it.mem.WriteUint(a1+uint64(i), uint64(c), 1); err != nil {
					ret(-14)
					return nil
				}
			}
			it.inPos += n
		}
		ret(int64(n))
	case 1: // write
		if a0 != 1 && a0 != 2 {
			ret(-9)
			return nil
		}
		n := int(a2)
		if n < 0 || n > maxIO {
			ret(-14)
			return nil
		}
		buf := make([]byte, n)
		if err := it.mem.Read(a1, buf); err != nil {
			ret(-14)
			return nil
		}
		if a0 == 1 {
			it.res.Stdout = append(it.res.Stdout, buf...)
		} else {
			it.res.Stderr = append(it.res.Stderr, buf...)
		}
		ret(int64(n))
	case 60, 231: // exit / exit_group
		it.res.Exited = true
		it.res.ExitCode = int(int32(uint32(a0)))
	default:
		return fmt.Errorf("ir: unsupported syscall %d", nr)
	}
	return nil
}
