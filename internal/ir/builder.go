package ir

import "fmt"

// Builder appends instructions to a block. Create one per block with
// NewBuilder; helpers return the new instruction as a Value where it
// produces one.
type Builder struct {
	blk *Block
}

// NewBuilder returns a builder appending to b.
func NewBuilder(b *Block) *Builder { return &Builder{blk: b} }

// Block returns the block under construction.
func (bd *Builder) Block() *Block { return bd.blk }

func (bd *Builder) append(i *Instr) *Instr {
	i.blk = bd.blk
	fn := bd.blk.fn
	fn.nextID++
	i.id = fn.nextID
	bd.blk.Insts = append(bd.blk.Insts, i)
	return i
}

// Bin appends a binary operation; operands must share the result type.
func (bd *Builder) Bin(kind BinKind, a, b Value) Value {
	return bd.append(&Instr{Op: OpBin, Ty: a.Type(), Bin: kind, Args: []Value{a, b}})
}

// Convenience wrappers for the common binary ops.

// Add appends an addition.
func (bd *Builder) Add(a, b Value) Value { return bd.Bin(Add, a, b) }

// Sub appends a subtraction.
func (bd *Builder) Sub(a, b Value) Value { return bd.Bin(Sub, a, b) }

// Mul appends a multiplication.
func (bd *Builder) Mul(a, b Value) Value { return bd.Bin(Mul, a, b) }

// And appends a bitwise and.
func (bd *Builder) And(a, b Value) Value { return bd.Bin(And, a, b) }

// Or appends a bitwise or.
func (bd *Builder) Or(a, b Value) Value { return bd.Bin(Or, a, b) }

// Xor appends a bitwise xor.
func (bd *Builder) Xor(a, b Value) Value { return bd.Bin(Xor, a, b) }

// Not appends x ^ -1.
func (bd *Builder) Not(a Value) Value {
	return bd.Xor(a, &Const{Ty: a.Type(), Val: a.Type().Mask()})
}

// ICmp appends an integer comparison producing i1.
func (bd *Builder) ICmp(p Pred, a, b Value) Value {
	return bd.append(&Instr{Op: OpICmp, Ty: I1, Pred: p, Args: []Value{a, b}})
}

// ZExt appends a zero extension.
func (bd *Builder) ZExt(v Value, to Type) Value {
	return bd.append(&Instr{Op: OpZExt, Ty: to, Args: []Value{v}})
}

// SExt appends a sign extension.
func (bd *Builder) SExt(v Value, to Type) Value {
	return bd.append(&Instr{Op: OpSExt, Ty: to, Args: []Value{v}})
}

// Trunc appends a truncation.
func (bd *Builder) Trunc(v Value, to Type) Value {
	return bd.append(&Instr{Op: OpTrunc, Ty: to, Args: []Value{v}})
}

// Select appends cond ? a : b.
func (bd *Builder) Select(cond, a, b Value) Value {
	return bd.append(&Instr{Op: OpSelect, Ty: a.Type(), Args: []Value{cond, a, b}})
}

// Load appends a flat-memory load of the given type from an i64 address.
func (bd *Builder) Load(ty Type, addr Value) Value {
	return bd.append(&Instr{Op: OpLoad, Ty: ty, Args: []Value{addr}})
}

// Store appends a flat-memory store.
func (bd *Builder) Store(val, addr Value) *Instr {
	return bd.append(&Instr{Op: OpStore, Ty: Void, Args: []Value{val, addr}})
}

// CellRead appends a read of a named cell (registered on the module).
func (bd *Builder) CellRead(cell string) Value {
	ty, ok := bd.blk.fn.mod.CellType(cell)
	if !ok {
		panic(fmt.Sprintf("ir: CellRead of unregistered cell %q", cell))
	}
	return bd.append(&Instr{Op: OpCellRead, Ty: ty, Cell: cell})
}

// CellWrite appends a write of a named cell.
func (bd *Builder) CellWrite(cell string, v Value) *Instr {
	if _, ok := bd.blk.fn.mod.CellType(cell); !ok {
		panic(fmt.Sprintf("ir: CellWrite of unregistered cell %q", cell))
	}
	return bd.append(&Instr{Op: OpCellWrite, Ty: Void, Cell: cell, Args: []Value{v}})
}

// Call appends a call to another function (CPU-state convention: no
// arguments, no result).
func (bd *Builder) Call(f *Function) *Instr {
	return bd.append(&Instr{Op: OpCall, Ty: Void, Callee: f})
}

// Syscall appends the syscall intrinsic (reads/writes the register
// cells per the Linux x86-64 ABI).
func (bd *Builder) Syscall() *Instr {
	return bd.append(&Instr{Op: OpSyscall, Ty: Void})
}

// Br appends a conditional branch terminator.
func (bd *Builder) Br(cond Value, then, els *Block) *Instr {
	return bd.append(&Instr{Op: OpBr, Ty: Void, Args: []Value{cond}, Then: then, Else: els})
}

// Jmp appends an unconditional branch terminator.
func (bd *Builder) Jmp(target *Block) *Instr {
	return bd.append(&Instr{Op: OpJmp, Ty: Void, Then: target})
}

// Ret appends a return terminator.
func (bd *Builder) Ret() *Instr {
	return bd.append(&Instr{Op: OpRet, Ty: Void})
}

// Halt appends the abnormal-stop terminator (hlt/ud2 semantics).
func (bd *Builder) Halt() *Instr {
	return bd.append(&Instr{Op: OpHalt, Ty: Void})
}

// FaultResp appends the fault-response terminator: control transfers to
// the program's fault handler and never returns (paper Fig. 5's
// flt_resp blocks).
func (bd *Builder) FaultResp() *Instr {
	return bd.append(&Instr{Op: OpFaultResp, Ty: Void})
}

// Renumber re-attaches every instruction of b to its function: the
// block back-pointer is refreshed (instructions may have been moved
// between blocks) and instructions without an id get a fresh one.
func Renumber(f *Function, b *Block) {
	for _, in := range b.Insts {
		in.blk = b
		if in.id == 0 {
			f.nextID++
			in.id = f.nextID
		}
	}
}

// InsertBefore splices a prebuilt instruction list at position idx of
// block b, renumbering ids. Used by passes that clone computations.
func InsertBefore(b *Block, idx int, insts []*Instr) {
	fn := b.fn
	for _, in := range insts {
		in.blk = b
		fn.nextID++
		in.id = fn.nextID
	}
	tail := append([]*Instr{}, b.Insts[idx:]...)
	b.Insts = append(b.Insts[:idx], append(insts, tail...)...)
}
