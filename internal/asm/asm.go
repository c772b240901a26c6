// Package asm is a two-pass assembler for the x86-64 subset, producing
// static ELF64 executables. It exists so the case-study programs
// (pincheck, secure bootloader) and the lowered output of the Hybrid
// pipeline can be built entirely inside this repository, with full
// control over layout and symbols.
//
// Syntax is Intel-flavoured:
//
//	; comment (also # and //)
//	.text
//	.global _start
//	_start:
//	        mov rax, 0          ; immediates: dec, 0x hex, 'c' chars
//	        lea rsi, [rip+buf]  ; RIP-relative symbol reference
//	        mov rdx, msg_len    ; bare symbol in imm position = its value
//	        cmp byte ptr [rcx+4], 1
//	        jne deny
//	.data
//	buf:    .zero 8
//	msg:    .ascii "hello\n"
//	.equ msg_len, . - msg       ; '.' is the current location counter
//	buflen = 16                 ; alternative constant syntax
//
// Directives: .text .rodata .data .bss .global/.globl .byte .quad .ascii
// .asciz .zero .align .equ.
//
// Branches always assemble to rel32 and RIP-relative references to
// disp32, so pass-1 layout is immediately stable.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/encode"
	"github.com/r2r/reinforce/internal/isa"
)

// Options control section placement and entry symbol.
type Options struct {
	TextBase   uint64
	RodataBase uint64
	DataBase   uint64
	BSSBase    uint64
	Entry      string // entry symbol, default "_start"
}

// DefaultOptions returns the standard memory layout used across the
// toolchain. Section bases are far apart so hardened .text can grow
// considerably without colliding with data.
func DefaultOptions() *Options {
	return &Options{
		TextBase:   0x401000,
		RodataBase: 0x500000,
		DataBase:   0x600000,
		BSSBase:    0x700000,
		Entry:      "_start",
	}
}

// fixupKind describes how a symbol reference patches an instruction.
type fixupKind uint8

const (
	fixNone   fixupKind = iota
	fixImm              // Dst or Src immediate = symbol value (+addend)
	fixBranch           // branch rel32 = target - end of instruction
	fixRIP              // memory disp32 = target - end of instruction
)

// symRef is an unresolved symbol reference with an addend.
type symRef struct {
	name   string
	addend int64
}

// item is one assembled unit: an instruction or a data blob.
type item struct {
	line int

	// Instruction items.
	inst     isa.Inst
	isInst   bool
	fix      fixupKind
	fixInSrc bool // immediate fixup applies to Src (not Dst)
	ref      symRef

	// Data items.
	data []byte

	// Layout (both kinds).
	addr uint64
	size int
}

type section struct {
	name  string
	base  uint64
	items []*item
	pc    uint64 // running offset during parse
	flags uint32
	bss   bool
}

type assembler struct {
	opts     *Options
	sections map[string]*section
	order    []string
	cur      *section
	symbols  map[string]*symbol
	globals  map[string]bool
	equs     []equ
}

type symbol struct {
	section *section
	offset  uint64
	value   int64 // for .equ
	isEqu   bool
	defined bool
}

type equ struct {
	name string
	expr string
	line int
	sec  *section
	pc   uint64 // location counter at the .equ site (for '.')
}

// Assemble assembles source into a static ELF binary.
func Assemble(src string, opts *Options) (*elf.Binary, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	if opts.Entry == "" {
		opts.Entry = "_start"
	}
	a := &assembler{
		opts:     opts,
		sections: make(map[string]*section),
		symbols:  make(map[string]*symbol),
		globals:  make(map[string]bool),
	}
	a.sections[".text"] = &section{name: ".text", base: opts.TextBase, flags: elf.FlagRead | elf.FlagExec}
	a.sections[".rodata"] = &section{name: ".rodata", base: opts.RodataBase, flags: elf.FlagRead}
	a.sections[".data"] = &section{name: ".data", base: opts.DataBase, flags: elf.FlagRead | elf.FlagWrite}
	a.sections[".bss"] = &section{name: ".bss", base: opts.BSSBase, flags: elf.FlagRead | elf.FlagWrite, bss: true}
	a.order = []string{".text", ".rodata", ".data", ".bss"}
	a.cur = a.sections[".text"]

	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.resolveEqus(); err != nil {
		return nil, err
	}
	return a.emit()
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return fmt.Errorf("asm: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (a *assembler) parse(src string) error {
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		lineNo := i + 1
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels: "name:" prefixes, possibly several.
		for {
			idx := labelEnd(line)
			if idx < 0 {
				break
			}
			name := strings.TrimSpace(line[:idx])
			if !validIdent(name) {
				return a.errf(lineNo, "invalid label %q", name)
			}
			if err := a.defineLabel(name, lineNo); err != nil {
				return err
			}
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		// ".equ"-style alternative syntax: name = expr.
		if eq := strings.Index(line, "="); eq > 0 {
			if name := strings.TrimSpace(line[:eq]); validIdent(name) {
				a.addEqu(name, strings.TrimSpace(line[eq+1:]), lineNo)
				continue
			}
		}
		if strings.HasPrefix(line, ".") {
			if err := a.directive(line, lineNo); err != nil {
				return err
			}
			continue
		}
		if err := a.instruction(line, lineNo); err != nil {
			return err
		}
	}
	return nil
}

func stripComment(line string) string {
	// Respect string literals when searching for comment starts.
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
		case c == ';' || c == '#':
			return line[:i]
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}

// labelEnd returns the index of a label-terminating ':' at the start of
// the line, or -1.
func labelEnd(line string) int {
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == ':':
			return i
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '.':
			// keep scanning
		default:
			return -1
		}
	}
	return -1
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) defineLabel(name string, line int) error {
	if s, ok := a.symbols[name]; ok && s.defined {
		return a.errf(line, "label %q redefined", name)
	}
	a.symbols[name] = &symbol{section: a.cur, offset: a.cur.pc, defined: true}
	return nil
}

func (a *assembler) addEqu(name, expr string, line int) {
	a.symbols[name] = &symbol{isEqu: true, defined: true}
	a.equs = append(a.equs, equ{name: name, expr: expr, line: line, sec: a.cur, pc: a.cur.pc})
}

func (a *assembler) directive(line string, lineNo int) error {
	fields := strings.SplitN(line, " ", 2)
	dir := fields[0]
	rest := ""
	if len(fields) > 1 {
		rest = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".text", ".rodata", ".data", ".bss":
		a.cur = a.sections[dir]
		return nil
	case ".global", ".globl":
		for _, n := range splitOperands(rest) {
			a.globals[strings.TrimSpace(n)] = true
		}
		return nil
	case ".byte":
		return a.dataDirective(rest, 1, lineNo)
	case ".quad":
		return a.dataDirective(rest, 8, lineNo)
	case ".ascii", ".asciz":
		s, err := parseString(rest)
		if err != nil {
			return a.errf(lineNo, "%v", err)
		}
		if dir == ".asciz" {
			s = append(s, 0)
		}
		a.addData(s, lineNo)
		return nil
	case ".zero":
		n, err := parseNumber(rest)
		if err != nil || n < 0 || n > 1<<24 {
			return a.errf(lineNo, "bad .zero size %q", rest)
		}
		a.addData(make([]byte, n), lineNo)
		return nil
	case ".align":
		n, err := parseNumber(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return a.errf(lineNo, "bad .align %q", rest)
		}
		pad := (uint64(n) - a.cur.pc%uint64(n)) % uint64(n)
		if a.cur.name == ".text" {
			nops := make([]byte, pad)
			for i := range nops {
				nops[i] = 0x90
			}
			a.addData(nops, lineNo)
		} else {
			a.addData(make([]byte, pad), lineNo)
		}
		return nil
	case ".equ":
		parts := strings.SplitN(rest, ",", 2)
		if len(parts) != 2 {
			return a.errf(lineNo, ".equ wants name, expression")
		}
		name := strings.TrimSpace(parts[0])
		if !validIdent(name) {
			return a.errf(lineNo, "invalid .equ name %q", name)
		}
		a.addEqu(name, strings.TrimSpace(parts[1]), lineNo)
		return nil
	}
	return a.errf(lineNo, "unknown directive %q", dir)
}

func (a *assembler) dataDirective(rest string, width int, lineNo int) error {
	for _, f := range splitOperands(rest) {
		f = strings.TrimSpace(f)
		// Symbol reference in .quad: emit a fixup-like deferred value.
		if width == 8 && !isNumberStart(f) {
			it := &item{line: lineNo, data: make([]byte, 8)}
			name, addend, err := parseSymExpr(f)
			if err != nil {
				return a.errf(lineNo, "%v", err)
			}
			it.ref = symRef{name: name, addend: addend}
			it.fix = fixImm // reuse: patch 8 data bytes with symbol value
			a.push(it, 8)
			continue
		}
		v, err := parseNumber(f)
		if err != nil {
			return a.errf(lineNo, "bad value %q", f)
		}
		buf := make([]byte, width)
		for i := 0; i < width; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		a.addData(buf, lineNo)
	}
	return nil
}

func (a *assembler) addData(b []byte, lineNo int) {
	a.push(&item{line: lineNo, data: b}, len(b))
}

func (a *assembler) push(it *item, size int) {
	it.size = size
	a.cur.items = append(a.cur.items, it)
	a.cur.pc += uint64(size)
}

// placeholderAddr stands in for unresolved symbol values during pass-1
// sizing. All real addresses in our layout fit in int32, and so does
// this, so instruction lengths are stable across passes.
const placeholderAddr = 0x400000

func (a *assembler) instruction(line string, lineNo int) error {
	mnem, rest := splitMnemonic(line)
	it := &item{line: lineNo, isInst: true}

	in, fix, ref, err := a.parseInst(mnem, rest, lineNo)
	if err != nil {
		return err
	}
	it.inst = in
	it.fix = fix.kind
	it.fixInSrc = fix.inSrc
	it.ref = ref

	// Pass-1 sizing with placeholder values.
	sized := it.inst
	switch it.fix {
	case fixImm:
		if it.fixInSrc {
			sized.Src.Imm = placeholderAddr + it.ref.addend
		} else {
			sized.Dst.Imm = placeholderAddr + it.ref.addend
		}
	case fixBranch:
		sized.Dst.Imm = 0
	case fixRIP:
		// disp32 always; nothing to adjust for sizing
	}
	n, err := encode.Len(sized)
	if err != nil {
		return a.errf(lineNo, "%q: %v", line, err)
	}
	a.push(it, n)
	return nil
}

func splitMnemonic(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return strings.ToLower(line), ""
	}
	return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
}

// fixupSpec pairs a fixup kind with its operand position.
type fixupSpec struct {
	kind  fixupKind
	inSrc bool
}

var mnemonics = map[string]isa.Op{
	"mov": isa.MOV, "movzx": isa.MOVZX, "movsx": isa.MOVSX, "lea": isa.LEA,
	"add": isa.ADD, "or": isa.OR, "adc": isa.ADC, "sbb": isa.SBB,
	"and": isa.AND, "sub": isa.SUB, "xor": isa.XOR, "cmp": isa.CMP,
	"test": isa.TEST, "not": isa.NOT, "neg": isa.NEG, "inc": isa.INC,
	"dec": isa.DEC, "shl": isa.SHL, "shr": isa.SHR, "sar": isa.SAR,
	"imul": isa.IMUL, "push": isa.PUSH, "pop": isa.POP,
	"pushfq": isa.PUSHFQ, "popfq": isa.POPFQ, "jmp": isa.JMP,
	"call": isa.CALL, "ret": isa.RET, "syscall": isa.SYSCALL,
	"nop": isa.NOP, "hlt": isa.HLT, "ud2": isa.UD2,
}

func (a *assembler) parseInst(mnem, rest string, lineNo int) (isa.Inst, fixupSpec, symRef, error) {
	var none fixupSpec
	var noref symRef

	// Conditional families first: jCC / setCC.
	if strings.HasPrefix(mnem, "j") && mnem != "jmp" {
		cond, ok := isa.CondByName(mnem[1:])
		if !ok {
			return isa.Inst{}, none, noref, a.errf(lineNo, "unknown mnemonic %q", mnem)
		}
		name, addend, err := parseSymExpr(rest)
		if err != nil {
			return isa.Inst{}, none, noref, a.errf(lineNo, "branch target: %v", err)
		}
		return isa.NewJcc(cond, 0), fixupSpec{kind: fixBranch}, symRef{name, addend}, nil
	}
	if strings.HasPrefix(mnem, "set") {
		cond, ok := isa.CondByName(mnem[3:])
		if !ok {
			return isa.Inst{}, none, noref, a.errf(lineNo, "unknown mnemonic %q", mnem)
		}
		op, _, err := a.parseOperand(rest, 1, lineNo)
		if err != nil {
			return isa.Inst{}, none, noref, err
		}
		in := isa.Inst{Op: isa.SETCC, Cond: cond, Dst: op}
		return in, none, noref, nil
	}

	op, ok := mnemonics[mnem]
	if !ok {
		return isa.Inst{}, none, noref, a.errf(lineNo, "unknown mnemonic %q", mnem)
	}

	if op.IsBranch() { // jmp / call with a label target
		name, addend, err := parseSymExpr(rest)
		if err != nil {
			return isa.Inst{}, none, noref, a.errf(lineNo, "branch target: %v", err)
		}
		return isa.NewInst(op, isa.Imm(0)), fixupSpec{kind: fixBranch}, symRef{name, addend}, nil
	}

	operands := splitOperands(rest)
	switch len(operands) {
	case 0:
		return isa.NewInst(op), none, noref, nil
	case 1:
		o, ref, err := a.parseOperand(operands[0], 8, lineNo)
		if err != nil {
			return isa.Inst{}, none, noref, err
		}
		in := isa.NewInst(op, o)
		if ref.name != "" {
			kind := fixImm
			if o.Kind == isa.KindMem {
				kind = fixRIP
			}
			return in, fixupSpec{kind: kind}, ref, nil
		}
		return in, none, noref, nil
	case 2:
		// Parse dst first to establish default width for src.
		dst, dref, err := a.parseOperand(operands[0], 8, lineNo)
		if err != nil {
			return isa.Inst{}, none, noref, err
		}
		defWidth := uint8(8)
		if dst.Kind == isa.KindReg || (dst.Kind == isa.KindMem && dst.Width != 0) {
			defWidth = dst.Width
		}
		src, sref, err := a.parseOperand(operands[1], defWidth, lineNo)
		if err != nil {
			return isa.Inst{}, none, noref, err
		}
		// Back-propagate width from a register src to an unsized dst mem.
		if dst.Kind == isa.KindMem && src.Kind == isa.KindReg {
			dst.Width = src.Width
		}
		// movzx/movsx: source is byte-sized.
		if op == isa.MOVZX || op == isa.MOVSX {
			src.Width = 1
		}
		in := isa.NewInst(op, dst, src)
		if dref.name != "" && sref.name != "" {
			return isa.Inst{}, none, noref, a.errf(lineNo, "two symbol references in one instruction")
		}
		if dref.name != "" {
			kind := fixImm
			if dst.Kind == isa.KindMem {
				kind = fixRIP
			}
			return in, fixupSpec{kind: kind}, dref, nil
		}
		if sref.name != "" {
			kind := fixImm
			inSrc := true
			if src.Kind == isa.KindMem {
				kind = fixRIP
			}
			return in, fixupSpec{kind: kind, inSrc: inSrc}, sref, nil
		}
		return in, none, noref, nil
	}
	return isa.Inst{}, none, noref, a.errf(lineNo, "too many operands")
}

// splitOperands splits on top-level commas (commas inside [] or strings
// do not split).
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '[':
			depth++
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// parseOperand parses a register, immediate, memory operand or symbol
// immediate. defWidth applies to memory operands without a size prefix
// and symbol immediates.
func (a *assembler) parseOperand(s string, defWidth uint8, lineNo int) (isa.Operand, symRef, error) {
	s = strings.TrimSpace(s)
	var noref symRef

	// Size prefixes.
	width := uint8(0)
	lower := strings.ToLower(s)
	for _, p := range []struct {
		prefix string
		w      uint8
	}{
		{"byte ptr ", 1}, {"dword ptr ", 4}, {"qword ptr ", 8},
		{"byte ", 1}, {"dword ", 4}, {"qword ", 8},
	} {
		if strings.HasPrefix(lower, p.prefix) {
			width = p.w
			s = strings.TrimSpace(s[len(p.prefix):])
			break
		}
	}

	if s == "" {
		return isa.Operand{}, noref, a.errf(lineNo, "empty operand")
	}

	// Register.
	if r, w, ok := isa.RegByName(strings.ToLower(s)); ok {
		if width != 0 && width != w {
			return isa.Operand{}, noref, a.errf(lineNo, "size prefix conflicts with register %s", s)
		}
		return isa.Operand{Kind: isa.KindReg, Width: w, Reg: r}, noref, nil
	}

	// Memory.
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return isa.Operand{}, noref, a.errf(lineNo, "unterminated memory operand %q", s)
		}
		if width == 0 {
			width = defWidth
		}
		m, ref, err := a.parseMem(s[1:len(s)-1], lineNo)
		if err != nil {
			return isa.Operand{}, noref, err
		}
		return isa.Operand{Kind: isa.KindMem, Width: width, Mem: m}, ref, nil
	}

	// Numeric immediate.
	if isNumberStart(s) {
		v, err := parseNumber(s)
		if err != nil {
			return isa.Operand{}, noref, a.errf(lineNo, "bad immediate %q", s)
		}
		w := defWidth
		if width != 0 {
			w = width
		}
		return isa.Operand{Kind: isa.KindImm, Width: w, Imm: v}, noref, nil
	}

	// Symbol immediate (address or .equ value).
	name, addend, err := parseSymExpr(s)
	if err != nil {
		return isa.Operand{}, noref, a.errf(lineNo, "%v", err)
	}
	w := defWidth
	if width != 0 {
		w = width
	}
	return isa.Operand{Kind: isa.KindImm, Width: w}, symRef{name, addend}, nil
}

// parseMem parses the inside of a bracketed memory operand.
func (a *assembler) parseMem(s string, lineNo int) (isa.Mem, symRef, error) {
	m := isa.Mem{Base: isa.NoReg, Index: isa.NoReg, Scale: 1}
	var ref symRef
	terms, err := splitTerms(s)
	if err != nil {
		return m, ref, a.errf(lineNo, "%v", err)
	}
	for _, t := range terms {
		body := strings.TrimSpace(t.body)
		lower := strings.ToLower(body)
		switch {
		case lower == "rip":
			if t.neg {
				return m, ref, a.errf(lineNo, "negative rip term")
			}
			m.RIPRel = true
		case strings.Contains(body, "*"):
			parts := strings.SplitN(body, "*", 2)
			rn, w, ok := isa.RegByName(strings.ToLower(strings.TrimSpace(parts[0])))
			if !ok || w != 8 {
				return m, ref, a.errf(lineNo, "bad index register in %q", body)
			}
			sc, err := parseNumber(strings.TrimSpace(parts[1]))
			if err != nil {
				return m, ref, a.errf(lineNo, "bad scale in %q", body)
			}
			if t.neg {
				return m, ref, a.errf(lineNo, "negative index term")
			}
			m.Index = rn
			m.Scale = uint8(sc)
		case isNumberStart(body):
			v, err := parseNumber(body)
			if err != nil {
				return m, ref, a.errf(lineNo, "bad displacement %q", body)
			}
			if t.neg {
				v = -v
			}
			m.Disp += int32(v)
		default:
			if rn, w, ok := isa.RegByName(lower); ok {
				if w != 8 {
					return m, ref, a.errf(lineNo, "memory base must be 64-bit: %q", body)
				}
				if t.neg {
					return m, ref, a.errf(lineNo, "negative base register")
				}
				if m.Base == isa.NoReg {
					m.Base = rn
				} else if m.Index == isa.NoReg {
					m.Index = rn
					m.Scale = 1
				} else {
					return m, ref, a.errf(lineNo, "too many registers in %q", s)
				}
				continue
			}
			// Symbol displacement.
			if ref.name != "" {
				return m, ref, a.errf(lineNo, "multiple symbols in memory operand")
			}
			if t.neg {
				return m, ref, a.errf(lineNo, "negative symbol term")
			}
			if !validIdent(body) {
				return m, ref, a.errf(lineNo, "bad memory term %q", body)
			}
			ref.name = body
		}
	}
	if ref.name != "" {
		if !m.RIPRel {
			return m, ref, a.errf(lineNo, "symbol memory reference requires rip: [rip+%s]", ref.name)
		}
		ref.addend = int64(m.Disp)
		m.Disp = 0
	}
	return m, ref, nil
}

type term struct {
	body string
	neg  bool
}

func splitTerms(s string) ([]term, error) {
	var out []term
	neg := false
	start := 0
	flush := func(end int) {
		body := strings.TrimSpace(s[start:end])
		if body != "" {
			out = append(out, term{body: body, neg: neg})
		}
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '+':
			flush(i)
			neg = false
			start = i + 1
		case '-':
			// A '-' can be a sign inside a displacement term start.
			if strings.TrimSpace(s[start:i]) == "" {
				continue
			}
			flush(i)
			neg = true
			start = i + 1
		}
	}
	flush(len(s))
	// Handle leading '-' of the first term.
	for i := range out {
		if strings.HasPrefix(out[i].body, "-") {
			out[i].body = out[i].body[1:]
			out[i].neg = !out[i].neg
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty memory operand")
	}
	return out, nil
}

// parseString parses a quoted string literal with \n \t \0 \\ \" escapes.
func parseString(s string) ([]byte, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return nil, fmt.Errorf("bad string literal %q", s)
	}
	body := s[1 : len(s)-1]
	var out []byte
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(body) {
			return nil, fmt.Errorf("trailing backslash in string")
		}
		switch body[i] {
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case '0':
			out = append(out, 0)
		case '\\':
			out = append(out, '\\')
		case '"':
			out = append(out, '"')
		default:
			return nil, fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return out, nil
}

func isNumberStart(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return c >= '0' && c <= '9' || c == '-' || c == '\''
}

func parseNumber(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if body == "\\n" {
			return '\n', nil
		}
		if body == "\\t" {
			return '\t', nil
		}
		if body == "\\0" {
			return 0, nil
		}
		if len(body) == 1 {
			return int64(body[0]), nil
		}
		return 0, fmt.Errorf("bad char literal %s", s)
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Accept full-range unsigned literals like 0x8000000000000000.
		if u, uerr := strconv.ParseUint(s, 0, 64); uerr == nil {
			return int64(u), nil
		}
	}
	return v, err
}

// parseSymExpr parses "sym", "sym+n", "sym-n", or ". - sym" (location
// minus label, handled by resolveEqus), returning name and addend. The
// special name "." refers to the current location counter.
func parseSymExpr(s string) (string, int64, error) {
	s = strings.TrimSpace(s)
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			name := strings.TrimSpace(s[:i])
			if !validIdent(name) {
				return "", 0, fmt.Errorf("bad symbol %q", name)
			}
			v, err := parseNumber(s[i+1:])
			if err != nil {
				return "", 0, fmt.Errorf("bad addend in %q", s)
			}
			if s[i] == '-' {
				v = -v
			}
			return name, v, nil
		}
	}
	if !validIdent(s) {
		return "", 0, fmt.Errorf("bad symbol %q", s)
	}
	return s, 0, nil
}

// resolveEqus computes .equ values after layout is known. Supports
// integer literals, "a - b" label differences, and ". - label".
func (a *assembler) resolveEqus() error {
	for _, e := range a.equs {
		v, err := a.evalEqu(e)
		if err != nil {
			return err
		}
		a.symbols[e.name].value = v
	}
	return nil
}

func (a *assembler) evalEqu(e equ) (int64, error) {
	expr := strings.TrimSpace(e.expr)
	if isNumberStart(expr) {
		return parseNumber(expr)
	}
	// a - b or . - b
	if i := strings.LastIndex(expr, "-"); i > 0 {
		lhs := strings.TrimSpace(expr[:i])
		rhs := strings.TrimSpace(expr[i+1:])
		lv, err := a.termValue(lhs, e)
		if err != nil {
			return 0, a.errf(e.line, "%v", err)
		}
		rv, err := a.termValue(rhs, e)
		if err != nil {
			return 0, a.errf(e.line, "%v", err)
		}
		return lv - rv, nil
	}
	v, err := a.termValue(expr, e)
	if err != nil {
		return 0, a.errf(e.line, "%v", err)
	}
	return v, nil
}

func (a *assembler) termValue(name string, e equ) (int64, error) {
	if name == "." {
		return int64(e.sec.base + e.pc), nil
	}
	if isNumberStart(name) {
		return parseNumber(name)
	}
	sym, ok := a.symbols[name]
	if !ok || !sym.defined {
		return 0, fmt.Errorf("undefined symbol %q in .equ", name)
	}
	if sym.isEqu {
		return sym.value, nil
	}
	return int64(sym.section.base + sym.offset), nil
}

// symValue resolves any symbol to its final numeric value.
func (a *assembler) symValue(name string, line int) (int64, error) {
	sym, ok := a.symbols[name]
	if !ok || !sym.defined {
		return 0, a.errf(line, "undefined symbol %q", name)
	}
	if sym.isEqu {
		return sym.value, nil
	}
	return int64(sym.section.base + sym.offset), nil
}

// emit runs pass 2: resolve fixups, encode, build the ELF binary.
func (a *assembler) emit() (*elf.Binary, error) {
	bin := &elf.Binary{}

	for _, name := range a.order {
		sec := a.sections[name]
		if len(sec.items) == 0 {
			continue
		}
		// Assign addresses.
		pc := sec.base
		for _, it := range sec.items {
			it.addr = pc
			pc += uint64(it.size)
		}
		var data []byte
		for _, it := range sec.items {
			if !it.isInst {
				blob := it.data
				if it.fix == fixImm && it.ref.name != "" { // .quad symbol
					v, err := a.symValue(it.ref.name, it.line)
					if err != nil {
						return nil, err
					}
					v += it.ref.addend
					blob = make([]byte, 8)
					for i := 0; i < 8; i++ {
						blob[i] = byte(uint64(v) >> (8 * i))
					}
				}
				data = append(data, blob...)
				continue
			}
			in := it.inst
			switch it.fix {
			case fixImm:
				v, err := a.symValue(it.ref.name, it.line)
				if err != nil {
					return nil, err
				}
				if it.fixInSrc {
					in.Src.Imm = v + it.ref.addend
				} else {
					in.Dst.Imm = v + it.ref.addend
				}
			case fixBranch:
				v, err := a.symValue(it.ref.name, it.line)
				if err != nil {
					return nil, err
				}
				end := int64(it.addr) + int64(it.size)
				in.Dst.Imm = v + it.ref.addend - end
			case fixRIP:
				v, err := a.symValue(it.ref.name, it.line)
				if err != nil {
					return nil, err
				}
				end := int64(it.addr) + int64(it.size)
				mo := in.MemOperand()
				if mo == nil {
					return nil, a.errf(it.line, "internal: rip fixup without memory operand")
				}
				mo.Mem.Disp = int32(v + it.ref.addend - end)
			}
			b, err := encode.Encode(in)
			if err != nil {
				return nil, a.errf(it.line, "%v", err)
			}
			if len(b) != it.size {
				return nil, a.errf(it.line, "internal: size changed between passes (%d -> %d)", it.size, len(b))
			}
			data = append(data, b...)
		}
		s := &elf.Section{Name: sec.name, Addr: sec.base, Flags: sec.flags}
		if sec.bss {
			s.MemSize = uint64(len(data))
			// BSS data must be all zero.
			for _, b := range data {
				if b != 0 {
					return nil, fmt.Errorf("asm: non-zero data in .bss")
				}
			}
		} else {
			s.Data = data
		}
		bin.Sections = append(bin.Sections, s)
	}

	// Symbols.
	for name, sym := range a.symbols {
		if sym.isEqu {
			continue
		}
		bin.Symbols = append(bin.Symbols, elf.Symbol{
			Name: name,
			Addr: sym.section.base + sym.offset,
			Func: sym.section.name == ".text",
		})
	}
	sortSymbols(bin.Symbols)

	entry, ok := bin.SymbolAddr(a.opts.Entry)
	if !ok {
		return nil, fmt.Errorf("asm: entry symbol %q not defined", a.opts.Entry)
	}
	bin.Entry = entry

	if err := bin.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return bin, nil
}

func sortSymbols(syms []elf.Symbol) {
	// Sort by address then name for deterministic output.
	for i := 1; i < len(syms); i++ {
		for j := i; j > 0; j-- {
			a, b := syms[j-1], syms[j]
			if a.Addr < b.Addr || (a.Addr == b.Addr && a.Name <= b.Name) {
				break
			}
			syms[j-1], syms[j] = b, a
		}
	}
}
