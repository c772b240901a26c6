// Package elf reads and writes the ELF64 static executables this
// toolchain produces and consumes. It is deliberately small: one loadable
// PT_LOAD segment per section, a symbol table, and no relocations or
// dynamic linking — the shape of a `-static -nostdlib` firmware-style
// binary, which is the paper's target class (legacy or third-party code
// shipped without source).
package elf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Section permission flags (SHF_* subset, mapped onto PT_LOAD p_flags).
const (
	FlagRead  uint32 = 1 << 0
	FlagWrite uint32 = 1 << 1
	FlagExec  uint32 = 1 << 2
)

// Section is a named, loadable region of the binary. MemSize may exceed
// len(Data) for BSS-style zero-initialized tails.
type Section struct {
	Name    string
	Addr    uint64
	Data    []byte
	MemSize uint64 // total in-memory size; 0 means len(Data)
	Flags   uint32
}

// Size returns the in-memory size of the section.
func (s *Section) Size() uint64 {
	if s.MemSize > uint64(len(s.Data)) {
		return s.MemSize
	}
	return uint64(len(s.Data))
}

// Contains reports whether the virtual address falls inside the section.
func (s *Section) Contains(addr uint64) bool {
	return addr >= s.Addr && addr < s.Addr+s.Size()
}

// Symbol is an address-valued name. Func distinguishes code symbols
// (STT_FUNC) from data symbols (STT_OBJECT).
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
	Func bool
}

// Binary is a parsed or under-construction static executable.
type Binary struct {
	Entry    uint64
	Sections []*Section
	Symbols  []Symbol
}

// Section returns the named section, or nil.
func (b *Binary) Section(name string) *Section {
	for _, s := range b.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Text returns the .text section, or nil.
func (b *Binary) Text() *Section { return b.Section(".text") }

// SectionAt returns the section containing the virtual address, or nil.
func (b *Binary) SectionAt(addr uint64) *Section {
	for _, s := range b.Sections {
		if s.Contains(addr) {
			return s
		}
	}
	return nil
}

// SymbolAddr resolves a symbol name to its address.
func (b *Binary) SymbolAddr(name string) (uint64, bool) {
	for _, s := range b.Symbols {
		if s.Name == name {
			return s.Addr, true
		}
	}
	return 0, false
}

// SymbolAt returns the name of a symbol at exactly this address, with
// function symbols preferred, or "".
func (b *Binary) SymbolAt(addr uint64) string {
	name := ""
	for _, s := range b.Symbols {
		if s.Addr == addr {
			if s.Func {
				return s.Name
			}
			if name == "" {
				name = s.Name
			}
		}
	}
	return name
}

// Digest returns a hex SHA-256 content address of the binary: entry
// point, every section (name, address, flags, in-memory size, data),
// and the symbol table, each serialized with explicit lengths so no two
// distinct binaries collide by concatenation. Campaign result caches
// key on it — two binaries with equal digests behave identically under
// the emulator, so their campaign outcomes are interchangeable.
func (b *Binary) Digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		io.WriteString(h, s)
	}
	put(b.Entry)
	put(uint64(len(b.Sections)))
	for _, s := range b.Sections {
		str(s.Name)
		put(s.Addr)
		put(uint64(s.Flags))
		put(s.Size())
		put(uint64(len(s.Data)))
		h.Write(s.Data)
	}
	put(uint64(len(b.Symbols)))
	for _, s := range b.Symbols {
		str(s.Name)
		put(s.Addr)
		put(s.Size)
		if s.Func {
			put(1)
		} else {
			put(0)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CodeSize returns the total size of executable sections: the metric the
// paper's Table V reports overhead against.
func (b *Binary) CodeSize() int {
	n := 0
	for _, s := range b.Sections {
		if s.Flags&FlagExec != 0 {
			n += len(s.Data)
		}
	}
	return n
}

// Validate performs structural checks: no overlapping sections, entry
// within an executable section, symbols inside some section.
func (b *Binary) Validate() error {
	sorted := make([]*Section, len(b.Sections))
	copy(sorted, b.Sections)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
	for i := 1; i < len(sorted); i++ {
		prev, cur := sorted[i-1], sorted[i]
		if prev.Addr+prev.Size() > cur.Addr {
			return fmt.Errorf("elf: sections %s and %s overlap", prev.Name, cur.Name)
		}
	}
	entrySec := b.SectionAt(b.Entry)
	if entrySec == nil || entrySec.Flags&FlagExec == 0 {
		return fmt.Errorf("elf: entry %#x not in an executable section", b.Entry)
	}
	return nil
}

// ELF constants used by the writer/reader.
const (
	elfMagic     = "\x7fELF"
	elfClass64   = 2
	elfDataLSB   = 1
	elfVersion   = 1
	elfOSABINone = 0
	etExec       = 2
	emX86_64     = 62
	ptLoad       = 1
	shtNull      = 0
	shtProgbits  = 1
	shtSymtab    = 2
	shtStrtab    = 3
	shtNobits    = 8
	shfWrite     = 1
	shfAlloc     = 2
	shfExecinstr = 4
	sttObject    = 1
	sttFunc      = 2
	stbGlobal    = 1
	shnAbs       = 0xFFF1
	ehSize       = 64
	phentSize    = 56
	shentSize    = 64
	symentSize   = 24
	pageSize     = 0x1000
)

// Bytes serializes the binary into a valid ELF64 executable image.
// Layout: ELF header, program headers, section data (offset congruent to
// vaddr mod page size), .symtab, .strtab, .shstrtab, section headers.
func (b *Binary) Bytes() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	secs := make([]*Section, len(b.Sections))
	copy(secs, b.Sections)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Addr < secs[j].Addr })

	var out []byte
	pad := func(n int) {
		for len(out)%n != 0 {
			out = append(out, 0)
		}
	}
	le := binary.LittleEndian
	put16 := func(v uint16) { out = le.AppendUint16(out, v) }
	put32 := func(v uint32) { out = le.AppendUint32(out, v) }
	put64 := func(v uint64) { out = le.AppendUint64(out, v) }

	phoff := uint64(ehSize)
	phnum := len(secs)

	// ELF header.
	out = append(out, elfMagic...)
	out = append(out, elfClass64, elfDataLSB, elfVersion, elfOSABINone)
	out = append(out, make([]byte, 8)...) // padding
	put16(etExec)
	put16(emX86_64)
	put32(elfVersion)
	put64(b.Entry)
	put64(phoff)
	shoffPos := len(out)
	put64(0) // e_shoff patched later
	put32(0) // e_flags
	put16(ehSize)
	put16(phentSize)
	put16(uint16(phnum))
	put16(shentSize)
	// e_shnum: null + progbits sections + symtab + strtab + shstrtab
	put16(uint16(1 + len(secs) + 3))
	put16(uint16(1 + len(secs) + 2)) // e_shstrndx (last)

	// Program headers (offsets patched after layout).
	phPos := len(out)
	for range secs {
		out = append(out, make([]byte, phentSize)...)
	}

	// Section data, each at an offset congruent to vaddr mod pageSize.
	offsets := make([]uint64, len(secs))
	for i, s := range secs {
		off := uint64(len(out))
		want := s.Addr % pageSize
		if off%pageSize != want {
			padBy := (want - off%pageSize + pageSize) % pageSize
			out = append(out, make([]byte, padBy)...)
		}
		offsets[i] = uint64(len(out))
		out = append(out, s.Data...)
	}

	// Patch program headers.
	for i, s := range secs {
		p := phPos + i*phentSize
		var flags uint32
		if s.Flags&FlagRead != 0 {
			flags |= 4 // PF_R
		}
		if s.Flags&FlagWrite != 0 {
			flags |= 2 // PF_W
		}
		if s.Flags&FlagExec != 0 {
			flags |= 1 // PF_X
		}
		le.PutUint32(out[p:], ptLoad)
		le.PutUint32(out[p+4:], flags)
		le.PutUint64(out[p+8:], offsets[i])
		le.PutUint64(out[p+16:], s.Addr)
		le.PutUint64(out[p+24:], s.Addr)
		le.PutUint64(out[p+32:], uint64(len(s.Data)))
		le.PutUint64(out[p+40:], s.Size())
		le.PutUint64(out[p+48:], pageSize)
	}

	// String tables.
	shstr := stringTable{}
	shstr.add("") // index 0
	str := stringTable{}
	str.add("")

	// Symbol table.
	pad(8)
	symtabOff := uint64(len(out))
	out = append(out, make([]byte, symentSize)...) // null symbol
	for _, sym := range b.Symbols {
		nameOff := str.add(sym.Name)
		put32(nameOff)
		info := byte(stbGlobal<<4) | sttObject
		if sym.Func {
			info = byte(stbGlobal<<4) | sttFunc
		}
		out = append(out, info, 0)
		// st_shndx: find containing section index (1-based among secs).
		shndx := uint16(shnAbs)
		for i, s := range secs {
			if s.Contains(sym.Addr) {
				shndx = uint16(1 + i)
				break
			}
		}
		put16(shndx)
		put64(sym.Addr)
		put64(sym.Size)
	}
	symtabSize := uint64(len(out)) - symtabOff

	strtabOff := uint64(len(out))
	out = append(out, str.bytes()...)
	strtabSize := uint64(len(out)) - strtabOff

	// Build shstrtab with all names first.
	secNameOffs := make([]uint32, len(secs))
	for i, s := range secs {
		secNameOffs[i] = shstr.add(s.Name)
	}
	symtabName := shstr.add(".symtab")
	strtabName := shstr.add(".strtab")
	shstrtabName := shstr.add(".shstrtab")

	shstrtabOff := uint64(len(out))
	out = append(out, shstr.bytes()...)
	shstrtabSize := uint64(len(out)) - shstrtabOff

	// Section headers.
	pad(8)
	shoff := uint64(len(out))
	le.PutUint64(out[shoffPos:], shoff)

	writeSh := func(name uint32, typ, flags uint32, addr, off, size uint64, link uint32, entsize uint64) {
		put32(name)
		put32(typ)
		put64(uint64(flags))
		put64(addr)
		put64(off)
		put64(size)
		put32(link)
		put32(0) // sh_info
		put64(8) // sh_addralign
		put64(entsize)
	}

	// Null section header.
	out = append(out, make([]byte, shentSize)...)
	for i, s := range secs {
		var flags uint32 = shfAlloc
		if s.Flags&FlagWrite != 0 {
			flags |= shfWrite
		}
		if s.Flags&FlagExec != 0 {
			flags |= shfExecinstr
		}
		typ := uint32(shtProgbits)
		if len(s.Data) == 0 && s.Size() > 0 {
			typ = shtNobits
		}
		writeSh(secNameOffs[i], typ, flags, s.Addr, offsets[i], s.Size(), 0, 0)
	}
	strtabIndex := uint32(1 + len(secs) + 1)
	writeSh(symtabName, shtSymtab, 0, 0, symtabOff, symtabSize, strtabIndex, symentSize)
	writeSh(strtabName, shtStrtab, 0, 0, strtabOff, strtabSize, 0, 0)
	writeSh(shstrtabName, shtStrtab, 0, 0, shstrtabOff, shstrtabSize, 0, 0)

	return out, nil
}

// stringTable builds an ELF string table with deduplication.
type stringTable struct {
	data    []byte
	indices map[string]uint32
}

func (st *stringTable) add(s string) uint32 {
	if st.indices == nil {
		st.indices = make(map[string]uint32)
	}
	if off, ok := st.indices[s]; ok {
		return off
	}
	off := uint32(len(st.data))
	st.data = append(st.data, s...)
	st.data = append(st.data, 0)
	st.indices[s] = off
	return off
}

func (st *stringTable) bytes() []byte { return st.data }

// Parse errors.
var (
	ErrNotELF    = errors.New("elf: not an ELF file")
	ErrMalformed = errors.New("elf: malformed file")
)

// Parse reads an ELF64 executable produced by Bytes (or any static
// little-endian x86-64 executable using the same simple layout).
func Parse(data []byte) (*Binary, error) {
	if len(data) < ehSize || string(data[:4]) != elfMagic {
		return nil, ErrNotELF
	}
	if data[4] != elfClass64 || data[5] != elfDataLSB {
		return nil, fmt.Errorf("%w: not ELF64 little-endian", ErrNotELF)
	}
	le := binary.LittleEndian
	at := func(off, n uint64) ([]byte, error) {
		if off+n > uint64(len(data)) || off+n < off {
			return nil, ErrMalformed
		}
		return data[off : off+n], nil
	}

	b := &Binary{Entry: le.Uint64(data[24:])}
	shoff := le.Uint64(data[40:])
	shnum := le.Uint16(data[60:])
	shstrndx := le.Uint16(data[62:])

	if shoff == 0 || shnum == 0 {
		return nil, fmt.Errorf("%w: missing section headers", ErrMalformed)
	}

	type rawSh struct {
		name                  uint32
		typ                   uint32
		flags                 uint64
		addr, off, size, ents uint64
		link                  uint32
	}
	shs := make([]rawSh, shnum)
	for i := range shs {
		hdr, err := at(shoff+uint64(i)*shentSize, shentSize)
		if err != nil {
			return nil, err
		}
		shs[i] = rawSh{
			name:  le.Uint32(hdr[0:]),
			typ:   le.Uint32(hdr[4:]),
			flags: le.Uint64(hdr[8:]),
			addr:  le.Uint64(hdr[16:]),
			off:   le.Uint64(hdr[24:]),
			size:  le.Uint64(hdr[32:]),
			link:  le.Uint32(hdr[40:]),
			ents:  le.Uint64(hdr[56:]),
		}
	}
	if int(shstrndx) >= len(shs) {
		return nil, fmt.Errorf("%w: bad shstrndx", ErrMalformed)
	}
	shstr, err := at(shs[shstrndx].off, shs[shstrndx].size)
	if err != nil {
		return nil, err
	}
	secName := func(off uint32) string {
		return cString(shstr, off)
	}

	var symtab, strtab []byte
	var symtabEnts uint64
	for _, sh := range shs {
		switch sh.typ {
		case shtProgbits, shtNobits:
			if sh.flags&shfAlloc == 0 {
				continue
			}
			var flags uint32 = FlagRead
			if sh.flags&shfWrite != 0 {
				flags |= FlagWrite
			}
			if sh.flags&shfExecinstr != 0 {
				flags |= FlagExec
			}
			sec := &Section{
				Name:    secName(sh.name),
				Addr:    sh.addr,
				Flags:   flags,
				MemSize: sh.size,
			}
			if sh.typ == shtProgbits {
				d, err := at(sh.off, sh.size)
				if err != nil {
					return nil, err
				}
				sec.Data = append([]byte(nil), d...)
			}
			b.Sections = append(b.Sections, sec)
		case shtSymtab:
			d, err := at(sh.off, sh.size)
			if err != nil {
				return nil, err
			}
			symtab = d
			symtabEnts = sh.size / symentSize
			if int(sh.link) < len(shs) {
				sd, err := at(shs[sh.link].off, shs[sh.link].size)
				if err != nil {
					return nil, err
				}
				strtab = sd
			}
		}
	}

	for i := uint64(1); i < symtabEnts; i++ {
		e := symtab[i*symentSize:]
		nameOff := le.Uint32(e[0:])
		info := e[4]
		addr := le.Uint64(e[8:])
		size := le.Uint64(e[16:])
		name := cString(strtab, nameOff)
		if name == "" {
			continue
		}
		b.Symbols = append(b.Symbols, Symbol{
			Name: name,
			Addr: addr,
			Size: size,
			Func: info&0xF == sttFunc,
		})
	}
	sort.Slice(b.Sections, func(i, j int) bool { return b.Sections[i].Addr < b.Sections[j].Addr })
	return b, nil
}

// Load parses any ELF64 executable this toolchain reads, and
// structurally validates the result. Images carrying section headers
// (the Bytes layout every written artifact uses, or any ordinary static
// executable) parse via Parse; a program-header-only executable, such
// as a third-party binary stripped of its section headers, has its
// sections rebuilt from the PT_LOAD segments, with canonical names
// derived from segment permissions (.text for executable, .rodata for
// read-only, .data for initialized writable, .bss for zero-fill).
//
// Unlike Parse, Load runs Validate on the result: a malformed image
// (overlapping segments, entry outside executable code) fails loudly at
// load time instead of corrupting a downstream campaign.
func Load(data []byte) (*Binary, error) {
	if len(data) < ehSize || string(data[:4]) != elfMagic {
		return nil, ErrNotELF
	}
	if data[4] != elfClass64 || data[5] != elfDataLSB {
		return nil, fmt.Errorf("%w: not ELF64 little-endian", ErrNotELF)
	}
	le := binary.LittleEndian
	var b *Binary
	var err error
	if le.Uint64(data[40:]) != 0 && le.Uint16(data[60:]) != 0 {
		b, err = Parse(data)
	} else {
		b, err = parseSegments(data)
	}
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return b, nil
}

// parseSegments reconstructs sections from the program-header table of
// a section-header-less image. Zero-size PT_LOAD entries are skipped
// (they map nothing), non-PT_LOAD entries are ignored, and anything
// structurally impossible — truncated header table, file sizes past the
// end of the image, p_filesz exceeding p_memsz — is ErrMalformed.
func parseSegments(data []byte) (*Binary, error) {
	le := binary.LittleEndian
	b := &Binary{Entry: le.Uint64(data[24:])}
	phoff := le.Uint64(data[32:])
	phents := le.Uint16(data[54:])
	phnum := le.Uint16(data[56:])
	if phoff == 0 || phnum == 0 {
		return nil, fmt.Errorf("%w: no program headers", ErrMalformed)
	}
	if phents != phentSize {
		return nil, fmt.Errorf("%w: program header entry size %d, want %d", ErrMalformed, phents, phentSize)
	}
	counts := map[string]int{}
	for i := uint64(0); i < uint64(phnum); i++ {
		off := phoff + i*phentSize
		if off+phentSize > uint64(len(data)) || off+phentSize < off {
			return nil, fmt.Errorf("%w: truncated program header table", ErrMalformed)
		}
		hdr := data[off : off+phentSize]
		if le.Uint32(hdr[0:]) != ptLoad {
			continue
		}
		pflags := le.Uint32(hdr[4:])
		foff := le.Uint64(hdr[8:])
		vaddr := le.Uint64(hdr[16:])
		filesz := le.Uint64(hdr[32:])
		memsz := le.Uint64(hdr[40:])
		if memsz == 0 {
			continue
		}
		if filesz > memsz {
			return nil, fmt.Errorf("%w: segment at %#x has p_filesz > p_memsz", ErrMalformed, vaddr)
		}
		if foff+filesz > uint64(len(data)) || foff+filesz < foff {
			return nil, fmt.Errorf("%w: segment at %#x extends past end of file", ErrMalformed, vaddr)
		}
		var flags uint32
		if pflags&4 != 0 {
			flags |= FlagRead
		}
		if pflags&2 != 0 {
			flags |= FlagWrite
		}
		if pflags&1 != 0 {
			flags |= FlagExec
		}
		sec := &Section{
			Addr:    vaddr,
			Flags:   flags,
			MemSize: memsz,
		}
		if filesz > 0 {
			sec.Data = append([]byte(nil), data[foff:foff+filesz]...)
		}
		sec.Name = segmentName(flags, len(sec.Data) > 0, counts)
		b.Sections = append(b.Sections, sec)
	}
	if len(b.Sections) == 0 {
		return nil, fmt.Errorf("%w: no loadable segments", ErrMalformed)
	}
	sort.Slice(b.Sections, func(i, j int) bool { return b.Sections[i].Addr < b.Sections[j].Addr })
	return b, nil
}

// segmentName assigns the canonical section name for a segment's
// permission class; repeats of a class gain a numeric suffix so names
// stay unique (and the reconstruction stays deterministic).
func segmentName(flags uint32, hasData bool, counts map[string]int) string {
	var base string
	switch {
	case flags&FlagExec != 0:
		base = ".text"
	case flags&FlagWrite != 0 && hasData:
		base = ".data"
	case flags&FlagWrite != 0:
		base = ".bss"
	default:
		base = ".rodata"
	}
	n := counts[base]
	counts[base]++
	if n == 0 {
		return base
	}
	return fmt.Sprintf("%s.%d", base, n)
}

func cString(table []byte, off uint32) string {
	if uint64(off) >= uint64(len(table)) {
		return ""
	}
	end := off
	for end < uint32(len(table)) && table[end] != 0 {
		end++
	}
	return string(table[off:end])
}
