package elf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// segdef describes one program header of a hand-rolled test image.
type segdef struct {
	typ   uint32
	flags uint32 // PF_* bits
	vaddr uint64
	data  []byte
	memsz uint64
}

// phdrImage hand-rolls a program-header-only ELF image: header, phdr
// table at offset 64, segment bytes appended in order — the shape of an
// executable stripped of its section headers. The tests below bend
// each field out of shape.
func phdrImage(entry uint64, segs []segdef) []byte {
	le := binary.LittleEndian
	img := make([]byte, ehSize+len(segs)*phentSize)
	copy(img, elfMagic)
	img[4] = elfClass64
	img[5] = elfDataLSB
	img[6] = 1                 // EI_VERSION
	le.PutUint16(img[16:], 2)  // e_type = ET_EXEC
	le.PutUint16(img[18:], 62) // e_machine = EM_X86_64
	le.PutUint32(img[20:], 1)  // e_version
	le.PutUint64(img[24:], entry)
	le.PutUint64(img[32:], ehSize) // e_phoff
	le.PutUint16(img[52:], ehSize)
	le.PutUint16(img[54:], phentSize)
	le.PutUint16(img[56:], uint16(len(segs)))
	for i, s := range segs {
		p := img[ehSize+i*phentSize:]
		le.PutUint32(p[0:], s.typ)
		le.PutUint32(p[4:], s.flags)
		le.PutUint64(p[8:], uint64(len(img))) // p_offset: will append there
		le.PutUint64(p[16:], s.vaddr)
		le.PutUint64(p[24:], s.vaddr)
		le.PutUint64(p[32:], uint64(len(s.data)))
		le.PutUint64(p[40:], s.memsz)
		le.PutUint64(p[48:], 0x1000)
		img = append(img, s.data...)
	}
	return img
}

// validSegs is a minimal well-formed segment set: exec text holding a
// `ret`, read-only data, and a data-less bss.
func validSegs() []segdef {
	return []segdef{
		{typ: ptLoad, flags: 5, vaddr: 0x401000, data: []byte{0xC3}, memsz: 1},
		{typ: ptLoad, flags: 4, vaddr: 0x402000, data: []byte("ro"), memsz: 2},
		{typ: ptLoad, flags: 6, vaddr: 0x403000, memsz: 32},
	}
}

func TestLoadSegments(t *testing.T) {
	b, err := Load(phdrImage(0x401000, validSegs()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Entry != 0x401000 {
		t.Errorf("entry = %#x, want 0x401000", b.Entry)
	}
	want := []struct {
		name string
		data []byte
		size uint64
	}{
		{".text", []byte{0xC3}, 1},
		{".rodata", []byte("ro"), 2},
		{".bss", nil, 32},
	}
	if len(b.Sections) != len(want) {
		t.Fatalf("sections = %d, want %d", len(b.Sections), len(want))
	}
	for i, w := range want {
		s := b.Sections[i]
		if s.Name != w.name || !bytes.Equal(s.Data, w.data) || s.Size() != w.size {
			t.Errorf("section %d = %s %q size %d, want %s %q size %d",
				i, s.Name, s.Data, s.Size(), w.name, w.data, w.size)
		}
	}
}

// Load must dispatch section-header images to Parse — symbols intact.
func TestLoadSectionHeaderImage(t *testing.T) {
	img, err := sampleBinary().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Symbols) != len(sampleBinary().Symbols) {
		t.Errorf("symbols = %d, want %d (Load should take the Parse path)",
			len(b.Symbols), len(sampleBinary().Symbols))
	}
	if b.Section(".rodata") == nil {
		t.Error("named .rodata section missing after Load of section-header image")
	}
}

// Repeated permission classes gain numeric suffixes so names stay
// unique (Validate requires it).
func TestLoadDuplicateClassNames(t *testing.T) {
	segs := validSegs()
	segs = append(segs, segdef{typ: ptLoad, flags: 6, vaddr: 0x404000, memsz: 8})
	b, err := Load(phdrImage(0x401000, segs))
	if err != nil {
		t.Fatal(err)
	}
	if b.Sections[2].Name != ".bss" || b.Sections[3].Name != ".bss.1" {
		t.Errorf("duplicate-class names = %q, %q, want .bss, .bss.1",
			b.Sections[2].Name, b.Sections[3].Name)
	}
}

func TestLoadErrors(t *testing.T) {
	mangle := func(f func([]byte, []segdef) ([]byte, []segdef)) []byte {
		img, segs := f(nil, validSegs())
		if img == nil {
			img = phdrImage(0x401000, segs)
		}
		return img
	}

	cases := []struct {
		name string
		img  []byte
		want error
	}{
		{"nil", nil, ErrNotELF},
		{"garbage", []byte("definitely not an executable image here"), ErrNotELF},
		{"class32", mangle(func(img []byte, s []segdef) ([]byte, []segdef) {
			img = phdrImage(0x401000, s)
			img[4] = 1
			return img, s
		}), ErrNotELF},
		{"truncated header", phdrImage(0x401000, validSegs())[:ehSize-8], ErrNotELF},
		{"no program headers", mangle(func(img []byte, s []segdef) ([]byte, []segdef) {
			img = phdrImage(0x401000, s)
			binary.LittleEndian.PutUint16(img[56:], 0) // e_phnum = 0
			return img, s
		}), ErrMalformed},
		{"wrong phentsize", mangle(func(img []byte, s []segdef) ([]byte, []segdef) {
			img = phdrImage(0x401000, s)
			binary.LittleEndian.PutUint16(img[54:], 48)
			return img, s
		}), ErrMalformed},
		{"truncated phdr table", mangle(func(img []byte, s []segdef) ([]byte, []segdef) {
			img = phdrImage(0x401000, s)
			binary.LittleEndian.PutUint16(img[56:], 200) // claims 200 phdrs
			return img, s
		}), ErrMalformed},
		{"filesz over memsz", mangle(func(img []byte, s []segdef) ([]byte, []segdef) {
			img = phdrImage(0x401000, s)
			// rodata: p_memsz 1 below its p_filesz of 2
			binary.LittleEndian.PutUint64(img[ehSize+phentSize+40:], 1)
			return img, s
		}), ErrMalformed},
		{"segment past EOF", mangle(func(img []byte, s []segdef) ([]byte, []segdef) {
			img = phdrImage(0x401000, s)
			binary.LittleEndian.PutUint64(img[ehSize+8:], uint64(len(img))) // text offset at EOF
			return img, s
		}), ErrMalformed},
		{"no loadable segments", phdrImage(0x401000, []segdef{
			{typ: 4 /* PT_NOTE */, flags: 4, vaddr: 0x401000, data: []byte{1}, memsz: 1},
			{typ: ptLoad, flags: 5, vaddr: 0x402000, memsz: 0}, // zero memsz: skipped
		}), ErrMalformed},
		{"overlapping segments", phdrImage(0x401000, []segdef{
			{typ: ptLoad, flags: 5, vaddr: 0x401000, data: []byte{0xC3, 0xC3}, memsz: 2},
			{typ: ptLoad, flags: 4, vaddr: 0x401001, data: []byte("x"), memsz: 1},
		}), ErrMalformed},
		{"entry outside text", phdrImage(0x500000, validSegs()), ErrMalformed},
		{"entry in non-exec segment", phdrImage(0x402000, validSegs()), ErrMalformed},
	}
	for _, tc := range cases {
		if _, err := Load(tc.img); !errors.Is(err, tc.want) {
			t.Errorf("Load(%s) = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// A zero-memsz PT_LOAD maps nothing: Load skips it rather than
// manufacturing an empty section.
func TestLoadSkipsZeroSizeSegments(t *testing.T) {
	segs := validSegs()
	segs = append(segs, segdef{typ: ptLoad, flags: 4, vaddr: 0x600000, memsz: 0})
	b, err := Load(phdrImage(0x401000, segs))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sections) != 3 {
		t.Errorf("sections = %d, want 3 (zero-size segment must be skipped)", len(b.Sections))
	}
}
