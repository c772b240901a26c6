package elf

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleBinary() *Binary {
	return &Binary{
		Entry: 0x401000,
		Sections: []*Section{
			{Name: ".text", Addr: 0x401000, Data: []byte{0x90, 0xC3}, Flags: FlagRead | FlagExec},
			{Name: ".rodata", Addr: 0x402000, Data: []byte("hello\x00"), Flags: FlagRead},
			{Name: ".data", Addr: 0x600000, Data: []byte{1, 2, 3, 4}, Flags: FlagRead | FlagWrite},
			{Name: ".bss", Addr: 0x601000, Data: nil, MemSize: 64, Flags: FlagRead | FlagWrite},
		},
		Symbols: []Symbol{
			{Name: "_start", Addr: 0x401000, Size: 2, Func: true},
			{Name: "msg", Addr: 0x402000, Size: 6},
			{Name: "counter", Addr: 0x601000, Size: 8},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	b := sampleBinary()
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != b.Entry {
		t.Errorf("entry = %#x, want %#x", got.Entry, b.Entry)
	}
	if len(got.Sections) != len(b.Sections) {
		t.Fatalf("sections = %d, want %d", len(got.Sections), len(b.Sections))
	}
	for _, want := range b.Sections {
		sec := got.Section(want.Name)
		if sec == nil {
			t.Fatalf("section %s missing after round trip", want.Name)
		}
		if sec.Addr != want.Addr || !bytes.Equal(sec.Data, want.Data) || sec.Flags != want.Flags {
			t.Errorf("section %s = {%#x % X flags=%b}, want {%#x % X flags=%b}",
				want.Name, sec.Addr, sec.Data, sec.Flags, want.Addr, want.Data, want.Flags)
		}
		if sec.Size() != want.Size() {
			t.Errorf("section %s size = %d, want %d", want.Name, sec.Size(), want.Size())
		}
	}
	if !reflect.DeepEqual(got.Symbols, b.Symbols) {
		t.Errorf("symbols = %+v, want %+v", got.Symbols, b.Symbols)
	}
}

func TestOffsetCongruence(t *testing.T) {
	// A loader that mmaps segments requires p_offset ≡ p_vaddr (mod page).
	b := sampleBinary()
	img, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	phoff := int(le64(img[32:]))
	phnum := int(le16(img[56:]))
	for i := 0; i < phnum; i++ {
		p := img[phoff+i*56:]
		off := le64(p[8:])
		vaddr := le64(p[16:])
		if off%0x1000 != vaddr%0x1000 {
			t.Errorf("segment %d: offset %#x not congruent to vaddr %#x", i, off, vaddr)
		}
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }

func TestSectionQueries(t *testing.T) {
	b := sampleBinary()
	if b.Text() == nil || b.Text().Name != ".text" {
		t.Fatal("Text() lookup failed")
	}
	if got := b.SectionAt(0x401001); got == nil || got.Name != ".text" {
		t.Errorf("SectionAt(0x401001) = %v", got)
	}
	if got := b.SectionAt(0x601010); got == nil || got.Name != ".bss" {
		t.Errorf("SectionAt in bss = %v", got)
	}
	if got := b.SectionAt(0xdead); got != nil {
		t.Errorf("SectionAt(0xdead) = %v, want nil", got)
	}
	if addr, ok := b.SymbolAddr("msg"); !ok || addr != 0x402000 {
		t.Errorf("SymbolAddr(msg) = %#x, %v", addr, ok)
	}
	if _, ok := b.SymbolAddr("nope"); ok {
		t.Error("SymbolAddr(nope) succeeded")
	}
	if name := b.SymbolAt(0x401000); name != "_start" {
		t.Errorf("SymbolAt = %q, want _start", name)
	}
	if b.CodeSize() != 2 {
		t.Errorf("CodeSize = %d, want 2", b.CodeSize())
	}
}

func TestValidate(t *testing.T) {
	b := sampleBinary()
	if err := b.Validate(); err != nil {
		t.Fatalf("valid binary rejected: %v", err)
	}

	overlap := sampleBinary()
	overlap.Sections[1].Addr = 0x401001
	if err := overlap.Validate(); err == nil {
		t.Error("overlapping sections accepted")
	}

	badEntry := sampleBinary()
	badEntry.Entry = 0x600000 // in .data, not executable
	if err := badEntry.Validate(); err == nil {
		t.Error("entry in non-exec section accepted")
	}

	noEntry := sampleBinary()
	noEntry.Entry = 0x1
	if err := noEntry.Validate(); err == nil {
		t.Error("entry outside all sections accepted")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil); !errors.Is(err, ErrNotELF) {
		t.Errorf("Parse(nil) = %v, want ErrNotELF", err)
	}
	if _, err := Parse([]byte("not an elf at all, sorry about that......")); !errors.Is(err, ErrNotELF) {
		t.Errorf("Parse(garbage) = %v, want ErrNotELF", err)
	}
	// 32-bit class byte.
	img, _ := sampleBinary().Bytes()
	img[4] = 1
	if _, err := Parse(img); !errors.Is(err, ErrNotELF) {
		t.Errorf("Parse(class32) = %v, want ErrNotELF", err)
	}
	// Truncated section headers.
	img2, _ := sampleBinary().Bytes()
	if _, err := Parse(img2[:len(img2)-100]); err == nil {
		t.Error("Parse(truncated) succeeded")
	}
}

// TestBytesDeterministic: serialization must be reproducible so that
// code-size comparisons between pipeline stages are meaningful.
func TestBytesDeterministic(t *testing.T) {
	a, err := sampleBinary().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleBinary().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Bytes() not deterministic")
	}
}

// TestRoundTripProperty: random section payloads survive a write/parse
// cycle bit-exactly, and writing the parsed binary again reproduces the
// image byte for byte — the written artifact is a fixed point of
// Bytes∘Parse.
func TestRoundTripProperty(t *testing.T) {
	f := func(text, data []byte, entryOff uint16) bool {
		if len(text) == 0 {
			text = []byte{0x90}
		}
		if len(text) > 1<<16 {
			text = text[:1<<16]
		}
		b := &Binary{
			Entry: 0x401000 + uint64(entryOff)%uint64(len(text)),
			Sections: []*Section{
				{Name: ".text", Addr: 0x401000, Data: text, Flags: FlagRead | FlagExec},
				{Name: ".data", Addr: 0x401000 + uint64(len(text)) + 0x1000, Data: data, Flags: FlagRead | FlagWrite},
			},
		}
		img, err := b.Bytes()
		if err != nil {
			return false
		}
		got, err := Parse(img)
		if err != nil {
			return false
		}
		again, err := got.Bytes()
		if err != nil || !bytes.Equal(again, img) {
			return false
		}
		t2 := got.Section(".text")
		d2 := got.Section(".data")
		return t2 != nil && d2 != nil &&
			bytes.Equal(t2.Data, text) && bytes.Equal(d2.Data, data) &&
			got.Entry == b.Entry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
