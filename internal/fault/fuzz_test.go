package fault

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/static"
)

// FuzzParseModel: any accepted name resolves to a registered spec, and
// the model's canonical name reparses to the same model — the property
// that makes Model.String() safe in plan keys and JSON.
func FuzzParseModel(f *testing.F) {
	for _, seed := range []string{"skip", "bitflip", "bit-flip", "reg-flip",
		"regflip", "multi-skip", "data-flip", " skip ", "", "both", "all",
		"SKIP", "skip,bitflip", "unknown", "skip\x00"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		if err != nil {
			return
		}
		if SpecOf(m) == nil {
			t.Fatalf("ParseModel(%q) = %v has no registered spec", s, m)
		}
		again, err := ParseModel(m.String())
		if err != nil || again != m {
			t.Fatalf("canonical name %q of ParseModel(%q) reparses to %v, %v", m, s, again, err)
		}
	})
}

// FuzzParseModels: any accepted spec expands to a non-empty,
// duplicate-free list of registered models, and the canonical
// comma-joined rendering reparses to the identical list.
func FuzzParseModels(f *testing.F) {
	for _, seed := range []string{"", "both", "all", "skip,bitflip",
		"skip, bitflip ,reg-flip", "all,skip", "both,both", ",",
		"skip,,bitflip", "nope", "all,nope"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ms, err := ParseModels(s)
		if err != nil {
			return
		}
		if len(ms) == 0 {
			t.Fatalf("ParseModels(%q) accepted an empty model list", s)
		}
		seen := map[Model]bool{}
		names := make([]string, 0, len(ms))
		for _, m := range ms {
			if SpecOf(m) == nil {
				t.Fatalf("ParseModels(%q) yielded unregistered model %v", s, m)
			}
			if seen[m] {
				t.Fatalf("ParseModels(%q) yielded duplicate model %v", s, m)
			}
			seen[m] = true
			names = append(names, m.String())
		}
		again, err := ParseModels(strings.Join(names, ","))
		if err != nil {
			t.Fatalf("canonical list %q of ParseModels(%q) fails to reparse: %v", names, s, err)
		}
		if len(again) != len(ms) {
			t.Fatalf("canonical reparse of %q: %d models, want %d", s, len(again), len(ms))
		}
		for i := range again {
			if again[i] != ms[i] {
				t.Fatalf("canonical reparse of %q differs at %d: %v vs %v", s, i, again[i], ms[i])
			}
		}
	})
}

// FuzzSessionELF: arbitrary bytes as a user binary through the whole
// session path — elf.Load, NewSession under all five models (which
// decodes and translates every executable byte of the image, not only
// what the golden runs execute), Simulate on each fault, then the
// static verifier's analysis and coverage check. Bad input must come
// back as an error, never a panic or a hang. Images whose sections
// map more than 128 KiB are skipped. Seeds: the corpus cases' ELF bytes
// with their good and bad inputs, then the same images in the
// program-header-only form of a stripped executable, so both of Load's
// read forms are fuzzed through the session.
func FuzzSessionELF(f *testing.F) {
	for _, strip := range []bool{false, true} {
		for _, c := range cases.Corpus() {
			bin, err := c.Build()
			if err != nil {
				f.Fatal(err)
			}
			data, err := bin.Bytes()
			if err != nil {
				f.Fatal(err)
			}
			if strip {
				data = stripSectionHeaders(data)
				if _, err := elf.Load(data); err != nil {
					f.Fatalf("%s without section headers: %v", c.Name, err)
				}
			}
			f.Add(data, c.Good, c.Bad)
		}
	}
	const maxImage = 128 << 10
	models := []Model{ModelSkip, ModelBitFlip, ModelRegFlip, ModelMultiSkip, ModelDataFlip}
	f.Fuzz(func(t *testing.T, data, good, bad []byte) {
		bin, err := elf.Load(data)
		if err != nil {
			return
		}
		var size uint64
		for _, sec := range bin.Sections {
			if size += sec.Size(); sec.Size() > maxImage || size > maxImage {
				return
			}
		}
		s, err := NewSession(Campaign{
			Binary: bin, Good: good, Bad: bad, Models: models,
			StepLimit: 4096, MaxFaults: 64, Workers: 1,
		})
		if err == nil {
			for _, flt := range s.Faults() {
				s.Simulate(flt)
			}
		}
		if a, err := static.Analyze(bin); err == nil {
			a.CheckCoverage()
		}
	})
}

// stripSectionHeaders turns a Bytes image into a program-header-only
// executable: e_shoff, e_shnum and e_shstrndx zeroed, and the file cut
// after its last segment, dropping the symbol, string and section
// header tables that follow.
func stripSectionHeaders(img []byte) []byte {
	le := binary.LittleEndian
	out := bytes.Clone(img)
	le.PutUint64(out[40:], 0) // e_shoff
	le.PutUint16(out[60:], 0) // e_shnum
	le.PutUint16(out[62:], 0) // e_shstrndx
	phoff, phentsize := le.Uint64(out[32:]), uint64(le.Uint16(out[54:]))
	end := uint64(0)
	for i := uint64(0); i < uint64(le.Uint16(out[56:])); i++ {
		ph := out[phoff+i*phentsize:]
		end = max(end, le.Uint64(ph[8:])+le.Uint64(ph[32:])) // p_offset + p_filesz
	}
	return out[:end]
}
