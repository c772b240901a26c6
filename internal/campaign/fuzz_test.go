package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/isa"
)

// FuzzParseShard: any input either fails with an error or yields a
// shard whose invariants hold — the empty spec is the whole campaign,
// anything else has a count >= 1 and an index inside [0, count). The
// canonical "i/n" rendering of a real decomposition must reparse to
// the same shard. (Shard.String is NOT the round-trip form: it renders
// the whole campaign as "1/1", which parses to index 1 of 1 shard and
// correctly fails — the plan-key encoding is not the CLI syntax.)
func FuzzParseShard(f *testing.F) {
	for _, seed := range []string{"", "0/4", "3/4", " 1 / 2 ", "1/1", "0/1",
		"4/4", "-1/3", "a/b", "1", "1/2/3", "0x1/2", "؆/2", "9999999999999999999/3"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShard(s)
		if err != nil {
			return
		}
		if strings.TrimSpace(s) == "" {
			if sh != (Shard{}) {
				t.Fatalf("ParseShard(%q) = %+v, want the zero shard", s, sh)
			}
			return
		}
		if sh.Count < 1 {
			t.Fatalf("ParseShard(%q) accepted count %d", s, sh.Count)
		}
		if sh.Index < 0 || sh.Index >= sh.Count {
			t.Fatalf("ParseShard(%q) accepted index %d outside [0,%d)", s, sh.Index, sh.Count)
		}
		if _, err := sh.normalize(); err != nil {
			t.Fatalf("ParseShard(%q) = %+v does not normalize: %v", s, sh, err)
		}
		if sh.Count > 1 {
			again, err := ParseShard(fmt.Sprintf("%d/%d", sh.Index, sh.Count))
			if err != nil || again != sh {
				t.Fatalf("round-trip of %+v: %+v, %v", sh, again, err)
			}
		}
	})
}

// FuzzStoreEntry: arbitrary bytes stored as a key's entry file either
// miss or decode to an entry that keeps every column invariant — never
// a panic. A decoded entry re-saves and re-reads to an equal entry.
func FuzzStoreEntry(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join(entryGoldenDir, "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range golden {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		key := strings.TrimSuffix(filepath.Base(path), ".json")
		f.Add(bytes.Replace(doc, []byte(`"key":"`+key+`"`), []byte(`"key":"k"`), 1))
	}
	for _, doc := range []string{
		entryDoc("iSc", "[5,9,7]", "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"),
		entryDoc("iScd", "[ 5 , 9,7,0 ]", "[]", "[[],[1]]", "[1,0,1,0]"),
		entryDoc("", "[]", "null", "null", "[]"),
		entryDoc("iSc", "[5,9,7]", "[2,1]", "[[4096]]", "[0,0,1]"),
		fmt.Sprintf(`{"schema":%d,"key":"k","faults_digest":"","good_oracle":{"Stdout":"","ExitCode":0},`+
			`"bad_oracle":{"Stdout":"","ExitCode":0},"injection_step_limit":0,"seq_digest":"sd","outcomes":"dcSi"}`, planSchema),
		`{"schema":3,"key":"k","records":[{"outcome":"ignored","steps":5,"pages":[4096]}]}`,
		"",
	} {
		f.Add([]byte(doc))
	}
	// Iterations of one process run one at a time, so they share two
	// directories: one holding the fuzzed file, one the re-saved entry.
	dir, resaved := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, doc []byte) {
		if err := os.WriteFile(filepath.Join(dir, "k.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := newTestStore(t, dir).Lookup("k")
		if !ok {
			return
		}
		if e.Schema != planSchema || e.Key != "k" {
			t.Fatalf("decoded header schema %d key %q", e.Schema, e.Key)
		}
		if len(e.Records) > 0 && len(e.Outcomes) > 0 {
			t.Fatal("entry decoded with both order-1 records and a sequence outcome column")
		}
		for _, r := range e.Records {
			if r.Outcome > fault.OutcomeDetected {
				t.Fatalf("record outcome %d", r.Outcome)
			}
		}
		for _, o := range e.Outcomes {
			if o > fault.OutcomeDetected {
				t.Fatalf("sequence outcome %d", o)
			}
		}
		if err := newTestStore(t, resaved).Save(e); err != nil {
			t.Fatalf("re-saving a decoded entry: %v", err)
		}
		back, ok := newTestStore(t, resaved).Lookup("k")
		if !ok {
			t.Fatal("re-saved entry does not decode")
		}
		if !reflect.DeepEqual(e, back) {
			t.Fatalf("re-saved entry drifted:\n%+v\n%+v", e, back)
		}
	})
}

// faultRecordLen is how many input bytes faultFrom reads per fault.
const faultRecordLen = 5 + 4*8

// faultFrom builds a fault from the first faultRecordLen bytes of p
// (zero-padded): the five byte-sized fields, then TraceIndex, Addr, Bit
// and Window as little-endian 64-bit words.
func faultFrom(p []byte) fault.Fault {
	var r [faultRecordLen]byte
	copy(r[:], p)
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(r[5+8*i:]) }
	return fault.Fault{
		Model: fault.Model(r[0]), Op: isa.Op(r[1]), Cond: isa.Cond(r[2]), Reg: isa.Reg(r[3]),
		Transient:  r[4] != 0,
		TraceIndex: int(word(0)), Addr: word(1), Bit: int(word(2)), Window: int(word(3)),
	}
}

// FuzzFaultEncoding: for two faults built from the input, appendFault's
// encodings are equal only when the faults are, neither is a proper
// prefix of the other (so a concatenated list decodes one way), and
// each matches the reference encoder.
func FuzzFaultEncoding(f *testing.F) {
	rec := func(model, op byte, transient bool, ti int64, addr uint64, bit, window int64) []byte {
		r := []byte{model, op, 0, 0, 0}
		if transient {
			r[4] = 1
		}
		for _, w := range []uint64{uint64(ti), addr, uint64(bit), uint64(window)} {
			r = binary.LittleEndian.AppendUint64(r, w)
		}
		return r
	}
	a := rec(byte(fault.ModelBitFlip), 3, false, 17, 0x401000, 5, 0)
	for _, b := range [][]byte{
		a,
		rec(byte(fault.ModelBitFlip), 3, true, 17, 0x401000, 5, 0),
		rec(byte(fault.ModelBitFlip), 3, false, 17, 0x401000, -5, 0),
		rec(byte(fault.ModelBitFlip), 3, false, 17, 0x401000<<7, 5, 0),
		rec(byte(fault.ModelMultiSkip), 3, false, 17, 0x401000, 0, 5),
		rec(0, 0, false, -1, ^uint64(0), math.MinInt64, math.MaxInt64),
		nil,
	} {
		f.Add(a, b)
	}
	f.Fuzz(func(t *testing.T, pa, pb []byte) {
		fa, fb := faultFrom(pa), faultFrom(pb)
		ea, eb := appendFault(nil, fa), appendFault(nil, fb)
		if bytes.Equal(ea, eb) != (fa == fb) {
			t.Fatalf("faults %+v and %+v (equal: %v) encode to %x and %x", fa, fb, fa == fb, ea, eb)
		}
		if len(ea) != len(eb) && (bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea)) {
			t.Fatalf("encoding %x of %+v and %x of %+v: one is a proper prefix of the other", ea, fa, eb, fb)
		}
		for _, c := range []struct {
			f   fault.Fault
			enc []byte
		}{{fa, ea}, {fb, eb}} {
			var want bytes.Buffer
			refFault(&want, c.f)
			if !bytes.Equal(c.enc, want.Bytes()) {
				t.Fatalf("appendFault(%+v) = %x, reference %x", c.f, c.enc, want.Bytes())
			}
		}
	})
}
