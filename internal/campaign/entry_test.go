package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the entry layout golden files")

// entryGoldenDir holds the store entries of layoutCampaign, as saved.
var entryGoldenDir = filepath.Join("testdata", "entries")

// layoutCampaign is the small fixed campaign whose store entries pin
// the on-disk layout: pincheck under the CLI's default models (skip and
// bitflip) and reference budget, run at order 2.
func layoutCampaign(t *testing.T) fault.Campaign {
	t.Helper()
	c, err := cases.Get("pincheck")
	if err != nil {
		t.Fatal(err)
	}
	return fault.Campaign{
		Binary:    c.MustBuild(),
		Good:      c.Good,
		Bad:       c.Bad,
		Models:    []fault.Model{fault.ModelSkip, fault.ModelBitFlip},
		StepLimit: 32 << 20,
	}
}

// TestEntryLayoutGolden: Save writes exactly the committed bytes of the
// layout campaign's entries, and Lookup decodes each committed file to
// the entry the run saved. Any drift in the entry layout fails here and
// must come with a planSchema bump (regenerate with -update).
func TestEntryLayoutGolden(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir)
	if _, err := RunOrder2Result(layoutCampaign(t), Options{Workers: 2, Store: st}); err != nil {
		t.Fatal(err)
	}
	saved, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 2 {
		t.Fatalf("order-2 run saved %d entries, want 2 (solo and pair stage)", len(saved))
	}
	if *update {
		if err := os.RemoveAll(entryGoldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(entryGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Decode the committed files through a store of their own, so the
	// comparison below reads them from disk, not from st's memory.
	golden := newTestStore(t, t.TempDir())
	for _, path := range saved {
		name := filepath.Base(path)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(filepath.Join(entryGoldenDir, name), got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(filepath.Join(entryGoldenDir, name))
		if err != nil {
			t.Fatalf("%v (regenerate with -update, and bump planSchema if the layout changed)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("entry %s drifted from its golden file (bump planSchema and regenerate with -update)", name)
		}
		if err := os.WriteFile(filepath.Join(golden.dir, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
		key := strings.TrimSuffix(name, ".json")
		mem, ok := st.Lookup(key)
		if !ok {
			t.Fatalf("saved entry %s not resident", key)
		}
		disk, ok := golden.Lookup(key)
		if !ok {
			t.Fatalf("golden entry %s did not decode", name)
		}
		if !reflect.DeepEqual(mem, disk) {
			t.Errorf("golden entry %s decodes to a different entry than the run saved", name)
		}
	}
}

// entryDoc renders a hand-written order-1 entry document for key "k"
// with the given outcome column, and extra (when non-empty) spliced in
// verbatim as further fields.
func entryDoc(outcomes, extra string) string {
	return fmt.Sprintf(`{"schema":%d,"key":"k","faults_digest":"fd",`+
		`"good_oracle":{"Stdout":"ok\n","ExitCode":0},"bad_oracle":{"Stdout":"no\n","ExitCode":1},`+
		`"injection_step_limit":100,"outcomes":%q%s}`, planSchema, outcomes, extra)
}

// evidence renders the order-1 evidence columns of planSchema 5 (step
// counts, budget-cut indices, interned page sets and each injection's
// page set) as extra fields for entryDoc.
func evidence(steps, limitHit, pageSets, pageSet string) string {
	return fmt.Sprintf(`,"steps":%s,"limit_hit":%s,"page_sets":%s,"page_set":%s`, steps, limitHit, pageSets, pageSet)
}

// TestStoreLookupRejectsCorruptEntries: a store file that breaks the
// layout, is cut short, or predates the current layout is a miss —
// never an error, a panic, or a partially decoded entry. The layout
// has no evidence columns since planSchema 6, so a document carrying
// any of them, well-formed or not, is not one this layout writes: the
// schema-5 cases stay as such documents under the current header.
func TestStoreLookupRejectsCorruptEntries(t *testing.T) {
	valid := entryDoc("iSc", "")
	want := &Entry{
		Schema: planSchema, Key: "k", FaultsDigest: "fd",
		GoodOracle: fault.Observable{Stdout: "ok\n"},
		BadOracle:  fault.Observable{Stdout: "no\n", ExitCode: 1},
		Limit:      100,
		Outcomes:   []fault.Outcome{fault.OutcomeIgnored, fault.OutcomeSuccess, fault.OutcomeCrash},
	}
	if enc, err := want.MarshalJSON(); err != nil || string(enc) != valid {
		t.Fatalf("control entry encodes as\n%s (%v)\nwant\n%s", enc, err, valid)
	}
	schema3 := `{"schema":3,"key":"k","faults_digest":"fd","good_oracle":{"Stdout":"ok\n","ExitCode":0},` +
		`"bad_oracle":{"Stdout":"no\n","ExitCode":1},"injection_step_limit":100,` +
		`"records":[{"outcome":"ignored","steps":5,"pages":[4096]}]}`
	for _, tc := range []struct{ name, doc string }{
		{"valid", valid},
		{"truncated", valid[:len(valid)/2]},
		{"empty file", ""},
		{"steps shorter than outcomes", entryDoc("iSc", evidence("[5,9]", "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"page_set shorter than outcomes", entryDoc("iSc", evidence("[5,9,7]", "[1,2]", "[[4096],[4096,8192]]", "[0,1]"))},
		{"page_set index out of range", entryDoc("iSc", evidence("[5,9,7]", "[1,2]", "[[4096],[4096,8192]]", "[0,2,0]"))},
		{"limit_hit unsorted", entryDoc("iSc", evidence("[5,9,7]", "[2,1]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"limit_hit duplicate", entryDoc("iSc", evidence("[5,9,7]", "[1,1]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"limit_hit out of range", entryDoc("iSc", evidence("[5,9,7]", "[1,3]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"unknown outcome letter", entryDoc("iSx", "")},
		{"negative step", entryDoc("iSc", evidence("[5,-9,7]", "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"fractional step", entryDoc("iSc", evidence("[5,9.5,7]", "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"step overflows uint64", entryDoc("iSc", evidence("[5,18446744073709551616,7]", "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"string column", entryDoc("iSc", evidence(`"5,9,7"`, "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"evidence without steps", entryDoc("iSc", evidence("null", "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"well-formed evidence", entryDoc("iSc", evidence("[5,9,7]", "[1,2]", "[[4096],[4096,8192]]", "[0,1,0]"))},
		{"trailing data", valid + `{}`},
		{"schema-3 document", schema3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "k.json"), []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			st := newTestStore(t, dir)
			got, ok := st.Lookup("k")
			if tc.doc == valid {
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("valid entry: Lookup = %+v, %v; want %+v", got, ok, want)
				}
				return
			}
			if ok || got != nil {
				t.Fatalf("corrupt entry answered a lookup: %+v", got)
			}
		})
	}
}

// refFault is the reference encoding of a fault, written field by
// field without encoding/binary: Model, Op, Cond, Reg and Transient as
// one byte each, then TraceIndex, Addr, Bit and Window as varints
// (zig-zag for the signed fields; seven bits per byte, low group
// first, the high bit set on every byte but the last). appendFault
// must reproduce it byte for byte.
func refFault(w io.Writer, f fault.Fault) {
	uvarint := func(x uint64) {
		var b []byte
		for x >= 0x80 {
			b = append(b, byte(x&0x7f)|0x80)
			x >>= 7
		}
		w.Write(append(b, byte(x)))
	}
	varint := func(x int64) { uvarint(uint64(x<<1) ^ uint64(x>>63)) }
	var transient byte
	if f.Transient {
		transient = 1
	}
	w.Write([]byte{byte(f.Model), byte(f.Op), byte(f.Cond), byte(f.Reg), transient})
	varint(int64(f.TraceIndex))
	uvarint(f.Addr)
	varint(int64(f.Bit))
	varint(int64(f.Window))
}

// catalogFaults enumerates every catalog case under every registered
// fault model, persistent and transient, plus edge values no
// enumeration produces.
func catalogFaults(t *testing.T) []fault.Fault {
	t.Helper()
	faults := []fault.Fault{
		{},
		{Model: math.MaxUint8, TraceIndex: -1, Addr: math.MaxUint64, Op: math.MaxUint8, Cond: math.MaxUint8,
			Bit: math.MinInt64, Transient: true, Reg: math.MaxUint8, Window: math.MaxInt64},
		{Model: fault.ModelBitFlip, TraceIndex: math.MinInt64, Addr: 0x401000, Bit: -7, Transient: true, Window: -3},
		{TraceIndex: math.MaxInt, Addr: ^uint64(0), Bit: math.MaxInt, Window: math.MinInt},
		{TraceIndex: -64, Addr: 1 << 63, Bit: 63, Window: -65},
	}
	for _, c := range cases.Corpus() {
		for _, transient := range []bool{false, true} {
			s, err := fault.NewSession(fault.Campaign{
				Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
				Models: fault.RegisteredModels(), StepLimit: 32 << 20, Transient: transient,
			})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			faults = append(faults, s.Faults()...)
		}
	}
	return faults
}

// TestFaultEncoding: appendFault writes exactly the reference bytes
// for every fault of every catalog case under every registered model,
// persistent and transient, and for edge values; the list digests
// equal SHA-256 over the reference bytes. Fault's size and field count
// are pinned, so a field the encoding does not write fails here.
func TestFaultEncoding(t *testing.T) {
	if n := reflect.TypeOf(fault.Fault{}).NumField(); n != 9 {
		t.Fatalf("fault.Fault has %d fields, appendFault encodes 9: extend the encoding (and bump planSchema)", n)
	}
	if strconv.IntSize == 64 {
		for _, sz := range []struct {
			name      string
			got, want uintptr
		}{
			{"Fault", unsafe.Sizeof(fault.Fault{}), 40},
			{"Injection", unsafe.Sizeof(fault.Injection{}), 48},
			{"FaultPair", unsafe.Sizeof(fault.FaultPair{}), 80},
		} {
			if sz.got != sz.want {
				t.Errorf("unsafe.Sizeof(fault.%s) = %d, want %d", sz.name, sz.got, sz.want)
			}
		}
	}
	faults := catalogFaults(t)
	var want bytes.Buffer
	for _, f := range faults {
		want.Reset()
		refFault(&want, f)
		got := appendFault(nil, &f)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendFault(%+v) = %x, want %x", f, got, want.Bytes())
		}
		if len(got) > maxFaultEnc {
			t.Fatalf("appendFault(%+v) wrote %d bytes, over maxFaultEnc %d", f, len(got), maxFaultEnc)
		}
	}
	reference := func(faults ...[]fault.Fault) string {
		h := sha256.New()
		for _, fs := range faults {
			for _, f := range fs {
				refFault(h, f)
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if got, want := digestFaults(faults), reference(faults); got != want {
		t.Errorf("digestFaults = %s, want %s", got, want)
	}
	var pairs []fault.FaultPair
	var triples []fault.FaultTriple
	var pairFaults, tripleFaults []fault.Fault
	for i := 0; i+2 < len(faults); i += 2 {
		pairs = append(pairs, fault.FaultPair{First: faults[i], Second: faults[i+1]})
		pairFaults = append(pairFaults, pairs[len(pairs)-1].Faults()...)
		triples = append(triples, fault.FaultTriple{First: faults[i], Second: faults[i+1], Third: faults[i+2]})
		tripleFaults = append(tripleFaults, triples[len(triples)-1].Faults()...)
	}
	if got, want := digestSeqs(pairs), reference(pairFaults); got != want {
		t.Errorf("digestSeqs(pairs) = %s, want %s", got, want)
	}
	if got, want := digestSeqs(triples), reference(tripleFaults); got != want {
		t.Errorf("digestSeqs(triples) = %s, want %s", got, want)
	}
	if got, want := digestSeqs([]fault.FaultPair(nil)), reference(); got != want {
		t.Errorf("digest of an empty list = %s, want %s", got, want)
	}
	// One buffer, one hash and one hex string per digest, however long
	// the list: no allocation per sequence.
	if allocs := testing.AllocsPerRun(5, func() { digestSeqs(pairs) }); allocs > 8 {
		t.Errorf("digestSeqs over %d pairs made %.0f allocations", len(pairs), allocs)
	}
}
