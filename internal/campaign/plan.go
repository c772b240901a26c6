// Planner: the first stage of the campaign engine's plan → execute →
// store architecture. A Plan is a content-addressed description of one
// campaign execution — everything that determines its results, digested
// into a key — so the Store can answer "has this exact work been done
// before?" across driver iterations, repeated experiment runs, and
// separate processes, and the Executor only simulates what the store
// cannot answer.
package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"github.com/r2r/reinforce/internal/fault"
)

// planSchema versions the key derivation, the store entry layout, and
// the simulation semantics behind the stored outcomes. Bump it whenever
// any of them changes shape or meaning — including emulator behavior
// changes (syscall ABI, fault hook semantics) that would make a
// replayed outcome differ from a fresh simulation: old cache entries
// become unreachable instead of wrong.
//
// History: 1 = initial plan/execute/store split; 2 = read/write counts
// above maxIOChunk clamp to a partial transfer (Linux MAX_RW_COUNT
// semantics) instead of returning -EFAULT, changing outcomes of faults
// that corrupt a length register; 3 = the pair and triple stages share
// one entry layout (sequence-list digest plus one outcome column) in
// place of per-order fields; 4 = columnar entries (one outcome letter
// per injection for every order, order-1 evidence as step, budget-cut,
// and interned page-set columns) in place of per-fault JSON records;
// 5 = the fault-list digests hash a binary encoding of each fault (one
// byte per small field, a varint per wide one; see appendFault) in
// place of its decimal text; 6 = order-1 entries carry only the
// outcome column, like multi-fault entries (the step, budget-cut and
// page-set evidence columns are gone).
const planSchema = 6

// Plan is a content-addressed campaign execution: the campaign itself
// plus the execution parameters that change its results (shard, fault
// order, pair budget — but not worker count or Options.Prune, which
// the engine guarantees are result-invariant: pruned and exhaustive
// executions of one plan share one key and one store entry, enforced
// by the differential harness in prunediff_test.go).
type Plan struct {
	Campaign fault.Campaign
	Shard    Shard
	Order    int // 1 = solo faults, 2 = + fault pairs, 3 = + fault triples
	MaxPairs int // enumeration budget of the plan's top order: pairs or triples (0 = the order's default)

	// Key is the hex SHA-256 content address of everything above.
	Key string
}

// NewPlan builds the plan for one campaign execution, digesting every
// result-determining input into the content address. The shard must be
// normalized (see Shard.normalize) before planning so equivalent
// zero-value spellings map to one key.
func NewPlan(c fault.Campaign, shard Shard, order, maxPairs int) Plan {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("schema %d\n", planSchema)
	put("binary %s\n", c.Binary.Digest())
	put("good %d:", len(c.Good))
	h.Write(c.Good)
	put("\nbad %d:", len(c.Bad))
	h.Write(c.Bad)
	put("\nmodels")
	for _, m := range c.Models {
		put(" %d", m)
	}
	put("\nsteplimit %d injlimit %d dedup %t transient %t maxfaults %d\n",
		c.StepLimit, c.InjectionStepLimit, c.DedupSites, c.Transient, c.MaxFaults)
	put("shard %s order %d maxpairs %d\n", shard, order, maxPairs)
	return Plan{
		Campaign: c,
		Shard:    shard,
		Order:    order,
		MaxPairs: maxPairs,
		Key:      hex.EncodeToString(h.Sum(nil)),
	}
}

// digestFaults content-addresses an enumerated fault list. Store
// entries record it so a cached outcome vector is never zipped against
// a fault list it was not computed from (a second line of defense
// behind the plan key, guarding schema drift in enumeration itself).
func digestFaults(faults []fault.Fault) string {
	d := newFaultDigest()
	for i := range faults {
		d.add(&faults[i])
	}
	return d.sum()
}

// digestSeqs content-addresses an enumerated multi-fault sequence list:
// the digest of the concatenation of every sequence's faults. Each
// fault is encoded where it lies in the list, since copying the
// sequences out (Sequence.Seq) dominated the digest's cost.
func digestSeqs[T fault.Sequence](list []T) string {
	d := newFaultDigest()
	switch l := any(list).(type) {
	case []fault.FaultPair:
		for i := range l {
			d.add(&l[i].First)
			d.add(&l[i].Second)
		}
	case []fault.FaultTriple:
		for i := range l {
			d.add(&l[i].First)
			d.add(&l[i].Second)
			d.add(&l[i].Third)
		}
	}
	return d.sum()
}

// digestChunk is how many encoded bytes a faultDigest buffers before
// handing them to the hash; one encoded fault is at most maxFaultEnc
// (45) bytes, so the buffer never regrows.
const (
	digestChunk = 4096
	maxFaultEnc = 5 + 4*binary.MaxVarintLen64
)

// faultDigest hashes a stream of faults through one reused buffer, so
// digesting a list costs no allocation per fault.
type faultDigest struct {
	h   hash.Hash
	buf []byte
}

func newFaultDigest() *faultDigest {
	return &faultDigest{h: sha256.New(), buf: make([]byte, 0, digestChunk+maxFaultEnc)}
}

func (d *faultDigest) add(f *fault.Fault) {
	d.buf = appendFault(d.buf, f)
	if len(d.buf) >= digestChunk {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *faultDigest) sum() string {
	d.h.Write(d.buf)
	return hex.EncodeToString(d.h.Sum(nil))
}

// appendFault encodes every identity field of a fault: Model, Op,
// Cond, Reg and Transient as one byte each, then TraceIndex, Addr, Bit
// and Window as varints. Every field's length follows from its own
// bytes, so the encoding is prefix-free and the concatenated list a
// digest hashes names exactly one fault list. A field added to Fault
// without extending this list fails TestFaultEncoding; a change to the
// bytes needs a planSchema bump.
func appendFault(b []byte, f *fault.Fault) []byte {
	var transient byte
	if f.Transient {
		transient = 1
	}
	b = append(b, byte(f.Model), byte(f.Op), byte(f.Cond), byte(f.Reg), transient)
	b = binary.AppendVarint(b, int64(f.TraceIndex))
	b = binary.AppendUvarint(b, f.Addr)
	b = binary.AppendVarint(b, int64(f.Bit))
	return binary.AppendVarint(b, int64(f.Window))
}
