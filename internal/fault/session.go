package fault

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/decode"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/trace"
)

// Checkpoint policy: the reference run is snapshotted every
// checkpointInterval steps so injections replay at most one interval of
// prefix instead of the whole trace. When a long run would exceed
// maxCheckpoints, every other checkpoint is dropped and the interval
// doubles, bounding memory at O(maxCheckpoints) page tables. The
// interval thus stays at or below 512 steps until the trace passes
// 131,072 steps — beyond the catalog traces (19 to 405 steps) and their
// hardened builds (under 50k) — so the chain needs no on-demand
// densification.
const (
	checkpointInterval = 64
	maxCheckpoints     = 256
)

// Session is the reusable execution state of a fault campaign against
// one binary: the memoized golden (fault-free) runs and their oracles,
// a chain of copy-on-write machine snapshots along the reference trace,
// the binary's whole-image micro-op program, and the deterministically
// enumerated fault list.
//
// Building the session performs all per-binary work exactly once; each
// of the (often tens of thousands of) injections then forks the nearest
// snapshot instead of re-initializing memory and registers and
// re-executing the whole prefix from _start. The injections share
// their tails as well: a faulted run that reaches the complete state
// another run of the session already finished from, at the same step,
// stops there and inherits that run's outcome (the continuation memo,
// memo.go). Sessions are safe for concurrent Simulate/ExecuteShard
// calls once constructed.
type Session struct {
	c      Campaign
	good   Observable
	bad    Observable
	trace  *trace.Trace
	faults []Fault

	// ckpts is the session's one snapshot chain along the reference
	// trajectory, ascending by step (ckpts[0] is the entry state).
	// Immutable after NewSession, so checkpointFor reads it lock-free.
	ckpts []*emu.Snapshot

	// prog is the binary's whole-image code artifact (emu.TranslateImage)
	// — its load-time instructions and their micro-op translation —
	// seeded into the entry snapshot before the golden runs. Every
	// snapshot taken of a machine resumed from it, the checkpoints and
	// the multi-fault tree's mid-run ones, keeps it while its code
	// changed only at recorded ranges, so resumed machines neither
	// decode nor translate what the golden path or a faulted detour
	// runs through. Nil when the executable span exceeds 1 MiB.
	prog *emu.Program

	// probes caches the fetchable instruction bytes at each traced
	// address, for the bit-flip decode pre-screen (see Simulate). Nil
	// when the pre-screen is disabled (self-modifying reference run).
	probes map[uint64]probe

	// pristine records that the reference run left code unmutated
	// (code generation zero), so the load-time instructions in prog are
	// what it executed, which the transparent-first-fault screen
	// (inert.go) reads skip windows from.
	pristine bool

	// sched, when set via SetPool, is the shared WorkerPool every
	// shard/pair/triple stage runs on instead of a private pool of its
	// own worker count — how corpus cells share one worker budget.
	sched *WorkerPool

	// memo is the continuation memo (memo.go) shared by every faulted
	// run the session finishes: runs that reach an equal state at the
	// same step inherit the first finished run's outcome.
	memo *tailMemo
}

// probe is the byte window the emulator would fetch at an address.
type probe struct {
	buf [decode.MaxInstLen]byte
	n   int
}

// NewSession captures the oracles and reference trace, snapshots the
// execution at regular intervals, and enumerates every fault of the
// campaign. It fails like Run does: ErrBadRun when a golden run
// crashes, ErrOracle when the two inputs are indistinguishable.
func NewSession(c Campaign) (*Session, error) {
	if c.StepLimit == 0 {
		c.StepLimit = emu.DefaultStepLimit
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Models) == 0 {
		c.Models = []Model{ModelSkip, ModelBitFlip}
	}

	// Pristine entry-state snapshot: sections loaded, stack mapped, RIP
	// at entry, seeded with the whole-image program. Both golden runs
	// and checkpoint 0 fork from it, and every checkpoint inherits the
	// program, so injections skip decoding and translating.
	base := emu.New(c.Binary, emu.Config{Stdin: c.Bad, StepLimit: c.StepLimit}).Snapshot()
	prog := emu.TranslateImage(base)
	base.SeedProgram(prog)

	// Resume only overrides stdin when non-nil, and the snapshot carries
	// the bad input — so a nil good input must be pinned to empty here
	// or the good run would silently consume the bad bytes.
	goodIn := c.Good
	if goodIn == nil {
		goodIn = []byte{}
	}
	gm := base.Resume(emu.Config{Stdin: goodIn, StepLimit: c.StepLimit, SingleStep: c.SingleStep})
	goodRes, goodErr := gm.Run()
	if goodErr != nil {
		return nil, fmt.Errorf("%w: good input: %v", ErrBadRun, goodErr)
	}

	s := &Session{c: c, ckpts: []*emu.Snapshot{base}, prog: prog}
	rm := base.Resume(emu.Config{StepLimit: c.StepLimit, RecordTrace: true})
	badRes, badErr := s.runReference(rm)
	if badErr != nil {
		return nil, fmt.Errorf("%w: bad input: %v", ErrBadRun, badErr)
	}

	s.trace = &trace.Trace{Entries: rm.Trace, Result: badRes}
	s.good = observe(goodRes)
	s.bad = observe(badRes)
	if s.good == s.bad {
		return nil, ErrOracle
	}

	ref := max(goodRes.Steps, badRes.Steps)
	if s.c.InjectionStepLimit == 0 {
		s.c.InjectionStepLimit = 8*ref + 4096
	}
	s.memo = newTailMemo(ref)

	faults, err := enumerate(s.c, s.trace, s.prog, base)
	if err != nil {
		return nil, err
	}
	s.faults = faults
	if s.c.MaxFaults > 0 && len(s.faults) > s.c.MaxFaults {
		s.faults = s.faults[:s.c.MaxFaults]
	}

	// The transparent-first-fault screen decodes skip windows against
	// load-time bytes, so it shares the generation-zero precondition
	// with the decode pre-screen below.
	s.pristine = rm.Mem.CodeGeneration() == 0

	// Bit-flip decode pre-screen: when the reference run never mutated
	// code (generation still zero), the bytes fetched at any traced
	// address are the load-time bytes, so whether a given flip still
	// decodes can be answered once per (address, bit) with a single
	// decode instead of a full simulation. Only valid while code is
	// pristine; a self-modifying reference run disables it.
	if s.pristine {
		needsProbe := false
		for _, f := range s.faults {
			if f.Model == ModelBitFlip {
				needsProbe = true
				break
			}
		}
		if needsProbe {
			pm := base.Resume(emu.Config{})
			s.probes = make(map[uint64]probe, len(s.trace.Entries))
			for _, e := range s.trace.Entries {
				if _, ok := s.probes[e.Addr]; ok {
					continue
				}
				var p probe
				n, err := pm.Mem.Fetch(e.Addr, p.buf[:])
				if err != nil {
					s.probes = nil // be conservative: simulate everything
					break
				}
				p.n = n
				s.probes[e.Addr] = p
			}
		}
	}
	return s, nil
}

// runReference executes the bad-input reference run, snapshotting the
// machine every checkpointInterval steps (with geometric thinning once
// maxCheckpoints is reached).
func (s *Session) runReference(m *emu.Machine) (emu.Result, error) {
	interval := uint64(checkpointInterval)
	next := interval
	var err error
	for !m.Exited {
		if m.Steps >= m.StepLimit {
			err = emu.ErrStepLimit
			break
		}
		if m.Steps == next {
			s.ckpts = append(s.ckpts, m.Snapshot())
			if len(s.ckpts) > maxCheckpoints {
				kept := s.ckpts[:0]
				for i := 0; i < len(s.ckpts); i += 2 {
					kept = append(kept, s.ckpts[i])
				}
				s.ckpts = kept
				interval *= 2
			}
			next = m.Steps + interval
		}
		if err = m.Step(); err != nil {
			break
		}
	}
	return emu.Result{
		Exited:   m.Exited,
		ExitCode: m.ExitCode,
		Steps:    m.Steps,
		Stdout:   m.Stdout,
		Stderr:   m.Stderr,
	}, err
}

// Faults returns the enumerated fault list in campaign order. Callers
// must not mutate it.
func (s *Session) Faults() []Fault { return s.faults }

// NumFaults returns the campaign's total injection count.
func (s *Session) NumFaults() int { return len(s.faults) }

// Oracles returns the observable behaviour of the good and bad golden
// runs.
func (s *Session) Oracles() (good, bad Observable) { return s.good, s.bad }

// Report assembles a campaign report around a set of injections (as
// produced by ExecuteShard, or merged from several shards).
func (s *Session) Report(injections []Injection) *Report {
	return &Report{
		Trace:      s.trace,
		GoodOracle: s.good,
		BadOracle:  s.bad,
		Injections: injections,
	}
}

// checkpointFor returns the latest checkpoint taken at or before step,
// the snapshot every resume of the reference trajectory starts from.
// The step is capped at the injection budget so a resumed machine can
// never start beyond its own StepLimit (which would change how
// budget-cut runs report their step counts).
func (s *Session) checkpointFor(step uint64) *emu.Snapshot {
	if lim := s.c.InjectionStepLimit; lim > 0 && step > lim-1 {
		step = lim - 1
	}
	i := sort.Search(len(s.ckpts), func(i int) bool {
		return s.ckpts[i].Steps() > step
	})
	return s.ckpts[i-1]
}

// config builds the emulator configuration of one faulted run: the
// injection step budget, the campaign's execution mode, and the hooks
// of every given fault (none for a reference run), each asked of its
// registered spec. The hooks chain (Config.AddFetchHookWindow/
// AddStepHookWindow), so the config's hook window spans every fault's,
// and key any step-indexed behaviour off the machine's absolute step
// counter, so composed faults stay independent — a later one fires at
// its step even when an earlier one sent execution down a different
// path — and behave identically whether the run starts from _start or
// resumes from a mid-trace snapshot (the contract
// TestSnapshotPathMatchesColdPath enforces).
func (s *Session) config(faults ...Fault) emu.Config {
	cfg := emu.Config{StepLimit: s.c.InjectionStepLimit, SingleStep: s.c.SingleStep}
	for _, f := range faults {
		if spec := SpecOf(f.Model); spec != nil {
			spec.Hooks(f, &cfg)
		}
	}
	return cfg
}

// Simulate runs one injection and classifies its outcome. Safe for
// concurrent use.
//
// Bit flips that corrupt the instruction encoding beyond decodability
// are classified as crashes without simulation: the reference run
// proves execution reaches the fault site, the flipped fetch then
// fails to decode, and a decode failure is a crash regardless of any
// output produced earlier (and a too-small InjectionStepLimit that
// would stop the run before the fault site is also a crash). Everything
// else resumes the nearest copy-on-write snapshot.
func (s *Session) Simulate(f Fault) Outcome {
	if s.decodePreScreen(f) {
		return OutcomeCrash
	}
	return s.SimulateSeq(f)
}

// decodePreScreen reports whether the bit flip f corrupts its
// instruction encoding beyond decodability — the static classification
// Simulate's doc comment describes. Only bit-flip faults with a valid
// probe window answer true; everything else (including campaigns whose
// reference run self-modified code, where probes is nil) must simulate.
func (s *Session) decodePreScreen(f Fault) bool {
	if f.Model != ModelBitFlip || s.probes == nil {
		return false
	}
	p, ok := s.probes[f.Addr]
	if !ok || f.Bit/8 >= p.n {
		return false
	}
	p.buf[f.Bit/8] ^= 1 << (f.Bit % 8)
	_, err := decode.Decode(p.buf[:p.n], f.Addr)
	return err != nil
}

// SimulateSeq is the one per-sequence simulation core: it runs the
// given faults (one, or a multi-fault sequence) composed onto one run
// from the copy-on-write snapshot nearest the earliest, and classifies
// the outcome through the continuation memo (see finish). No static
// screen applies — Simulate and Pruner add theirs for solo faults; the
// bit-flip decode pre-screen in particular relies on the reference run
// reaching the fault site, which another fault of a sequence may
// prevent. Safe for concurrent use.
func (s *Session) SimulateSeq(faults ...Fault) Outcome {
	first := faults[0].TraceIndex
	for _, f := range faults[1:] {
		first = min(first, f.TraceIndex)
	}
	return s.finish(s.checkpointFor(uint64(first)).Resume(s.config(faults...)))
}

// InjectionLimit returns the per-injection step budget the session runs
// faulted machines under (the campaign's InjectionStepLimit after the
// automatic default was resolved). Campaign caches must compare it
// before reusing an outcome: the same run under a smaller budget can
// flip from exit to step-limit crash.
func (s *Session) InjectionLimit() uint64 { return s.c.InjectionStepLimit }

// SimulateCold runs one injection of the given faults (one, or a
// multi-fault sequence) from a freshly initialized machine, replaying
// the whole prefix — the reference semantics every snapshot path must
// match bit for bit. Tests cross-validate the paths; the engine never
// uses it.
func (s *Session) SimulateCold(faults ...Fault) Outcome {
	cfg := s.config(faults...)
	cfg.Stdin = s.c.Bad
	m := emu.New(s.c.Binary, cfg)
	res, err := m.Run()
	o := classify(res, err, s.good)
	m.Release()
	return o
}

// Tally counts injection outcomes, indexed by Outcome.
type Tally [4]int

// Count returns the number of injections with the given outcome.
func (t Tally) Count(o Outcome) int { return t[o] }

// Total returns the number of injections tallied.
func (t Tally) Total() int {
	n := 0
	for _, v := range t {
		n += v
	}
	return n
}

// Add accumulates another tally.
func (t *Tally) Add(u Tally) {
	for i, v := range u {
		t[i] += v
	}
}

// ExecuteShard simulates the faults of shard shardIndex (of shardCount
// round-robin shards: fault j belongs to shard j mod shardCount) on a
// worker pool; results land at fixed slice positions, so the returned
// injections are bit-identical regardless of worker count.
//
// progress, when non-nil, is invoked after every completed injection
// with the shard-local completion count; it may be called from multiple
// goroutines concurrently.
func (s *Session) ExecuteShard(shardIndex, shardCount, workers int, progress func(done, total int)) ([]Injection, Tally) {
	return s.ExecuteShardSim(shardIndex, shardCount, workers, s.Simulate, progress)
}

// ExecuteShardSim is ExecuteShard with a caller-supplied simulation
// function — the seam the campaign executor plugs the counting Pruner
// into while keeping the engine's scheduling, sharding, and
// bit-identity guarantees. sim must be safe for concurrent use and
// deterministic, like Simulate.
func (s *Session) ExecuteShardSim(shardIndex, shardCount, workers int, sim func(Fault) Outcome, progress func(done, total int)) ([]Injection, Tally) {
	sel, outcomes, tally := runShard(s.faults, shardIndex, shardCount, s.executePool(workers), func(_ int, f Fault) Outcome { return sim(f) }, progress)
	out := make([]Injection, len(sel))
	for i, f := range sel {
		out[i] = Injection{Fault: f, Outcome: outcomes[i]}
	}
	return out, tally
}

// workerCount resolves a caller-supplied worker count against the
// campaign default.
func (s *Session) workerCount(workers int) int {
	if workers <= 0 {
		return s.c.Workers
	}
	return workers
}

// ShardSelect is the engine's one round-robin shard decomposition:
// item j belongs to shard j mod count. Every consumer — the execution
// core, the multi-fault tree, and the campaign store's outcome zips — goes
// through it, so the decomposition cannot drift between the execute
// and cache paths (stored outcome vectors are zipped back against this
// selection). Panics on an out-of-range index like a slice-bounds
// misuse; count <= 1 selects everything.
func ShardSelect[T any](items []T, index, count int) []T {
	if count <= 1 {
		index, count = 0, 1
	}
	if index < 0 || index >= count {
		// Out-of-range shards would silently drop faults; fail loudly.
		panic(fmt.Sprintf("fault: shard index %d outside [0,%d)", index, count))
	}
	if count == 1 {
		return items
	}
	var sel []T
	for j := index; j < len(items); j += count {
		sel = append(sel, items[j])
	}
	return sel
}

// runShard is the engine's shared execution core: it selects the
// round-robin shard of items and simulates it in dynamically sized
// chunks claimed from the pool (a private WorkerPool by default, the
// corpus's shared one when injected). Outcomes land at fixed positions
// and the tally is order-insensitive, so results are bit-identical
// regardless of worker count, chunking, or which batch held the slots.
// The order-1 fault sweep runs on it; the multi-fault tree
// (ExecuteSequences) shares its pool and chunking but groups its work
// units by first fault.
func runShard[T any](items []T, shardIndex, shardCount int, pool *WorkerPool, sim func(int, T) Outcome, progress func(done, total int)) ([]T, []Outcome, Tally) {
	sel := ShardSelect(items, shardIndex, shardCount)
	outcomes := make([]Outcome, len(sel))
	if len(sel) == 0 {
		return sel, outcomes, Tally{}
	}

	var done atomic.Int64
	var mu sync.Mutex
	var total Tally
	pool.Execute(len(sel), func(lo, hi int) {
		var local Tally
		for i := lo; i < hi; i++ {
			o := sim(i, sel[i])
			outcomes[i] = o
			local[o]++
			if progress != nil {
				progress(int(done.Add(1)), len(sel))
			}
		}
		mu.Lock()
		total.Add(local)
		mu.Unlock()
	})
	return sel, outcomes, total
}
