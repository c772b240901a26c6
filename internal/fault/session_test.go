package fault

import (
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
)

// TestSnapshotPathMatchesColdPath is the engine's ground truth: every
// injection simulated from a mid-trace copy-on-write snapshot must
// classify exactly as the same injection replayed from scratch — for
// every registered fault model.
func TestSnapshotPathMatchesColdPath(t *testing.T) {
	for _, models := range [][]Model{
		{ModelSkip}, {ModelBitFlip}, {ModelRegFlip}, {ModelMultiSkip}, {ModelDataFlip},
	} {
		s, err := NewSession(Campaign{
			Binary: buildMini(t),
			Good:   goodPin,
			Bad:    badPin,
			Models: models,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range s.Faults() {
			warm := s.Simulate(f)
			cold := s.SimulateCold(f)
			if warm != cold {
				t.Errorf("%v [%s]: snapshot path %v, cold path %v", f, f.Model, warm, cold)
			}
		}
	}
}

// TestSessionTransientBitflipMatchesCold covers the restore-after-one-
// fetch variant, whose second FlipBit lands mid-replay.
func TestSessionTransientBitflipMatchesCold(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary:    buildMini(t),
		Good:      goodPin,
		Bad:       badPin,
		Models:    []Model{ModelBitFlip},
		Transient: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Faults() {
		if warm, cold := s.Simulate(f), s.SimulateCold(f); warm != cold {
			t.Errorf("%v: snapshot path %v, cold path %v", f, warm, cold)
		}
	}
}

// TestNilGoodInputReadsEOF: a nil good input must behave as an empty
// stdin (reads return EOF), not silently inherit the snapshot's bad
// input.
func TestNilGoodInputReadsEOF(t *testing.T) {
	// Good oracle: EOF (short read) denies with exit 2; only the exact
	// pin is accepted. With nil Good the good run must take the
	// short-read path, keeping the oracles distinguishable.
	src := `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	cmp rax, 8
	jne short_read
	mov rax, 60
	mov rdi, 1
	syscall
short_read:
	mov rax, 60
	mov rdi, 2
	syscall
.bss
buf: .zero 8
`
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Campaign{
		Binary: bin,
		Good:   nil, // EOF oracle
		Bad:    badPin,
		Models: []Model{ModelSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	good, bad := s.Oracles()
	if good.ExitCode != 2 || bad.ExitCode != 1 {
		t.Errorf("oracles = good exit %d, bad exit %d; want 2 and 1 (nil good input leaked the bad bytes?)",
			good.ExitCode, bad.ExitCode)
	}
}

// TestExecuteShardRejectsBadIndex: an out-of-range shard must fail
// loudly, not silently drop faults.
func TestExecuteShardRejectsBadIndex(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin,
		Models: []Model{ModelSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{-1, 2}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExecuteShard(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			s.ExecuteShard(bad[0], bad[1], 1, nil)
		}()
	}
}

// TestExecuteShardCoversAllFaults: round-robin shards partition the
// fault list, and recombining them reproduces the unsharded order.
func TestExecuteShardCoversAllFaults(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t),
		Good:   goodPin,
		Bad:    badPin,
		Models: []Model{ModelSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, fullTally := s.ExecuteShard(0, 1, 2, nil)
	if fullTally.Total() != len(full) || len(full) != s.NumFaults() {
		t.Fatalf("full shard: %d injections, tally %d, faults %d",
			len(full), fullTally.Total(), s.NumFaults())
	}

	const n = 3
	var shards [n][]Injection
	for i := 0; i < n; i++ {
		shards[i], _ = s.ExecuteShard(i, n, 1, nil)
	}
	var merged []Injection
	cursor := [n]int{}
	for j := 0; j < len(full); j++ {
		w := j % n
		merged = append(merged, shards[w][cursor[w]])
		cursor[w]++
	}
	if !reflect.DeepEqual(merged, full) {
		t.Error("recombined shards differ from the unsharded run")
	}
}

// TestTallyMatchesReportCounts: the lock-free per-worker tallies must
// agree with recounting the report.
func TestTallyMatchesReportCounts(t *testing.T) {
	s, err := NewSession(Campaign{
		Binary: buildMini(t),
		Good:   goodPin,
		Bad:    badPin,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj, tally := s.ExecuteShard(0, 1, 4, nil)
	rep := s.Report(inj)
	for _, o := range []Outcome{OutcomeIgnored, OutcomeSuccess, OutcomeCrash, OutcomeDetected} {
		if tally.Count(o) != rep.Count(o) {
			t.Errorf("%s: tally %d, report %d", o, tally.Count(o), rep.Count(o))
		}
	}
}

// TestFilterModels: filtering a both-models report by one model equals
// running that model alone.
func TestFilterModels(t *testing.T) {
	bin := buildMini(t)
	both, err := Run(Campaign{Binary: bin, Good: goodPin, Bad: badPin,
		Models: []Model{ModelSkip, ModelBitFlip}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{ModelSkip, ModelBitFlip} {
		solo, err := Run(Campaign{Binary: bin, Good: goodPin, Bad: badPin, Models: []Model{m}})
		if err != nil {
			t.Fatal(err)
		}
		got := both.FilterModels(m)
		if !reflect.DeepEqual(got.Injections, solo.Injections) {
			t.Errorf("%s: filtered view differs from single-model campaign", m)
		}
	}
}

// longLoop folds a 12,000-iteration countdown into rbx (four steps per
// iteration), then checks the sum before comparing the input byte: a
// reference trace of about 48k steps, long enough that the checkpoint
// chain thins twice, with faults along it that are ignored, detected,
// crash, or succeed.
const longLoop = `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 1
	syscall
	xor rbx, rbx
	mov rcx, 12000
count:
	add rbx, rcx
	mov [rip+acc], rbx
	dec rcx
	jne count
	cmp rbx, 72006000
	jne tampered
	movzx rax, byte ptr [rip+buf]
	cmp rax, 'y'
	jne deny
	mov rax, 60
	mov rdi, 0
	syscall
deny:
	mov rax, 60
	mov rdi, 1
	syscall
tampered:
	mov rax, 60
	mov rdi, 42
	syscall
.bss
buf: .zero 1
acc: .zero 8
`

// TestCheckpointChainLongTrace: on a trace long enough to thin the
// checkpoint chain, the chain starts at the entry state, ascends, stays
// within maxCheckpoints and leaves no gap wider than its final
// interval; every resume from it — faults sampled along the whole
// trace, past the thinning points included — classifies like a cold
// run. Under an injection budget that ends mid-trace, checkpointFor
// caps late faults at the budget, so budget-cut runs report the cold
// run's step count.
func TestCheckpointChainLongTrace(t *testing.T) {
	bin, err := asm.Assemble(longLoop, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp := Campaign{
		Binary: bin, Good: []byte("y"), Bad: []byte("n"),
		Models:     []Model{ModelSkip, ModelBitFlip},
		DedupSites: true, // small fault list; the samples below span the trace
	}
	s, err := NewSession(camp)
	if err != nil {
		t.Fatal(err)
	}
	entries := s.trace.Entries
	if len(entries) < 40000 {
		t.Fatalf("reference trace has %d steps, want >= 40000", len(entries))
	}
	ck := s.ckpts
	if len(ck) > maxCheckpoints || ck[0].Steps() != 0 {
		t.Fatalf("%d checkpoints starting at step %d, want <= %d starting at 0", len(ck), ck[0].Steps(), maxCheckpoints)
	}
	final := ck[len(ck)-1].Steps() - ck[len(ck)-2].Steps()
	if final <= checkpointInterval {
		t.Fatalf("final interval %d: the chain never thinned", final)
	}
	for i := 1; i < len(ck); i++ {
		if gap := ck[i].Steps() - ck[i-1].Steps(); gap == 0 || gap > final {
			t.Fatalf("checkpoints %d..%d: gap %d (final interval %d)", i-1, i, gap, final)
		}
	}
	if tail := uint64(len(entries)) - ck[len(ck)-1].Steps(); tail > final {
		t.Fatalf("trace ends %d steps past the last checkpoint (final interval %d)", tail, final)
	}

	// Evenly spaced samples plus the steps around the two thinning
	// points and the trace end, each faulted by a skip and a bit flip.
	var at []int
	for i := 0; i < len(entries); i += len(entries) / 24 {
		at = append(at, i)
	}
	for _, i := range []int{16383, 16384, 16385, 32767, 32768, 32769, len(entries) - 2, len(entries) - 1} {
		at = append(at, i)
	}
	var faults []Fault
	for _, i := range at {
		e := entries[i]
		faults = append(faults,
			Fault{Model: ModelSkip, TraceIndex: i, Addr: e.Addr, Op: e.Op, Cond: e.Cond},
			Fault{Model: ModelBitFlip, TraceIndex: i, Addr: e.Addr, Op: e.Op, Cond: e.Cond, Bit: (7 * i) % (e.Len * 8)})
	}
	seen := map[Outcome]bool{}
	for _, f := range faults {
		warm, cold := s.Simulate(f), s.SimulateCold(f)
		if warm != cold {
			t.Errorf("%v: snapshot path %v, cold path %v", f, warm, cold)
		}
		seen[warm] = true
	}
	if len(seen) < 3 {
		t.Errorf("samples reached only outcomes %v", seen)
	}

	// A budget that ends mid-trace, past the first thinning point.
	camp.InjectionStepLimit = 30001
	s, err = NewSession(camp)
	if err != nil {
		t.Fatal(err)
	}
	late := s.checkpointFor(uint64(len(entries) - 1))
	if late.Steps() == 0 || late.Steps() > camp.InjectionStepLimit-1 || late != s.checkpointFor(camp.InjectionStepLimit-1) {
		t.Fatalf("late fault resumes at step %d under budget %d", late.Steps(), camp.InjectionStepLimit)
	}
	for _, f := range faults {
		if warm, cold := s.Simulate(f), s.SimulateCold(f); warm != cold {
			t.Errorf("%v under budget %d: snapshot path %v, cold path %v", f, camp.InjectionStepLimit, warm, cold)
		}
	}
}

// selfModPin is miniPincheck with a writable .text whose deny path
// rewrites code it runs later: it stores 7 into the immediate of the
// exit-code mov at `code`, spins long enough for checkpoints to land
// after the store, then prints DENIED and exits through the rewritten
// mov. The good path never writes code.
const selfModPin = `
.text
_start:
	mov rax, 0
	mov rdi, 0
	lea rsi, [rip+buf]
	mov rdx, 8
	syscall
	mov rax, [rip+buf]
	mov rbx, [rip+pin]
	cmp rax, rbx
	jne deny
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+ok]
	mov rdx, 8
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
deny:
	lea rcx, [rip+code]
	mov byte ptr [rcx+3], 7
	mov rdx, 24
spin:
	add rbx, rdx
	dec rdx
	jne spin
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+no]
	mov rdx, 7
	syscall
code:
	mov rdi, 1
	mov rax, 60
	syscall
.rodata
pin: .ascii "1234ABCD"
ok:  .ascii "GRANTED\n"
no:  .ascii "DENIED\n"
.bss
buf: .zero 8
`

// TestSessionSelfModifyingReference: a reference run that rewrites its
// own code leaves checkpoints at a nonzero code generation, which the
// entry snapshot's whole-image program serves through the edit
// overlay, with the decode pre-screen and the transparent-first-fault
// screen off. Every fault of every model must classify like a cold
// replay, on the fast path and single-stepped, and so must every pair
// of a capped sweep through the pruned snapshot tree.
func TestSessionSelfModifyingReference(t *testing.T) {
	bin := mustAssemble(t, selfModPin)
	bin.Text().Flags |= elf.FlagWrite
	all := []Model{ModelSkip, ModelBitFlip, ModelRegFlip, ModelMultiSkip, ModelDataFlip}
	for _, single := range []bool{false, true} {
		s, err := NewSession(Campaign{
			Binary: bin, Good: goodPin, Bad: badPin,
			Models: all, SingleStep: single,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, bad := s.Oracles(); bad.ExitCode != 7 {
			t.Fatalf("bad run exits %d, want 7 (rewritten immediate not executed)", bad.ExitCode)
		}
		if s.pristine || s.probes != nil || s.prog == nil {
			t.Fatalf("pristine %v, probes %v, program %v; want a mutated reference served by the image program",
				s.pristine, s.probes != nil, s.prog != nil)
		}
		late := s.ckpts[len(s.ckpts)-1]
		if len(s.ckpts) < 2 || late.Resume(emu.Config{}).Mem.CodeGeneration() == 0 {
			t.Fatalf("%d checkpoints; want some after the code store", len(s.ckpts))
		}
		seen := map[Model]int{}
		for _, f := range s.Faults() {
			seen[f.Model]++
			if warm, cold := s.Simulate(f), s.SimulateCold(f); warm != cold {
				t.Errorf("single-step %v: %v [%s]: snapshot path %v, cold path %v", single, f, f.Model, warm, cold)
			}
		}
		for _, m := range all {
			if seen[m] == 0 {
				t.Errorf("no %s faults enumerated", m)
			}
		}

		solo, _ := s.ExecuteShard(0, 1, 2, nil)
		pairs := EnumeratePairs(solo, 1000)
		if len(pairs) == 0 {
			t.Fatal("no pairs enumerated")
		}
		got, _ := treeSweep(s, solo, pairs, 0, 1, 2)
		for _, p := range got {
			if cold := s.SimulateCold(p.Pair.First, p.Pair.Second); p.Outcome != cold {
				t.Errorf("single-step %v: pair %v: tree %v, cold path %v", single, p.Pair, p.Outcome, cold)
			}
		}
	}
}
