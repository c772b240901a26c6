package fault

import (
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/isa"
)

func mustAssemble(t *testing.T, src string) *elf.Binary {
	t.Helper()
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func pairSession(t *testing.T, models ...Model) (*Session, []Injection, []FaultPair) {
	t.Helper()
	s, err := NewSession(Campaign{
		Binary: buildMini(t), Good: goodPin, Bad: badPin, Models: models,
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 0, nil)
	return s, solo, EnumeratePairs(solo, 0)
}

// referenceSweep simulates every sequence on its own — one SimulateSeq
// per sequence, no tree and no pruner: the reference the snapshot tree
// must match bit for bit.
func referenceSweep[T Sequence](s *Session, items []T) ([]Outcome, Tally) {
	out := make([]Outcome, len(items))
	var tally Tally
	for i, it := range items {
		out[i] = s.SimulateSeq(it.Faults()...)
		tally[out[i]]++
	}
	return out, tally
}

// treeSweep runs a pair shard through the tree on a fresh pruner.
func treeSweep(s *Session, solo []Injection, pairs []FaultPair, shardIndex, shardCount, workers int) ([]PairInjection, Tally) {
	return s.ExecutePairShardPruned(pairs, s.NewPairPruner(solo), shardIndex, shardCount, workers, nil)
}

// TestEnumeratePairsPruning: pairs draw both components from
// detected/ignored solo outcomes, order the second strictly after the
// first, and respect the budget cap.
func TestEnumeratePairsPruning(t *testing.T) {
	_, solo, pairs := pairSession(t, ModelSkip)
	if len(pairs) == 0 {
		t.Fatal("no pairs enumerated")
	}
	eligible := map[Fault]bool{}
	for _, inj := range solo {
		if inj.Outcome == OutcomeDetected || inj.Outcome == OutcomeIgnored {
			eligible[inj.Fault] = true
		}
	}
	for _, p := range pairs {
		if !eligible[p.First] || !eligible[p.Second] {
			t.Errorf("pair %v uses a non-eligible component", p)
		}
		if p.Second.TraceIndex <= p.First.TraceIndex {
			t.Errorf("pair %v: second fault not strictly later in the trace", p)
		}
	}
	// Deterministic: re-enumeration of the same sweep is identical.
	if again := EnumeratePairs(solo, 0); !reflect.DeepEqual(pairs, again) {
		t.Error("pair enumeration not deterministic")
	}
	// Budget cap.
	capped := EnumeratePairs(solo, 5)
	if len(capped) != 5 {
		t.Errorf("capped enumeration returned %d pairs, want 5", len(capped))
	}
	if !reflect.DeepEqual(capped, pairs[:5]) {
		t.Error("capped enumeration is not a prefix of the full list")
	}
}

// TestSimulatePairMatchesColdPath: the snapshot path must classify
// every pair exactly as a cold replay from _start, across model
// combinations (the hooks of both faults compose).
func TestSimulatePairMatchesColdPath(t *testing.T) {
	for _, models := range [][]Model{
		{ModelSkip}, {ModelBitFlip}, {ModelSkip, ModelRegFlip}, {ModelMultiSkip, ModelDataFlip},
	} {
		_, _, pairs := pairSession(t, models...)
		s, _, _ := pairSession(t, models...)
		if len(pairs) > 300 {
			pairs = pairs[:300] // bound the cross-validation cost
		}
		for _, p := range pairs {
			if warm, cold := s.SimulateSeq(p.Faults()...), s.SimulateCold(p.Faults()...); warm != cold {
				t.Errorf("%v %v: snapshot path %v, cold path %v", models, p, warm, cold)
			}
		}
	}
}

// TestExecutePairShardDeterminism: pair results are bit-identical
// across worker counts, and round-robin shards recombine to the
// unsharded run.
func TestExecutePairShardDeterminism(t *testing.T) {
	s, solo, pairs := pairSession(t, ModelSkip, ModelBitFlip)
	serial, serialTally := treeSweep(s, solo, pairs, 0, 1, 1)
	parallel, parallelTally := treeSweep(s, solo, pairs, 0, 1, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("1-worker and 8-worker pair sweeps differ")
	}
	if serialTally != parallelTally {
		t.Fatalf("tallies differ: %v vs %v", serialTally, parallelTally)
	}
	if serialTally.Total() != len(pairs) {
		t.Fatalf("tally covers %d of %d pairs", serialTally.Total(), len(pairs))
	}

	const n = 3
	var shards [n][]PairInjection
	for i := 0; i < n; i++ {
		shards[i], _ = treeSweep(s, solo, pairs, i, n, 2)
	}
	var merged []PairInjection
	cursor := [n]int{}
	for j := 0; j < len(serial); j++ {
		w := j % n
		merged = append(merged, shards[w][cursor[w]])
		cursor[w]++
	}
	if !reflect.DeepEqual(merged, serial) {
		t.Error("recombined pair shards differ from the unsharded run")
	}
}

// TestPairDefeatsSingleFaultDetection: the motivating scenario — a
// program whose lone skip vulnerability is guarded by a redundant
// check falls only to the *pair* that skips both the branch and its
// re-check (Boespflug et al.).
func TestPairDefeatsSingleFaultDetection(t *testing.T) {
	// Double-checked pincheck: the grant path re-validates the pin; a
	// single skip of either branch is caught by the other (denied or
	// detected), but skipping both grants.
	src := `
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
	cmp rax, rbx
	jne handler
grant:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+ok]
	mov rdx, 8
	syscall
	mov rax, 60
	mov rdi, 0
	syscall
handler:
	mov rax, 60
	mov rdi, 42
	syscall
deny:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+no]
	mov rdx, 7
	syscall
	mov rax, 60
	mov rdi, 1
	syscall
.rodata
pin: .ascii "1234ABCD"
ok:  .ascii "GRANTED\n"
no:  .ascii "DENIED\n"
.bss
buf: .zero 8
`
	bin := mustAssemble(t, src)
	s, err := NewSession(Campaign{
		Binary: bin, Good: goodPin, Bad: badPin, Models: []Model{ModelSkip},
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, _ := s.ExecuteShard(0, 1, 0, nil)
	pairs := EnumeratePairs(solo, 0)
	injections, tally := treeSweep(s, solo, pairs, 0, 1, 0)
	if tally.Count(OutcomeSuccess) == 0 {
		t.Fatal("no successful fault pair against the double-checked pincheck")
	}
	// The winning attack starts by skipping the first jne; the second
	// skip then lands on the re-check in the *diverged* run (fault
	// metadata records the reference trace, so only First's op is
	// meaningful here). No single skip may grant on its own.
	firstIsBranch := false
	for _, pi := range injections {
		if pi.Outcome == OutcomeSuccess && pi.Pair.First.Op == isa.JCC {
			firstIsBranch = true
		}
	}
	if !firstIsBranch {
		t.Error("no successful pair starts by skipping the conditional branch")
	}
	for _, inj := range solo {
		if inj.Outcome == OutcomeSuccess {
			t.Errorf("single fault %v already grants — program not double-checked", inj.Fault)
		}
	}
}
