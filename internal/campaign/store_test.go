package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
)

// newTestStore builds a store over dir (in-memory for "").
func newTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runOne runs one order-1 campaign as a batch of one, for the cache
// accounting Run does not return.
func runOne(t *testing.T, c fault.Campaign, opt Options) Result {
	t.Helper()
	res := RunAll([]Job{{Campaign: c}}, opt)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

// TestCachedRunBitIdentity: a campaign run through the store — cold
// (populating) and warm (answered from it) — must be bit-identical to
// an uncached run. This is the store's core guarantee, alongside the
// worker/shard determinism tests.
func TestCachedRunBitIdentity(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip, fault.ModelBitFlip)
	plain, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, t.TempDir())
	cold := runOne(t, c, Options{Store: st})
	warm := runOne(t, c, Options{Store: st})
	if !reflect.DeepEqual(plain.Injections, cold.Report.Injections) {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !reflect.DeepEqual(plain.Injections, warm.Report.Injections) {
		t.Fatal("warm cached run differs from uncached run")
	}
	if cold.Cache.Hits != 0 || cold.Cache.Misses != 1 {
		t.Errorf("cold stats = %+v, want 1 miss", cold.Cache)
	}
	if warm.Cache.Hits != 1 || warm.Cache.Misses != 0 {
		t.Errorf("warm stats = %+v, want 1 hit", warm.Cache)
	}
	if warm.Report.GoodOracle != plain.GoodOracle || warm.Report.BadOracle != plain.BadOracle {
		t.Error("oracles drifted through the cache")
	}
}

// TestCachedRunAcrossStores: a second store over the same directory (a
// separate process, in effect) must answer the campaign from disk.
func TestCachedRunAcrossStores(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	dir := t.TempDir()
	first := runOne(t, c, Options{Store: newTestStore(t, dir)})
	second := newTestStore(t, dir)
	warm := runOne(t, c, Options{Store: second})
	if warm.Cache.Hits != 1 {
		t.Fatalf("fresh store over a warm dir missed: %+v", warm.Cache)
	}
	if !reflect.DeepEqual(first.Report.Injections, warm.Report.Injections) {
		t.Fatal("disk round-trip changed the report")
	}
}

// TestCachedOrder2BitIdentity: order-2 campaigns reuse through the
// store too, bit-identically, and the warm run answers both stages
// (solo entry + pair entry) without simulating.
func TestCachedOrder2BitIdentity(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	opt := Options{MaxPairs: 256}
	plain, err := RunOrder2(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, t.TempDir())
	opt.Store = st
	cold, err := RunOrder2Result(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunOrder2Result(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Order2Report{"cold": cold.Report, "warm": warm.Report} {
		if !reflect.DeepEqual(plain.Solo.Injections, got.Solo.Injections) {
			t.Errorf("%s solo sweep differs from uncached", name)
		}
		if !reflect.DeepEqual(plain.Pairs, got.Pairs) {
			t.Errorf("%s pair sweep differs from uncached", name)
		}
		if got.PairTally != plain.PairTally {
			t.Errorf("%s pair tally %v, want %v", name, got.PairTally, plain.PairTally)
		}
	}
	if warm.Cache.Hits != 2 || warm.Cache.Misses != 0 || warm.Cache.Resimulated != 0 {
		t.Errorf("warm order-2 stats = %+v, want 2 hits and no simulation", warm.Cache)
	}
}

func assembleT(t *testing.T, src string) *elf.Binary {
	t.Helper()
	bin, err := asm.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestIncrementalInvalidatesLiveCode: a patch round's re-run of a
// binary whose executed code changed must not be answered by the
// entry of the binary before the patch — the binary digest in the plan
// key misses it — and must equal a cold run of the new binary.
func TestIncrementalInvalidatesLiveCode(t *testing.T) {
	binA := buildMini(t)
	// Same program with a different denial exit code: live .text change.
	src := strings.Replace(miniPincheck, "mov rdi, 1\n\tsyscall", "mov rdi, 3\n\tsyscall", 1)
	if src == miniPincheck {
		t.Fatal("source surgery failed")
	}
	binB := assembleT(t, src)

	st := newTestStore(t, "")
	runOne(t, miniCampaign(binA, fault.ModelSkip), Options{Store: st})
	cold, err := Run(miniCampaign(binB, fault.ModelSkip), Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := runOne(t, miniCampaign(binB, fault.ModelSkip), Options{Store: st})
	if !reflect.DeepEqual(cold.Injections, inc.Report.Injections) {
		t.Fatal("re-run differs from cold run after live-code change")
	}
	if inc.Cache.Hits != 0 || inc.Cache.Resimulated != len(cold.Injections) {
		t.Errorf("live-code change: %+v, want a miss simulating all %d faults", inc.Cache, len(cold.Injections))
	}
}

// TestParseShard covers the CLI shard syntax's edge cases.
func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"":      {},
		"0/1":   {Index: 0, Count: 1},
		"0/4":   {Index: 0, Count: 4},
		"3/4":   {Index: 3, Count: 4},
		" 1/2 ": {Index: 1, Count: 2},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", in, got, want)
		}
	}
	bad := []string{"1", "/", "1/", "/2", "a/b", "1/b", "a/2", "1/0", "2/2", "-1/2", "1/-2", "0/1/2", "1.5/2"}
	for _, in := range bad {
		if got, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) = %+v, want error", in, got)
		}
	}
}

// TestMergeErrorPaths: every rejection reason of Merge fires with a
// precise message — empty input, nil shard, mismatched campaigns,
// wrong round-robin decomposition.
func TestMergeErrorPaths(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	full, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*fault.Report, 2)
	for i := range shards {
		if shards[i], err = Run(c, Options{Shard: Shard{Index: i, Count: 2}}); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := Merge(nil); err == nil {
		t.Error("Merge(nil) succeeded")
	}
	if _, err := Merge([]*fault.Report{}); err == nil {
		t.Error("Merge(empty) succeeded")
	}
	if _, err := Merge([]*fault.Report{shards[0], nil}); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("Merge with nil shard: %v", err)
	}
	// A lone nil shard is rejected too, not returned as the merge.
	if _, err := Merge([]*fault.Report{nil}); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("Merge of a lone nil shard: %v", err)
	}
	// Mismatched campaigns: different oracles.
	other := *shards[1]
	other.GoodOracle.ExitCode++
	if _, err := Merge([]*fault.Report{shards[0], &other}); err == nil || !strings.Contains(err.Error(), "not the same campaign") {
		t.Errorf("Merge with foreign shard: %v", err)
	}
	// Mismatched fault sets: a truncated shard breaks the round-robin
	// size decomposition.
	trunc := *shards[1]
	trunc.Injections = trunc.Injections[:len(trunc.Injections)-1]
	if _, err := Merge([]*fault.Report{shards[0], &trunc}); err == nil ||
		!strings.Contains(err.Error(), "injections") {
		t.Errorf("Merge with truncated shard: %v", err)
	}
	// Sanity: the healthy path still recombines to the full run.
	merged, err := Merge([]*fault.Report{shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Injections, full.Injections) {
		t.Error("healthy merge no longer matches the unsharded run")
	}
}

// TestMergeOrder2ErrorPaths mirrors the error coverage for the order-2
// recombiner.
func TestMergeOrder2ErrorPaths(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip)
	opt := Options{MaxPairs: 128}
	full, err := RunOrder2(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Order2Report, 2)
	for i := range shards {
		o := opt
		o.Shard = Shard{Index: i, Count: 2}
		if shards[i], err = RunOrder2(c, o); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := MergeOrder2(nil); err == nil {
		t.Error("MergeOrder2(nil) succeeded")
	}
	if _, err := MergeOrder2([]*Order2Report{shards[0], nil}); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Errorf("MergeOrder2 with nil shard: %v", err)
	}
	// Mismatched solo sweeps (different fault sets).
	foreign := &Order2Report{Solo: &fault.Report{
		GoodOracle: shards[0].Solo.GoodOracle,
		BadOracle:  shards[0].Solo.BadOracle,
		Injections: shards[0].Solo.Injections[:1],
	}}
	if _, err := MergeOrder2([]*Order2Report{shards[0], foreign}); err == nil || !strings.Contains(err.Error(), "not the same campaign") {
		t.Errorf("MergeOrder2 with foreign solo sweep: %v", err)
	}
	// Truncated pair list: caught by the size decomposition or, when
	// the sizes still happen to add up, by the tally integrity check.
	trunc := *shards[1]
	trunc.Pairs = trunc.Pairs[:len(trunc.Pairs)-1]
	if _, err := MergeOrder2([]*Order2Report{shards[0], &trunc}); err == nil ||
		!strings.Contains(err.Error(), "pair") {
		t.Errorf("MergeOrder2 with truncated shard: %v", err)
	}
	merged, err := MergeOrder2([]*Order2Report{shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Pairs, full.Pairs) {
		t.Error("healthy order-2 merge no longer matches the unsharded run")
	}
}

// TestStoreEviction: the in-memory LRU honors its cap, evicts coldest
// first, and keeps serving evicted entries from disk.
func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStoreCapped(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(key string) *Entry {
		return &Entry{Key: key, FaultsDigest: "fd-" + key, Limit: 7,
			Outcomes: []fault.Outcome{fault.OutcomeIgnored}}
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := st.Save(entry(k)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.MemEntries(); got != 2 {
		t.Fatalf("resident entries = %d, want 2", got)
	}
	// "a" was evicted but must come back from disk, bit-identical.
	got, ok := st.Lookup("a")
	if !ok {
		t.Fatal("evicted entry lost (disk should be the source of truth)")
	}
	want := entry("a")
	want.Schema = planSchema
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round-trip of evicted entry drifted: %+v != %+v", got, want)
	}
	// The re-read displaced the coldest resident ("b"); "c" survived.
	if st.MemEntries() != 2 {
		t.Fatalf("resident entries = %d after re-read, want 2", st.MemEntries())
	}
	if _, ok := st.Lookup("c"); !ok {
		t.Fatal("recently used entry evicted out of order")
	}
}

// TestStoreEvictionLRUOrder: touching an entry via Lookup protects it
// from the next eviction.
func TestStoreEvictionLRUOrder(t *testing.T) {
	st, err := NewStoreCapped("", 2) // in-memory: eviction really discards
	if err != nil {
		t.Fatal(err)
	}
	save := func(key string) {
		if err := st.Save(&Entry{Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	save("a")
	save("b")
	st.Lookup("a") // a is now hotter than b
	save("c")      // evicts b
	if _, ok := st.Lookup("a"); !ok {
		t.Error("touched entry evicted")
	}
	if _, ok := st.Lookup("b"); ok {
		t.Error("coldest entry survived over the touched one")
	}
}

// TestCappedStoreReplaysBitIdentically: a campaign run against a store
// whose cap forces every entry out of memory still replays warm runs
// bit-identically — the reads just come from disk.
func TestCappedStoreReplaysBitIdentically(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip, fault.ModelBitFlip)
	dir := t.TempDir()
	tiny, err := NewStoreCapped(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := runOne(t, c, Options{Store: tiny})
	// Churn the store so the campaign's entry is evicted from memory.
	for i := 0; i < 4; i++ {
		if err := tiny.Save(&Entry{Key: fmt.Sprintf("churn-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	warm := runOne(t, c, Options{Store: tiny})
	if warm.Cache.Hits != 1 || warm.Cache.Misses != 0 {
		t.Fatalf("warm run against churned capped store: %+v, want a pure hit", warm.Cache)
	}
	for _, rep := range []*fault.Report{cold.Report, warm.Report} {
		if !reflect.DeepEqual(plain.Injections, rep.Injections) {
			t.Fatal("capped store run differs from the uncached run")
		}
	}
}

// TestNewStoreDefaults: disk-backed stores are capped by default;
// in-memory stores stay unbounded (their eviction would discard work).
func TestNewStoreDefaults(t *testing.T) {
	disk := newTestStore(t, t.TempDir())
	if disk.limit != DefaultMemEntries {
		t.Errorf("disk-backed default cap = %d, want %d", disk.limit, DefaultMemEntries)
	}
	mem := newTestStore(t, "")
	if mem.limit != 0 {
		t.Errorf("in-memory default cap = %d, want unbounded", mem.limit)
	}
}
