package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/asm"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
)

const miniPincheck = `
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
grant:
	mov rax, 1
	mov rdi, 1
	lea rsi, [rip+ok]
	mov rdx, 8
	syscall
	mov rax, 60
	mov rdi, 0
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

var (
	goodPin = []byte("1234ABCD")
	badPin  = []byte("00000000")
)

func buildMini(t *testing.T) *elf.Binary {
	t.Helper()
	bin, err := asm.Assemble(miniPincheck, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func miniCampaign(bin *elf.Binary, models ...fault.Model) fault.Campaign {
	return fault.Campaign{Binary: bin, Good: goodPin, Bad: badPin, Models: models}
}

// TestWorkerCountInvariance: the engine's cornerstone guarantee — the
// report is bit-identical for 1 worker and N workers, across both fault
// models.
func TestWorkerCountInvariance(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip, fault.ModelBitFlip)
	serial, err := Run(c, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(c, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Injections, parallel.Injections) {
		t.Fatal("1-worker and 8-worker reports differ")
	}
	if serial.GoodOracle != parallel.GoodOracle || serial.BadOracle != parallel.BadOracle {
		t.Fatal("oracles differ between runs")
	}
	// Outcome aggregates, not just raw slices.
	for _, o := range []fault.Outcome{fault.OutcomeSuccess, fault.OutcomeDetected,
		fault.OutcomeCrash, fault.OutcomeIgnored} {
		if serial.Count(o) != parallel.Count(o) {
			t.Errorf("%s: serial %d, parallel %d", o, serial.Count(o), parallel.Count(o))
		}
	}
}

// TestShardRecombination: shard i of n holds exactly the unsharded
// run's injections i, i+n, i+2n, ... (written out here, not taken from
// fault.ShardSelect), under the same oracles, with an engine tally that
// counts them.
func TestShardRecombination(t *testing.T) {
	bin := buildMini(t)
	c := miniCampaign(bin, fault.ModelSkip, fault.ModelBitFlip)
	full, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		res := RunAll([]Job{{Name: "shard", Campaign: c}}, Options{Shard: Shard{Index: i, Count: n}, Workers: 2})[0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		var want []fault.Injection
		var tally fault.Tally
		for j := i; j < len(full.Injections); j += n {
			want = append(want, full.Injections[j])
			tally[full.Injections[j].Outcome]++
		}
		if !reflect.DeepEqual(res.Report.Injections, want) {
			t.Fatalf("shard %d/%d: %d injections, want the unsharded run's %d at j = %d mod %d",
				i, n, len(res.Report.Injections), len(want), i, n)
		}
		if res.Report.GoodOracle != full.GoodOracle || res.Report.BadOracle != full.BadOracle {
			t.Fatalf("shard %d/%d: oracles differ from the unsharded run", i, n)
		}
		if res.Tally != tally {
			t.Fatalf("shard %d/%d: tally %v, its injections count %v", i, n, res.Tally, tally)
		}
	}
}

func TestShardValidation(t *testing.T) {
	bin := buildMini(t)
	if _, err := Run(miniCampaign(bin, fault.ModelSkip), Options{Shard: Shard{Index: 5, Count: 3}}); err == nil {
		t.Error("out-of-range shard index accepted")
	}
}

// TestRunAllBatch: the batch API runs every job, tallies match the
// reports, and progress keeps the Options.Progress contract — Done is
// non-decreasing per job and each job's last call has Done == Total.
// Racing workers may deliver counts out of order and progressFunc drops
// the stale ones, so a job sees between one call and one per injection.
func TestRunAllBatch(t *testing.T) {
	bin := buildMini(t)
	jobs := []Job{
		{Name: "skip", Campaign: miniCampaign(bin, fault.ModelSkip)},
		{Name: "bitflip", Campaign: miniCampaign(bin, fault.ModelBitFlip)},
	}
	calls := map[string]int{}
	last := map[string]Progress{}
	results := RunAll(jobs, Options{Progress: func(p Progress) {
		if p.Jobs != 2 {
			t.Errorf("progress Jobs = %d, want 2", p.Jobs)
		}
		if prev, ok := last[p.Job]; ok && p.Done < prev.Done {
			t.Errorf("%s: progress went back from %d to %d", p.Job, prev.Done, p.Done)
		}
		calls[p.Job]++
		last[p.Job] = p
	}})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		n := len(r.Report.Injections)
		if r.Tally.Total() != n {
			t.Errorf("%s: tally %d != injections %d", r.Name, r.Tally.Total(), n)
		}
		if c := calls[r.Name]; c < 1 || c > n {
			t.Errorf("%s: %d progress calls, want 1..%d", r.Name, c, n)
		}
		if p := last[r.Name]; p.Done != p.Total || p.Total != n {
			t.Errorf("%s: final progress = %+v, want Done == Total == %d", r.Name, p, n)
		}
	}
	if results[0].Report.Count(fault.OutcomeSuccess) == 0 {
		t.Error("skip campaign found no vulnerabilities in unprotected pincheck")
	}
}

// TestRunAllContinuesPastErrors: one bad job doesn't kill the batch.
func TestRunAllContinuesPastErrors(t *testing.T) {
	bin := buildMini(t)
	jobs := []Job{
		{Name: "broken", Campaign: fault.Campaign{Binary: bin, Good: goodPin, Bad: goodPin}},
		{Name: "ok", Campaign: miniCampaign(bin, fault.ModelSkip)},
	}
	results := RunAll(jobs, Options{})
	if results[0].Err == nil {
		t.Error("indistinguishable oracles not reported")
	}
	if results[1].Err != nil || results[1].Report == nil {
		t.Errorf("healthy job failed: %v", results[1].Err)
	}
}

// TestExportJSONAndCSV: the machine-readable exports round-trip and
// agree with the report.
func TestExportJSONAndCSV(t *testing.T) {
	c := cases.Pincheck()
	rep, err := Run(fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize("pincheck", rep)
	if sum.Injections != len(rep.Injections) || sum.Success != rep.Count(fault.OutcomeSuccess) {
		t.Errorf("summary counts wrong: %+v", sum)
	}
	if len(sum.Sites) != len(rep.VulnerableSites()) {
		t.Errorf("summary sites = %d, want %d", len(sum.Sites), len(rep.VulnerableSites()))
	}

	// A run under 1 ms still writes elapsed_ms: the document's shape
	// must not depend on the wall clock.
	sum.ElapsedMS = 0
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Summary{sum}); err != nil {
		t.Fatal(err)
	}
	var back []Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("exported JSON invalid: %v", err)
	}
	if len(back) != 1 || back[0].Injections != sum.Injections {
		t.Errorf("JSON round-trip mismatch: %+v", back)
	}
	var keys []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil || len(keys) != 1 || keys[0]["elapsed_ms"] == nil {
		t.Errorf("summary with zero ElapsedMS lacks elapsed_ms:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteCSV(&buf, []Summary{sum}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "name,") {
		t.Errorf("CSV shape wrong:\n%s", buf.String())
	}
}

// TestOrder2WorkerInvariance is the acceptance gate for multi-fault
// campaigns on the real pincheck case: order-2 results are bit-identical
// for 1 worker and N workers, across the paper's and the extended
// models.
func TestOrder2WorkerInvariance(t *testing.T) {
	c := cases.Pincheck()
	camp := fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models:     []fault.Model{fault.ModelSkip, fault.ModelRegFlip, fault.ModelMultiSkip, fault.ModelDataFlip},
		DedupSites: true,
	}
	serial, err := RunOrder2(camp, Options{Workers: 1, MaxPairs: 500})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunOrder2(camp, Options{Workers: 8, MaxPairs: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Solo.Injections, parallel.Solo.Injections) {
		t.Fatal("order-1 stage not worker-invariant")
	}
	if !reflect.DeepEqual(serial.Pairs, parallel.Pairs) {
		t.Fatal("order-2 pair stage not worker-invariant")
	}
	if serial.PairTally != parallel.PairTally {
		t.Fatalf("pair tallies differ: %v vs %v", serial.PairTally, parallel.PairTally)
	}
	if len(serial.Pairs) == 0 {
		t.Fatal("no pairs simulated")
	}
}

// TestSummarizePerModel: the per-model breakdown partitions the
// campaign exactly, and the typed model lists marshal as the canonical
// name strings (no hand-rolled stringification).
func TestSummarizePerModel(t *testing.T) {
	bin := buildMini(t)
	rep, err := Run(miniCampaign(bin, fault.ModelSkip, fault.ModelBitFlip, fault.ModelMultiSkip), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize("mini", rep)
	if len(sum.PerModel) != 3 {
		t.Fatalf("per-model rows = %d, want 3", len(sum.PerModel))
	}
	totals := map[string]int{}
	for _, b := range sum.PerModel {
		totals["injections"] += b.Injections
		totals["success"] += b.Success
		totals["detected"] += b.Detected
		totals["crash"] += b.Crash
		totals["ignored"] += b.Ignored
		view := rep.FilterModels(b.Model)
		if b.Injections != len(view.Injections) || b.Success != view.Count(fault.OutcomeSuccess) {
			t.Errorf("%s breakdown %+v disagrees with filtered report", b.Model, b)
		}
	}
	if totals["injections"] != sum.Injections || totals["success"] != sum.Success ||
		totals["detected"] != sum.Detected || totals["crash"] != sum.Crash ||
		totals["ignored"] != sum.Ignored {
		t.Errorf("per-model breakdown does not partition the campaign: %v vs %+v", totals, sum)
	}

	data, err := json.Marshal(sum.Models)
	if err != nil {
		t.Fatal(err)
	}
	want := `["instruction-skip","multi-instruction-skip","single-bit-flip"]`
	if string(data) != want {
		t.Errorf("models marshal to %s, want %s", data, want)
	}
}

// TestOrder2SummaryRoundTrip: order-2 summaries survive the JSON
// round trip with the pair stage intact.
func TestOrder2SummaryRoundTrip(t *testing.T) {
	bin := buildMini(t)
	rep, err := RunOrder2(miniCampaign(bin, fault.ModelSkip), Options{MaxPairs: 50})
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeOrder2("mini", rep)
	if sum.Order2 == nil || sum.Order2.Pairs != len(rep.Pairs) {
		t.Fatalf("order-2 stage missing from summary: %+v", sum.Order2)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []Summary{sum}); err != nil {
		t.Fatal(err)
	}
	var back []Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Order2 == nil || *back[0].Order2 != *sum.Order2 {
		t.Errorf("order-2 summary did not round-trip: %+v", back)
	}
	if !reflect.DeepEqual(back[0].Models, sum.Models) || !reflect.DeepEqual(back[0].PerModel, sum.PerModel) {
		t.Errorf("typed model fields did not round-trip: %+v", back[0])
	}
}

// TestEngineAgainstHardenedVariant: campaign results on a hardened
// binary stay deterministic too (regression guard for snapshot reuse
// interacting with injected fault handlers).
func TestEngineAgainstHardenedVariant(t *testing.T) {
	if testing.Short() {
		t.Skip("hardening pipeline is slow; covered by the full suite")
	}
	c := cases.Pincheck()
	bin := c.MustBuild()
	camp := fault.Campaign{Binary: bin, Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip}}
	a, err := Run(camp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(camp, Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Injections, b.Injections) {
		t.Fatal("hardened-variant campaign not worker-invariant")
	}
	if a.Count(fault.OutcomeDetected) != b.Count(fault.OutcomeDetected) {
		t.Fatal("detected counts differ")
	}
}
