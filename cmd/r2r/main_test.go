package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/r2r/reinforce"
	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/cases"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeCase builds a case study into a temp dir and returns the binary
// path plus its oracle inputs.
func writeCase(t *testing.T, c *cases.Case) (path string, good, bad string) {
	t.Helper()
	bin := c.MustBuild()
	img, err := bin.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), c.Name+".elf")
	if err := os.WriteFile(path, img, 0o755); err != nil {
		t.Fatal(err)
	}
	return path, string(c.Good), string(c.Bad)
}

// normalizeJSON zeroes the wall-clock fields so golden comparisons are
// deterministic, drops every field named in drop at any depth, and
// re-indents canonically.
func normalizeJSON(t *testing.T, data []byte, drop ...string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	var scrub func(any)
	scrub = func(n any) {
		switch x := n.(type) {
		case map[string]any:
			delete(x, "elapsed_ms")
			for _, k := range drop {
				delete(x, k)
			}
			for _, vv := range x {
				scrub(vv)
			}
		case []any:
			for _, vv := range x {
				scrub(vv)
			}
		}
	}
	scrub(v)
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out) + "\n"
}

// checkGolden compares normalized JSON against a golden file
// (regenerate with `go test ./cmd/r2r -run Golden -update`).
func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestCampaignJSONGolden pins the `r2r campaign -json` output schema:
// summary fields, per-model breakdowns, and vulnerable sites for the
// pincheck case. The engine is deterministic, so values — not just
// structure — are stable.
func TestCampaignJSONGolden(t *testing.T) {
	bin, good, bad := writeCase(t, cases.Pincheck())
	var out bytes.Buffer
	err := cmdCampaign([]string{"-good", good, "-bad", bad, "-model", "skip,bitflip", "-q", "-json", bin}, &out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_pincheck.json", normalizeJSON(t, out.Bytes()))
}

// TestCampaignAllModelsJSONGolden pins an order-1 sweep over every
// registered fault model on otpauth, whose register and data flips hang
// hundreds of runs until the injection step limit — the runs the
// session's continuation memo answers early. The golden predates the
// memo, so it holds memo-answered outcomes to full runs.
func TestCampaignAllModelsJSONGolden(t *testing.T) {
	bin, good, bad := writeCase(t, cases.OTPAuth())
	var out bytes.Buffer
	err := cmdCampaign([]string{"-good", good, "-bad", bad, "-model", "all", "-workers", "2", "-q", "-json", bin}, &out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign_otpauth_all.json", normalizeJSON(t, out.Bytes()))
}

// TestCampaignOrder2JSONGolden pins the order-2 summary schema — the
// order2 block with the pair-stage outcome counts.
func TestCampaignOrder2JSONGolden(t *testing.T) {
	bin, good, bad := writeCase(t, cases.Pincheck())
	var out bytes.Buffer
	err := cmdCampaign([]string{"-good", good, "-bad", bad, "-model", "skip",
		"-order", "2", "-max-pairs", "64", "-q", "-json", bin}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeJSON(t, out.Bytes())
	if !strings.Contains(got, `"order2"`) {
		t.Fatalf("order-2 summary missing the order2 block:\n%s", got)
	}
	checkGolden(t, "campaign_pincheck_order2.json", got)
}

// TestCampaignShardsSumToWhole: running every `-shard i/n -json` of a
// campaign and adding up the summaries, as the README suggests,
// reproduces the unsharded summary. At order 1 the outcome counts and
// the per-site successes add up; at order 2 the order2 blocks do, while
// every shard repeats the whole order-1 sweep its pairs derive from.
func TestCampaignShardsSumToWhole(t *testing.T) {
	bin, good, bad := writeCase(t, cases.Pincheck())
	run := func(args ...string) campaign.Summary {
		t.Helper()
		args = append([]string{"-good", good, "-bad", bad, "-q", "-json"}, append(args, bin)...)
		var out bytes.Buffer
		if err := cmdCampaign(args, &out); err != nil {
			t.Fatal(err)
		}
		var sums []campaign.Summary
		if err := json.Unmarshal(out.Bytes(), &sums); err != nil || len(sums) != 1 {
			t.Fatalf("%v: %d summaries, %v", args, len(sums), err)
		}
		return sums[0]
	}
	counts := func(s campaign.Summary) [5]int {
		return [5]int{s.Injections, s.Success, s.Detected, s.Crash, s.Ignored}
	}
	sites := func(s campaign.Summary, into map[uint64]int) {
		for _, site := range s.Sites {
			into[site.Addr] += site.Successes
		}
	}

	full := run("-model", "bitflip")
	wantSites, gotSites := map[uint64]int{}, map[uint64]int{}
	sites(full, wantSites)
	var got [5]int
	for i := 0; i < 4; i++ {
		s := run("-model", "bitflip", "-shard", fmt.Sprintf("%d/4", i))
		for k, v := range counts(s) {
			got[k] += v
		}
		sites(s, gotSites)
	}
	if got != counts(full) || full.Success == 0 {
		t.Errorf("order 1: shards sum to %v, unsharded %v", got, counts(full))
	}
	if !reflect.DeepEqual(gotSites, wantSites) {
		t.Errorf("order 1: shards' site successes %v, unsharded %v", gotSites, wantSites)
	}

	full = run("-order", "2", "-max-pairs", "2000")
	var o2 campaign.Order2Summary
	for i := 0; i < 3; i++ {
		s := run("-order", "2", "-max-pairs", "2000", "-shard", fmt.Sprintf("%d/3", i))
		if counts(s) != counts(full) || s.Order2 == nil {
			t.Fatalf("order 2 shard %d/3: order-1 counts %v, want the whole sweep's %v", i, counts(s), counts(full))
		}
		o2.Pairs += s.Order2.Pairs
		o2.Success += s.Order2.Success
		o2.Detected += s.Order2.Detected
		o2.Crash += s.Order2.Crash
		o2.Ignored += s.Order2.Ignored
	}
	if full.Order2 == nil || o2 != *full.Order2 {
		t.Errorf("order 2: shards sum to %+v, unsharded %+v", o2, full.Order2)
	}
}

// TestPatchOrder2JSONGolden pins the `r2r patch -order 2 -json` export:
// order-1 iterations, pair iterations, and the convergence verdict.
func TestPatchOrder2JSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full order-2 Faulter+Patcher pipeline; run without -short")
	}
	bin, good, bad := writeCase(t, cases.Pincheck())
	var out bytes.Buffer
	err := cmdPatch([]string{"-good", good, "-bad", bad, "-model", "skip",
		"-order", "2", "-max-pairs", "1024", "-o", bin + ".h2", "-json", bin}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeJSON(t, out.Bytes())
	for _, want := range []string{`"pair_iterations"`, `"pair_converged": true`, `"final_pair_success": 0`} {
		if !strings.Contains(got, want) {
			t.Errorf("patch JSON missing %s:\n%s", want, got)
		}
	}
	checkGolden(t, "patch_pincheck_order2.json", got)
}

// TestPatchOrder2DefaultModelsGolden pins `r2r patch -order 2 -json`
// under the default fault models (skip and bitflip) on otpauth, whose
// bit flips mutate code. The JSON keeps the cache counters of the
// driver's private store, and the hardened ELF is pinned by its
// SHA-256.
func TestPatchOrder2DefaultModelsGolden(t *testing.T) {
	bin, good, bad := writeCase(t, cases.OTPAuth())
	hard := bin + ".h2"
	var out bytes.Buffer
	if err := cmdPatch([]string{"-good", good, "-bad", bad, "-order", "2", "-o", hard, "-json", bin}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "patch_otpauth_order2_default.json", normalizeJSON(t, out.Bytes()))
	img, err := os.ReadFile(hard)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img)
	checkGolden(t, "patch_otpauth_order2_default.sha256", hex.EncodeToString(sum[:])+"\n")
}

// TestCampaignUnknownModelListsCatalog: the fix for the opaque
// -model failure — the error must enumerate the registered models.
func TestCampaignUnknownModelListsCatalog(t *testing.T) {
	bin, good, bad := writeCase(t, cases.Pincheck())
	err := cmdCampaign([]string{"-good", good, "-bad", bad, "-model", "skipp", "-q", bin}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, want := range []string{"skipp", "registered:", "instruction-skip", "single-bit-flip", "multi-instruction-skip"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestCampaignRejectsBadOrder and friends: flag-value validation that
// lives in the command layer, above the flag parser.
func TestCampaignRejectsBadOrder(t *testing.T) {
	err := cmdCampaign([]string{"-order", "3", "x.elf"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("order 3 not rejected: %v", err)
	}
}

func TestPatchRejectsBadOrder(t *testing.T) {
	err := cmdPatch([]string{"-order", "0", "x.elf"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("order 0 not rejected: %v", err)
	}
}

// TestPatchWritesProfiles: `r2r patch` takes the same pprof switches as
// campaign and corpus, and writes both profiles on success.
func TestPatchWritesProfiles(t *testing.T) {
	bin, good, bad := writeCase(t, cases.Pincheck())
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := cmdPatch([]string{"-good", good, "-bad", bad, "-model", "skip",
		"-cpuprofile", cpu, "-memprofile", mem, "-o", bin + ".h", "-json", bin}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written: %v", filepath.Base(p), err)
		}
	}
}

func TestHybridRejectsUnknownHarden(t *testing.T) {
	err := cmdHybrid([]string{"-harden", "mystery", "x.elf"})
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Errorf("unknown -harden not rejected: %v", err)
	}
}

func TestCampaignRejectsUnknownFlag(t *testing.T) {
	err := cmdCampaign([]string{"-frobnicate"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Errorf("unknown flag not rejected: %v", err)
	}
}

// TestCorpusJSONGolden pins the `r2r corpus -json` schema: one summary
// per (case, order) cell plus the corpus aggregate, each with the
// shared-store cache accounting.
func TestCorpusJSONGolden(t *testing.T) {
	var out bytes.Buffer
	err := cmdCorpus([]string{"-cases", "pincheck,otpauth", "-model", "skip",
		"-max-faults", "200", "-max-pairs", "64", "-workers", "2", "-q", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeJSON(t, out.Bytes())
	for _, want := range []string{`"name": "pincheck/o1"`, `"name": "otpauth/o2"`, `"name": "corpus"`, `"cache"`, `"order2"`} {
		if !strings.Contains(got, want) {
			t.Errorf("corpus JSON missing %s", want)
		}
	}
	checkGolden(t, "corpus_small.json", got)
}

// TestCorpusOrder3JSONGolden pins the order-3 corpus export: o3 rows
// carry both the order2 and the order3 block plus the prune accounting
// order 3 always runs with, and the aggregate row sums both stages.
func TestCorpusOrder3JSONGolden(t *testing.T) {
	var out bytes.Buffer
	err := cmdCorpus([]string{"-cases", "pincheck,otpauth", "-model", "skip", "-order", "3",
		"-max-faults", "200", "-max-pairs", "64", "-max-triples", "128", "-workers", "2", "-q", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeJSON(t, out.Bytes())
	for _, want := range []string{`"name": "pincheck/o3"`, `"name": "otpauth/o3"`, `"order3"`, `"prune"`} {
		if !strings.Contains(got, want) {
			t.Errorf("order-3 corpus JSON missing %s", want)
		}
	}
	checkGolden(t, "corpus_order3.json", got)
}

// TestCorpusReportsBlockedEntryWrites: when a corpus run over a
// -cache-dir cannot persist its entries (each entry file replaced by a
// directory of the same name, which blocks the rename even for root),
// every cell and the aggregate report the failed writes in their
// cache block, and the verdicts still match the run that wrote them.
func TestCorpusReportsBlockedEntryWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	corpus := func() []byte {
		var out bytes.Buffer
		if err := cmdCorpus([]string{"-cases", "pincheck", "-order", "2", "-q", "-json", "-cache-dir", dir}, &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	first := corpus()
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("first run stored no entries (%v)", err)
	}
	for _, path := range entries {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	blocked := corpus()

	var rows []struct {
		Name  string `json:"name"`
		Cache *struct {
			WriteErrors int `json:"write_errors"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(blocked, &rows); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"pincheck/o1": 1, "pincheck/o2": 1, "corpus": 2}
	if len(rows) != len(want) {
		t.Fatalf("%d summary rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Cache == nil || r.Cache.WriteErrors != want[r.Name] {
			t.Errorf("%s: cache block %+v, want write_errors %d", r.Name, r.Cache, want[r.Name])
		}
	}
	if a, b := normalizeJSON(t, first, "cache"), normalizeJSON(t, blocked, "cache"); a != b {
		t.Errorf("verdicts changed when entry writes failed\n--- blocked ---\n%s\n--- first ---\n%s", b, a)
	}
}

// TestCorpusRejectsUsageErrors: the corpus command classifies bad
// input as usage (exit 2 in main), not runtime failure.
func TestCorpusRejectsUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"positional args": {"x.elf"},
		"bad order":       {"-order", "4"},
		"unknown case":    {"-cases", "nonesuch"},
		"unknown model":   {"-model", "skipp"},
	}
	for name, args := range cases {
		err := cmdCorpus(args, &bytes.Buffer{})
		var ue usageError
		if err == nil || !errors.As(err, &ue) {
			t.Errorf("%s: want usage error, got %v", name, err)
		}
	}
}

// TestOracleJSONGolden pins the `r2r oracle -json` schema: one report
// per case with pipeline, hardened digest, input count, and divergence
// census. The pipeline and generators are deterministic, so values are
// stable, and the paper cases must show zero divergences.
func TestOracleJSONGolden(t *testing.T) {
	var out bytes.Buffer
	err := cmdOracle([]string{"-cases", "pincheck,bootloader", "-n", "16", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeJSON(t, out.Bytes())
	for _, want := range []string{`"case": "pincheck"`, `"case": "bootloader"`,
		`"pipeline": "hybrid"`, `"divergences": 0`, `"hardened_digest"`} {
		if !strings.Contains(got, want) {
			t.Errorf("oracle JSON missing %s", want)
		}
	}
	checkGolden(t, "oracle_paper_cases.json", got)
}

// TestOracleUsageErrors: argument validation is usage (exit 2), not
// runtime failure.
func TestOracleUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"one positional":   {"orig.elf"},
		"three positional": {"a.elf", "b.elf", "c.elf"},
		"bad pipeline":     {"-harden", "mystery"},
		"zero inputs":      {"-n", "0"},
		"unknown case":     {"-cases", "nonesuch"},
	}
	for name, args := range cases {
		err := cmdOracle(args, &bytes.Buffer{})
		var ue usageError
		if err == nil || !errors.As(err, &ue) {
			t.Errorf("%s: want usage error, got %v", name, err)
		}
	}
}

// TestOracleDetectsDivergence: differencing two behaviorally different
// binaries reports divergences in the output and fails as a runtime
// error — the contract the CI smoke job relies on for its exit code.
func TestOracleDetectsDivergence(t *testing.T) {
	pin, _, _ := writeCase(t, cases.Pincheck())
	boot, _, _ := writeCase(t, cases.Bootloader())
	var out bytes.Buffer
	err := cmdOracle([]string{"-n", "8", pin, boot}, &out)
	var ue usageError
	if err == nil || errors.As(err, &ue) {
		t.Fatalf("divergent pair: want runtime error, got %v", err)
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Errorf("error does not mention divergences: %v", err)
	}
	if !strings.Contains(out.String(), "diverges on") {
		t.Errorf("report does not itemize divergences:\n%s", out.String())
	}
}

// TestVerifyCatalogCleanGolden pins the `r2r verify -json` output for
// hardened catalog artifacts: the empty findings array is the
// structural proof the CI gate relies on, pinned as a golden file so a
// verifier regression (spurious findings) or a silently weakened check
// surface both show up as drift.
func TestVerifyCatalogCleanGolden(t *testing.T) {
	var out bytes.Buffer
	err := cmdVerify([]string{"-cases", "pincheck", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "verify_pincheck.json", normalizeJSON(t, out.Bytes()))
}

// TestVerifyUnhardenedBinary: verifying a baseline binary reports its
// unguarded exits and fails as a runtime error (exit 1), the contract
// the CI gate's exit code relies on.
func TestVerifyUnhardenedBinary(t *testing.T) {
	bin, _, _ := writeCase(t, cases.Pincheck())
	var out bytes.Buffer
	err := cmdVerify([]string{bin}, &out)
	var ue usageError
	if err == nil || errors.As(err, &ue) {
		t.Fatalf("unhardened binary: want runtime error, got %v", err)
	}
	if !strings.Contains(err.Error(), "invariant violation") {
		t.Errorf("error does not count violations: %v", err)
	}
	if !strings.Contains(out.String(), "check-coverage") {
		t.Errorf("report does not name the failing check:\n%s", out.String())
	}
}

// TestVerifyUsageErrors: argument validation is usage (exit 2), not
// runtime failure.
func TestVerifyUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"two positional": {"a.elf", "b.elf"},
		"bad pipeline":   {"-pipeline", "mystery"},
		"unknown case":   {"-cases", "nonesuch"},
	}
	for name, args := range cases {
		err := cmdVerify(args, &bytes.Buffer{})
		var ue usageError
		if err == nil || !errors.As(err, &ue) {
			t.Errorf("%s: want usage error, got %v", name, err)
		}
	}
}

// TestHardenedArtifactsRunNatively: the -o file of both pipelines is
// the runnable artifact. pincheck hardened by `hybrid -harden order2`
// and by `patch -order 2` loads back and writes out byte-identically,
// and on linux/amd64 each file runs natively with the emulator's exit
// status and output on both oracle inputs.
func TestHardenedArtifactsRunNatively(t *testing.T) {
	bin, good, bad := writeCase(t, cases.Pincheck())
	dir := t.TempDir()
	hybrid := filepath.Join(dir, "pincheck.hybrid")
	if err := cmdHybrid([]string{"-harden", "order2", "-o", hybrid, bin}); err != nil {
		t.Fatal(err)
	}
	patched := filepath.Join(dir, "pincheck.patched")
	if err := cmdPatch([]string{"-good", good, "-bad", bad, "-order", "2", "-o", patched, bin}, io.Discard); err != nil {
		t.Fatal(err)
	}
	native := runtime.GOOS == "linux" && runtime.GOARCH == "amd64"
	for _, path := range []string{hybrid, patched} {
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		re, err := reinforce.ParseELF(img)
		if err != nil {
			t.Fatalf("%s does not load back: %v", path, err)
		}
		again, err := re.Bytes()
		if err != nil || !bytes.Equal(again, img) {
			t.Errorf("%s: loading and writing it out changes the image (%v)", path, err)
		}
		for _, in := range []string{good, bad} {
			want, err := reinforce.Run(re, []byte(in))
			if err != nil {
				t.Fatalf("%s on %q: emulator: %v", path, in, err)
			}
			if !native {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			cmd := exec.CommandContext(ctx, path)
			cmd.Stdin = strings.NewReader(in)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			err = cmd.Run()
			cancel()
			var exit *exec.ExitError
			code := 0
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatalf("%s on %q: native run: %v", path, in, err)
			}
			if code != want.ExitCode || !bytes.Equal(stdout.Bytes(), want.Stdout) {
				t.Errorf("%s on %q: native exit %d stdout %q, emulator exit %d stdout %q",
					path, in, code, stdout.Bytes(), want.ExitCode, want.Stdout)
			}
		}
	}
}

// TestCasesCreatesDir: `r2r cases -dir` creates a missing directory,
// parents included, before writing the corpus into it.
func TestCasesCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "cases")
	if err := cmdCases([]string{"-dir", dir}); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases.Corpus() {
		for _, ext := range []string{".s", ".elf", ".good", ".bad"} {
			if _, err := os.Stat(filepath.Join(dir, c.Name+ext)); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestUsageErrorClassification: the exit-code convention — usage
// failures are usageError (exit 2), runtime failures are not (exit 1).
func TestUsageErrorClassification(t *testing.T) {
	var ue usageError
	if err := cmdCampaign([]string{"-order", "3", "x.elf"}, &bytes.Buffer{}); !errors.As(err, &ue) {
		t.Errorf("bad -order should be a usage error, got %v", err)
	}
	if err := cmdCampaign([]string{"-frobnicate"}, &bytes.Buffer{}); !errors.As(err, &ue) {
		t.Errorf("unknown flag should be a usage error, got %v", err)
	}
	if err := cmdCampaign([]string{"-shard", "9/4", "x.elf"}, &bytes.Buffer{}); !errors.As(err, &ue) {
		t.Errorf("bad -shard should be a usage error, got %v", err)
	}
	if err := cmdRun([]string{"/nonexistent.elf"}); err == nil || errors.As(err, &ue) {
		t.Errorf("unreadable binary should be a runtime error, got %v", err)
	}
}

// cacheCounters lists the JSON fields that account for how a run was
// answered (store hits and misses, simulated injections) rather than
// what it found; a warm rerun may differ from the cold run only there.
var cacheCounters = []string{"cache", "cache_hit", "cache_hits", "resimulated"}

// storeMisses sums every "misses" counter inside a "cache" block and
// reports how many blocks it saw.
func storeMisses(t *testing.T, normalized string) (misses float64, blocks int) {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(normalized), &v); err != nil {
		t.Fatal(err)
	}
	var walk func(any)
	walk = func(n any) {
		switch x := n.(type) {
		case map[string]any:
			if c, ok := x["cache"].(map[string]any); ok {
				m, _ := c["misses"].(float64)
				misses += m
				blocks++
			}
			for _, vv := range x {
				walk(vv)
			}
		case []any:
			for _, vv := range x {
				walk(vv)
			}
		}
	}
	walk(v)
	return misses, blocks
}

// TestWarmRerunMatchesCold: a second `campaign -order 2` and `patch
// -order 2` over the same -cache-dir are answered from the store with
// no misses, print the cold run's JSON except for the cache counters,
// and write the cold run's hardened ELF (the default-models patch
// golden's). All four outputs are pinned, cache counters included, so a
// change to the store's entry layout cannot move what either pass
// reports.
func TestWarmRerunMatchesCold(t *testing.T) {
	bin, good, bad := writeCase(t, cases.OTPAuth())
	dir := filepath.Join(t.TempDir(), "cache")
	campaign := func() string {
		var out bytes.Buffer
		if err := cmdCampaign([]string{"-good", good, "-bad", bad, "-order", "2", "-workers", "2",
			"-q", "-json", "-cache-dir", dir, bin}, &out); err != nil {
			t.Fatal(err)
		}
		return normalizeJSON(t, out.Bytes())
	}
	patch := func(hard string) (string, []byte) {
		var out bytes.Buffer
		if err := cmdPatch([]string{"-good", good, "-bad", bad, "-order", "2",
			"-o", hard, "-json", "-cache-dir", dir, bin}, &out); err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(hard)
		if err != nil {
			t.Fatal(err)
		}
		return normalizeJSON(t, out.Bytes()), img
	}
	coldCampaign := campaign()
	coldPatch, coldELF := patch(bin + ".cold")
	warmCampaign := campaign()
	warmPatch, warmELF := patch(bin + ".warm")

	checkGolden(t, "rerun_otpauth_campaign_cold.json", coldCampaign)
	checkGolden(t, "rerun_otpauth_campaign_warm.json", warmCampaign)
	checkGolden(t, "rerun_otpauth_patch_cold.json", coldPatch)
	checkGolden(t, "rerun_otpauth_patch_warm.json", warmPatch)
	for _, run := range []struct{ name, cold, warm string }{
		{"campaign", coldCampaign, warmCampaign},
		{"patch", coldPatch, warmPatch},
	} {
		if cold, warm := normalizeJSON(t, []byte(run.cold), cacheCounters...), normalizeJSON(t, []byte(run.warm), cacheCounters...); cold != warm {
			t.Errorf("warm %s differs from cold beyond the cache counters\n--- warm ---\n%s\n--- cold ---\n%s", run.name, warm, cold)
		}
		if misses, blocks := storeMisses(t, run.warm); blocks == 0 || misses != 0 {
			t.Errorf("warm %s: %v store misses over %d cache blocks, want 0 misses", run.name, misses, blocks)
		}
	}
	if !bytes.Equal(coldELF, warmELF) {
		t.Error("warm patch wrote a different hardened ELF")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "patch_otpauth_order2_default.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(warmELF); hex.EncodeToString(sum[:])+"\n" != string(want) {
		t.Errorf("hardened ELF sha256 %x, want the default-models patch golden %s", sum, want)
	}
}
