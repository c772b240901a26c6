package cli

import (
	"flag"
	"strings"
	"testing"
)

func TestSpecsUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Specs() {
		if s.Name == "" {
			t.Fatal("spec with empty name")
		}
		if seen[s.Name] {
			t.Errorf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
		if s.Flags == nil {
			t.Errorf("%s: nil flag constructor", s.Name)
			continue
		}
		fs := s.Flags()
		if fs == nil {
			t.Errorf("%s: constructor returned nil flag set", s.Name)
		}
		if s.MaxArgs >= 0 && s.MinArgs > s.MaxArgs {
			t.Errorf("%s: MinArgs %d > MaxArgs %d", s.Name, s.MinArgs, s.MaxArgs)
		}
	}
	for _, name := range []string{"campaign", "patch", "hybrid", "experiments", "oracle", "verify"} {
		if !seen[name] {
			t.Errorf("spec %q missing", name)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("campaign"); !ok {
		t.Error("campaign not found")
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("bogus command found")
	}
}

func TestCampaignFlagDefaults(t *testing.T) {
	fs, f := Campaign()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Order != 1 || f.Model != "both" || f.MaxPairs != 0 || f.JSON || f.CSV || f.Quiet {
		t.Errorf("unexpected defaults: %+v", f)
	}
}

func TestCampaignOrder2Flags(t *testing.T) {
	fs, f := Campaign()
	err := fs.Parse([]string{"-good", "G", "-bad", "B", "-model", "skip",
		"-order", "2", "-max-pairs", "128", "-shard", "0/4", "-json", "-q", "bin.elf"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Order != 2 || f.MaxPairs != 128 || f.Shard != "0/4" || !f.JSON || !f.Quiet {
		t.Errorf("order-2 flags misparsed: %+v", f)
	}
	if fs.NArg() != 1 || fs.Arg(0) != "bin.elf" {
		t.Errorf("positional args misparsed: %v", fs.Args())
	}
}

func TestPatchOrder2Flags(t *testing.T) {
	fs, f := Patch()
	if err := fs.Parse([]string{"-order", "2", "-max-pairs", "64", "-csv", "bin.elf"}); err != nil {
		t.Fatal(err)
	}
	if f.Order != 2 || f.MaxPairs != 64 || !f.CSV {
		t.Errorf("patch order-2 flags misparsed: %+v", f)
	}
}

func TestHybridHardenFlag(t *testing.T) {
	fs, f := Hybrid()
	if err := fs.Parse([]string{"-harden", "order2", "bin.elf"}); err != nil {
		t.Fatal(err)
	}
	if f.Harden != "order2" {
		t.Errorf("harden = %q", f.Harden)
	}
	fs, f = Hybrid()
	if err := fs.Parse([]string{"bin.elf"}); err != nil {
		t.Fatal(err)
	}
	if f.Harden != "branch" {
		t.Errorf("default harden = %q, want branch", f.Harden)
	}
}

func TestOracleFlagDefaults(t *testing.T) {
	fs, f := Oracle()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Cases != "all" || f.Harden != "hybrid" || f.N != 64 ||
		f.Variants != 0 || f.Workers != 0 || f.Seed != 1 || f.JSON || f.CSV {
		t.Errorf("unexpected oracle defaults: %+v", f)
	}
}

func TestOracleFlags(t *testing.T) {
	fs, f := Oracle()
	err := fs.Parse([]string{"-cases", "pincheck,bootloader", "-harden", "patch",
		"-n", "128", "-variants", "3", "-workers", "4", "-seed", "99", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Cases != "pincheck,bootloader" || f.Harden != "patch" || f.N != 128 ||
		f.Variants != 3 || f.Workers != 4 || f.Seed != 99 || !f.JSON {
		t.Errorf("oracle flags misparsed: %+v", f)
	}
	spec, ok := Lookup("oracle")
	if !ok {
		t.Fatal("oracle spec missing")
	}
	// Zero positional args sweeps the catalog; two difference a pair of
	// on-disk binaries.
	if spec.MinArgs != 0 || spec.MaxArgs != 2 {
		t.Errorf("oracle arity = [%d,%d], want [0,2]", spec.MinArgs, spec.MaxArgs)
	}
}

func TestVerifyFlags(t *testing.T) {
	fs, f := Verify()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Cases != "all" || f.Pipeline != "all" || f.JSON || f.CSV {
		t.Errorf("unexpected verify defaults: %+v", f)
	}
	fs, f = Verify()
	if err := fs.Parse([]string{"-cases", "pincheck", "-pipeline", "order2", "-json"}); err != nil {
		t.Fatal(err)
	}
	if f.Cases != "pincheck" || f.Pipeline != "order2" || !f.JSON {
		t.Errorf("verify flags misparsed: %+v", f)
	}
	spec, ok := Lookup("verify")
	if !ok {
		t.Fatal("verify spec missing")
	}
	// Zero positional args verifies the hardened catalog; one verifies
	// an on-disk binary.
	if spec.MinArgs != 0 || spec.MaxArgs != 1 {
		t.Errorf("verify arity = [%d,%d], want [0,1]", spec.MinArgs, spec.MaxArgs)
	}
}

func TestUnknownFlagIsAnError(t *testing.T) {
	fs, _ := Campaign()
	err := fs.Parse([]string{"-no-such-flag"})
	if err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(err.Error(), "no-such-flag") {
		t.Errorf("error does not name the flag: %v", err)
	}
	if err == flag.ErrHelp {
		t.Error("unexpected ErrHelp")
	}
}
