package main

import (
	"fmt"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/fault"
)

// doc wraps command lines in a fenced markdown block.
func doc(lines ...string) string {
	return "# title\n\n```sh\n" + strings.Join(lines, "\n") + "\n```\n"
}

func TestExtractCommands(t *testing.T) {
	d := doc(
		"./r2r campaign -good 1234 -bad 0000 pin.elf",
		"r2r info pin.elf   # trailing comment",
		"./r2r patch -good A \\",
		"  -bad B pin.elf",
		"echo not-an-r2r-line",
	) + "\n./r2r outside-fence\n"
	cmds := extractCommands(d)
	if len(cmds) != 3 {
		t.Fatalf("extracted %d commands, want 3: %+v", len(cmds), cmds)
	}
	if cmds[0].tokens[0] != "campaign" {
		t.Errorf("first command = %v", cmds[0].tokens)
	}
	if got := strings.Join(cmds[2].tokens, " "); got != "patch -good A -bad B pin.elf" {
		t.Errorf("continuation join = %q", got)
	}
	if cmds[1].tokens[len(cmds[1].tokens)-1] != "pin.elf" {
		t.Errorf("comment not stripped: %v", cmds[1].tokens)
	}
}

// TestCheckCommandCleanCase: a documented invocation matching the real
// flag surface passes.
func TestCheckCommandCleanCase(t *testing.T) {
	for _, line := range [][]string{
		{"campaign", "-good", "1234", "-bad", "0000", "-model", "skip,bitflip", "pin.elf"},
		{"corpus", "-cases", "pincheck,otpauth", "-order", "2", "-json"},
		{"patch", "-good", "G", "-bad", "B", "-o", "out.elf", "pin.elf"},
		{"experiments", "-only", "corpus"},
	} {
		if err := checkCommand(line); err != nil {
			t.Errorf("%v: %v", line, err)
		}
	}
}

// TestCheckCommandDriftedFlag: the README-drift scenario — a command
// quoting a flag the real flag set no longer has must fail.
func TestCheckCommandDriftedFlag(t *testing.T) {
	err := checkCommand([]string{"campaign", "-goood", "1234", "pin.elf"})
	if err == nil || !strings.Contains(err.Error(), "goood") {
		t.Errorf("drifted flag not caught: %v", err)
	}
	if err := checkCommand([]string{"campain", "pin.elf"}); err == nil {
		t.Error("unknown subcommand not caught")
	}
	if err := checkCommand([]string{"info"}); err == nil {
		t.Error("missing positional argument not caught")
	}
	if err := checkCommand([]string{"corpus", "stray.elf"}); err == nil {
		t.Error("stray positional argument not caught")
	}
	if err := checkCommand([]string{"faults", "-model", "skipp", "-good", "G", "-bad", "B", "x.elf"}); err == nil {
		t.Error("unregistered literal -model value not caught")
	}
}

// catalogRows builds a correct model table from the fault-model catalog.
func catalogRows() [][2]string {
	var rows [][2]string
	for _, m := range fault.RegisteredModels() {
		rows = append(rows, [2]string{m.String(), m.String()})
	}
	return rows
}

func TestCheckModelTableCleanCase(t *testing.T) {
	tab := modelTable{rows: catalogRows()}
	if errs := checkModelTable(tab); len(errs) != 0 {
		t.Errorf("clean table rejected: %v", errs)
	}
}

// TestCheckModelTableMissingRow: a registered model without a
// documentation row — the new-model-ships-undocumented scenario — must
// fail, naming the missing model.
func TestCheckModelTableMissingRow(t *testing.T) {
	rows := catalogRows()
	dropped := rows[len(rows)-1][0]
	tab := modelTable{rows: rows[:len(rows)-1]}
	errs := checkModelTable(tab)
	if len(errs) == 0 {
		t.Fatal("missing row not caught")
	}
	found := false
	for _, err := range errs {
		if strings.Contains(err.Error(), dropped) && strings.Contains(err.Error(), "no row") {
			found = true
		}
	}
	if !found {
		t.Errorf("errors do not name the missing model %q: %v", dropped, errs)
	}
}

// TestCheckModelTableBadRows: stale rows (unknown model, wrong
// canonical name, duplicate) are each reported.
func TestCheckModelTableBadRows(t *testing.T) {
	rows := append(catalogRows(), [2]string{"ghost-model", "ghost"})
	errs := checkModelTable(modelTable{rows: rows})
	if len(errs) == 0 {
		t.Fatal("unknown model row not caught")
	}

	alias := catalogRows()
	alias[0][0] = "skip" // CLI alias in the canonical column
	if errs := checkModelTable(modelTable{rows: alias}); len(errs) == 0 {
		t.Error("non-canonical name in canonical column not caught")
	}

	dup := append(catalogRows(), catalogRows()[0])
	if errs := checkModelTable(modelTable{rows: dup}); len(errs) == 0 {
		t.Error("duplicate row not caught")
	}
}

// TestExtractModelTables: the markdown table parser finds the catalog
// table, skips the separator, and unquotes backticks.
func TestExtractModelTables(t *testing.T) {
	d := `
| Model | CLI name | What |
|---|---|---|
| ` + "`instruction-skip`" + ` | ` + "`skip`" + ` | skips |

other text
`
	tabs := extractModelTables(d)
	if len(tabs) != 1 || len(tabs[0].rows) != 1 {
		t.Fatalf("tables = %+v", tabs)
	}
	if tabs[0].rows[0] != [2]string{"instruction-skip", "skip"} {
		t.Errorf("row = %v", tabs[0].rows[0])
	}
	if got := extractModelTables("| Something | else |\n|---|---|\n| a | b |\n"); len(got) != 0 {
		t.Errorf("non-catalog table matched: %+v", got)
	}
}

// TestOpaque: placeholders are skipped, literals are checked.
func TestOpaque(t *testing.T) {
	for v, want := range map[string]bool{
		"$(cat f)": true,
		"...":      true,
		"MODELS":   true,
		"skip":     false,
		"0/4":      false,
		"pin.elf":  false,
		"reg-flip": false,
	} {
		if got := opaque(v); got != want {
			t.Errorf("opaque(%q) = %v, want %v", v, got, want)
		}
	}
}

// TestSplitShell: quoted substitutions stay one token.
func TestSplitShell(t *testing.T) {
	toks := splitShell(`./r2r campaign -good "$(cat a b)" -bad "x y" pin.elf`)
	want := []string{"./r2r", "campaign", "-good", "$(cat a b)", "-bad", "x y", "pin.elf"}
	if fmt.Sprint(toks) != fmt.Sprint(want) {
		t.Errorf("splitShell = %v, want %v", toks, want)
	}
}
