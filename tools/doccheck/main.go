// Command doccheck validates every `./r2r …` invocation quoted in the
// given markdown files against the real CLI surface (internal/cli):
// the subcommand must exist, every flag must parse against the
// command's actual flag set, the positional-argument count must be in
// range, and literal -model values must name registered fault models.
// CI runs it over README.md and docs/*.md, so a flag rename or removal
// that outruns the documentation fails the build (the doc rot the PR-2
// flag renames caused).
//
// Only fenced code blocks are scanned. A command line is one whose
// first token is `r2r` or `./r2r`; backslash continuations are joined
// and trailing `# comments` stripped. Shell substitutions like
// "$(cat f)" and `...` ellipses count as opaque flag values.
//
// Usage: go run ./tools/doccheck README.md docs/*.md
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/r2r/reinforce/internal/cli"
	"github.com/r2r/reinforce/internal/fault"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck FILE.md [FILE.md ...]")
		os.Exit(2)
	}
	failed := false
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		checked := 0
		for _, cmd := range extractCommands(string(data)) {
			checked++
			if err := checkCommand(cmd.tokens); err != nil {
				failed = true
				fmt.Fprintf(os.Stderr, "%s:%d: %s\n    %s\n", path, cmd.line, err, cmd.text)
			}
		}
		tables := 0
		for _, tab := range extractModelTables(string(data)) {
			tables++
			for _, err := range checkModelTable(tab) {
				failed = true
				fmt.Fprintf(os.Stderr, "%s:%d: %s\n", path, tab.line, err)
			}
		}
		fmt.Printf("doccheck: %s: %d r2r invocation(s), %d fault-model table(s) checked\n", path, checked, tables)
	}
	if failed {
		os.Exit(1)
	}
}

// command is one documented r2r invocation.
type command struct {
	line   int // 1-based line of the first physical line
	text   string
	tokens []string
}

// extractCommands scans fenced code blocks for r2r invocations.
func extractCommands(doc string) []command {
	var out []command
	inFence := false
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			continue
		}
		start := i
		// Join backslash continuations.
		full := line
		for strings.HasSuffix(full, "\\") && i+1 < len(lines) {
			i++
			full = strings.TrimSuffix(full, "\\") + " " + strings.TrimSpace(lines[i])
		}
		// Strip trailing comments.
		if idx := strings.Index(full, " #"); idx >= 0 {
			full = strings.TrimSpace(full[:idx])
		}
		toks := splitShell(full)
		if len(toks) == 0 {
			continue
		}
		if toks[0] != "r2r" && toks[0] != "./r2r" {
			continue
		}
		out = append(out, command{line: start + 1, text: full, tokens: toks[1:]})
	}
	return out
}

// splitShell splits a command line on whitespace, keeping
// double-quoted strings (including $(...) substitutions) as single
// tokens and dropping the quotes.
func splitShell(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	depth := 0 // $( ) nesting inside quotes
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' && depth == 0:
			inQuote = !inQuote
		case inQuote && c == '(':
			depth++
			cur.WriteByte(c)
		case inQuote && c == ')':
			depth--
			cur.WriteByte(c)
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}

// opaque reports whether a documented value is a placeholder rather
// than a literal (shell substitution, ellipsis, ALL-CAPS metavariable).
func opaque(v string) bool {
	if strings.Contains(v, "$") || strings.Contains(v, "...") {
		return true
	}
	return v != "" && strings.ToUpper(v) == v && strings.ContainsAny(v, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
}

// checkCommand validates one invocation's tokens (subcommand first).
func checkCommand(tokens []string) error {
	if len(tokens) == 0 {
		return fmt.Errorf("bare r2r invocation")
	}
	name := tokens[0]
	spec, ok := cli.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown subcommand %q", name)
	}
	fs := spec.Flags()
	if err := fs.Parse(tokens[1:]); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	if n := fs.NArg(); n < spec.MinArgs || (spec.MaxArgs >= 0 && n > spec.MaxArgs) {
		max := fmt.Sprintf("%d", spec.MaxArgs)
		if spec.MaxArgs < 0 {
			max = "∞"
		}
		return fmt.Errorf("%s: %d positional argument(s), want %d..%s", name, n, spec.MinArgs, max)
	}
	// Literal -model values must name registered fault models.
	var modelErr error
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "model" || modelErr != nil {
			return
		}
		v := f.Value.String()
		if opaque(v) {
			return
		}
		if _, err := fault.ParseModels(v); err != nil {
			modelErr = fmt.Errorf("%s: %v", name, err)
		}
	})
	return modelErr
}

// modelTable is one documented fault-model table: the (canonical name,
// CLI alias) pairs of its rows.
type modelTable struct {
	line int // 1-based line of the header row
	rows [][2]string
}

// extractModelTables finds markdown tables whose header starts with
// "Model | CLI name" — the documented fault-model catalog.
func extractModelTables(doc string) []modelTable {
	var out []modelTable
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		cells := tableCells(lines[i])
		if len(cells) < 2 || cells[0] != "Model" || cells[1] != "CLI name" {
			continue
		}
		tab := modelTable{line: i + 1}
		// Collect rows until the table ends, skipping the |---|---|
		// separator wherever (and whether) it appears.
		for j := i + 1; j < len(lines); j++ {
			row := tableCells(lines[j])
			if len(row) < 2 {
				i = j
				break
			}
			i = j
			if separatorRow(row) {
				continue
			}
			tab.rows = append(tab.rows, [2]string{unquote(row[0]), unquote(row[1])})
		}
		out = append(out, tab)
	}
	return out
}

// tableCells splits a markdown table row into trimmed cells, or nil
// when the line is not a table row.
func tableCells(line string) []string {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "|") {
		return nil
	}
	parts := strings.Split(strings.Trim(line, "|"), "|")
	cells := make([]string, 0, len(parts))
	for _, p := range parts {
		cells = append(cells, strings.TrimSpace(p))
	}
	return cells
}

// unquote strips markdown code backticks.
func unquote(s string) string { return strings.Trim(s, "`") }

// separatorRow reports whether every cell is a markdown alignment
// separator (dashes with optional colons).
func separatorRow(cells []string) bool {
	for _, c := range cells {
		if strings.Trim(c, ":-") != "" || !strings.Contains(c, "-") {
			return false
		}
	}
	return true
}

// checkModelTable validates a documented fault-model table against the
// fault-model catalog: every row's canonical name and CLI alias must
// resolve to the same model, the canonical column must be the model's
// canonical name, and every catalog model must have exactly one row —
// so a new model cannot ship without its documentation (nor stale
// documentation outlive a model).
func checkModelTable(tab modelTable) []error {
	var errs []error
	seen := map[fault.Model]int{}
	for _, row := range tab.rows {
		canonical, alias := row[0], row[1]
		m, err := fault.ParseModel(canonical)
		if err != nil {
			errs = append(errs, fmt.Errorf("model table row %q: %v", canonical, err))
			continue
		}
		if m.String() != canonical {
			errs = append(errs, fmt.Errorf("model table row %q: canonical name is %q", canonical, m))
		}
		am, err := fault.ParseModel(alias)
		if err != nil {
			errs = append(errs, fmt.Errorf("model table row %q: CLI name %q: %v", canonical, alias, err))
		} else if am != m {
			errs = append(errs, fmt.Errorf("model table row %q: CLI name %q resolves to %q", canonical, alias, am))
		}
		seen[m]++
	}
	for _, m := range fault.RegisteredModels() {
		switch seen[m] {
		case 0:
			errs = append(errs, fmt.Errorf("model table: registered model %q has no row (catalog: %s)",
				m, strings.Join(fault.CatalogNames(), ", ")))
		case 1:
		default:
			errs = append(errs, fmt.Errorf("model table: model %q documented %d times", m, seen[m]))
		}
	}
	return errs
}
