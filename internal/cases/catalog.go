// Catalog: the case-study table. Every consumer — the corpus campaign
// runner, the CLI's -cases flag, the experiments suite — resolves case
// studies through it, so adding a case study is one builder plus one
// row, not a tour of the call sites.
package cases

import (
	"fmt"
	"sort"
	"strings"
)

// catalog lists every case study in corpus order: the paper's pair
// first (the order All() documents), then the corpus extensions. A row
// holds a builder, not a shared instance, because cases carry mutable
// oracle byte slices and are built per request.
var catalog = []struct {
	name  string
	build func() *Case
}{
	{"pincheck", Pincheck},
	{"bootloader", Bootloader},
	{"otpauth", OTPAuth},
	{"fwupdate", FWUpdate},
	{"crtsign", CRTSign},
}

// Names returns every case-study name in corpus order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, row := range catalog {
		out[i] = row.name
	}
	return out
}

// Get builds the named case study. Unknown names fail with the catalog
// spelled out, so a typo on the command line is self-correcting.
func Get(name string) (*Case, error) {
	trimmed := strings.TrimSpace(name)
	for _, row := range catalog {
		if row.name == trimmed {
			return row.build(), nil
		}
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("cases: unknown case study %q (registered: %s; plus the keyword all)",
		name, strings.Join(names, ", "))
}

// Corpus builds every case study, in corpus order.
func Corpus() []*Case {
	out := make([]*Case, len(catalog))
	for i, row := range catalog {
		out[i] = row.build()
	}
	return out
}

// ParseCases resolves a comma-separated case-study list. The keyword
// "all" expands to the whole catalog; an empty string means "all".
// Duplicates collapse to the first occurrence.
func ParseCases(spec string) ([]*Case, error) {
	if strings.TrimSpace(spec) == "" {
		spec = "all"
	}
	var out []*Case
	seen := map[string]bool{}
	add := func(c *Case) {
		if !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c)
		}
	}
	for _, part := range strings.Split(spec, ",") {
		if strings.TrimSpace(part) == "all" {
			for _, c := range Corpus() {
				add(c)
			}
			continue
		}
		c, err := Get(part)
		if err != nil {
			return nil, err
		}
		add(c)
	}
	return out, nil
}
