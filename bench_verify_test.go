// Benchmark for the static countermeasure verifier: full catalog
// verification (CFG recovery, check-coverage proof) over
// the Faulter+Patcher-hardened corpus. This is the price the post-pass
// gates add to `r2r patch` and `r2r hybrid`.
package reinforce

import (
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/fault"
	"github.com/r2r/reinforce/internal/harden"
	"github.com/r2r/reinforce/internal/static"
)

// BenchmarkVerifyCatalog measures Analyze + CheckCoverage across every
// hardened corpus binary per iteration. Hardening happens once in
// setup; the timed loop is purely the verifier, so artifacts/s is the
// cost of a clean `r2r verify` verdict.
func BenchmarkVerifyCatalog(b *testing.B) {
	var bins []*elf.Binary
	for _, c := range cases.Corpus() {
		res, err := harden.FaulterPatcher(c.MustBuild(), harden.FaulterPatcherOptions{
			Good: c.Good, Bad: c.Bad, Models: []fault.Model{fault.ModelSkip},
		})
		if err != nil {
			b.Fatal(err)
		}
		bins = append(bins, res.Binary)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bin := range bins {
			an, err := static.Analyze(bin)
			if err != nil {
				b.Fatal(err)
			}
			if fs := an.CheckCoverage(); len(fs) != 0 {
				b.Fatalf("hardened catalog binary failed verification: %v", fs)
			}
		}
	}
	b.ReportMetric(float64(len(bins)*b.N)/b.Elapsed().Seconds(), "artifacts/s")
}
