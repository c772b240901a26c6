package campaign

import (
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// digestSink keeps the benchmarked digests from being optimized away.
var digestSink string

// BenchmarkDigestFaults times the fault-list check a store hit must
// pass: digesting bootloader's fault list under the default models
// (skip and bitflip, 13,245 faults) and a 32,768-pair list drawn from
// it as EnumeratePairs draws the order-2 work list.
func BenchmarkDigestFaults(b *testing.B) {
	c, err := cases.Get("bootloader")
	if err != nil {
		b.Fatal(err)
	}
	s, err := fault.NewSession(fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip, fault.ModelBitFlip},
	})
	if err != nil {
		b.Fatal(err)
	}
	faults := s.Faults()
	if len(faults) != 13245 {
		b.Fatalf("bootloader fault list has %d faults, want 13245", len(faults))
	}
	solo := make([]fault.Injection, len(faults))
	for i, f := range faults {
		solo[i] = fault.Injection{Fault: f, Outcome: fault.OutcomeIgnored}
	}
	pairs := fault.EnumeratePairs(solo, 32768)
	if len(pairs) != 32768 {
		b.Fatalf("pair list has %d pairs, want 32768", len(pairs))
	}
	b.Run("faults", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			digestSink = digestFaults(faults)
		}
	})
	b.Run("pairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			digestSink = digestSeqs(pairs)
		}
	})
}
