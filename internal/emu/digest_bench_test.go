package emu_test

import (
	"testing"

	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/emu"
)

// BenchmarkStateDigest digests catalog machines paused halfway through
// their bad-input run: "frozen" after a snapshot froze every page (the
// shape of a machine resumed from a campaign checkpoint before it
// dirties anything), "private" on a fork that rewrote one stack page.
func BenchmarkStateDigest(b *testing.B) {
	for _, shape := range []string{"frozen", "private"} {
		b.Run(shape, func(b *testing.B) {
			var ms []*emu.Machine
			for _, name := range cases.Names() {
				c, err := cases.Get(name)
				if err != nil {
					b.Fatal(err)
				}
				bin := c.MustBuild()
				cfg := emu.Config{Stdin: c.Bad}
				res, _ := emu.New(bin, cfg).Run()
				m := emu.New(bin, cfg)
				m.RunUntil(res.Steps / 2)
				m = m.Snapshot().Resume(cfg)
				if shape == "private" {
					sp := m.Regs[4] // rsp
					if err := m.Mem.Write(sp-8, []byte{0x5a}); err != nil {
						b.Fatal(err)
					}
				}
				ms = append(ms, m)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms[i%len(ms)].StateDigest()
			}
		})
	}
}
