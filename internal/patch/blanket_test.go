package patch

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/r2r/reinforce/internal/cases"
)

var update = flag.Bool("update", false, "rewrite the blanket artifact digests")

// styles names every pattern style, in declaration order.
var styles = []struct {
	name  string
	style Style
}{{"fallthrough", StyleFallthrough}, {"paper", StylePaper}, {"order2", StyleOrder2}}

// TestBlanketEveryStyle: HardenAll under each pattern style protects
// every catalog head and keeps its oracle behaviour, so each builder
// holds up on real code in every style, not only on the sites the
// driver picks.
func TestBlanketEveryStyle(t *testing.T) {
	for _, c := range cases.Corpus() {
		for _, st := range styles {
			res, err := HardenAll(c.MustBuild(), st.style)
			if err != nil {
				t.Errorf("%s/%s: %v", c.Name, st.name, err)
				continue
			}
			if res.Patched == 0 {
				t.Errorf("%s/%s: nothing patched", c.Name, st.name)
			}
			if err := c.Check(res.Binary); err != nil {
				t.Errorf("%s/%s: blanket binary misbehaves: %v", c.Name, st.name, err)
			}
		}
	}
}

// TestBlanketArtifactsGolden pins the bytes every pattern style writes:
// the SHA-256 of each catalog head's HardenAll artifact under each
// style, one "head style digest" line each. Labels become ELF symbols,
// so a builder that draws its labels in a different order fails here
// as surely as one that emits a different instruction (regenerate with
// -update only for an intended change).
func TestBlanketArtifactsGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range cases.Corpus() {
		for _, st := range styles {
			res, err := HardenAll(c.MustBuild(), st.style)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, st.name, err)
			}
			img, err := res.Binary.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s %s %x\n", c.Name, st.name, sha256.Sum256(img))
		}
	}
	path := filepath.Join("testdata", "blanket_artifacts.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("blanket artifacts drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPaperStyleDriver: the Faulter+Patcher loop with the patterns as
// printed completes and keeps the oracle behaviour. The paper-style JCC
// pattern lays out a fall-through check block after its head, and that
// block needs a label of its own: every block becomes an ELF symbol,
// and two unnamed ones collide when a second branch is patched.
func TestPaperStyleDriver(t *testing.T) {
	c := cases.CRTSign()
	res, err := Harden(c.MustBuild(), Options{Good: c.Good, Bad: c.Bad, Style: StylePaper})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(res.Binary); err != nil {
		t.Fatal(err)
	}
}
