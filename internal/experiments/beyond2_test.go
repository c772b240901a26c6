package experiments

import (
	"fmt"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/campaign/campaigntest"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// TestTableBeyond2 enforces the shape of the order-2 hardening
// evaluation — the tentpole claim of the multi-fault countermeasures:
//
//   - the order-1 Faulter+Patcher baseline retains a nonzero pair (and
//     multi-skip) surface on pincheck — the gap being closed;
//   - both order-2 pipelines (f+p order2, hybrid+skipwindow) drive
//     pair successes to zero on every case, and multi-skip successes
//     to zero as well;
//   - the naive blanket-duplication baseline falls to the sustained
//     skip window (an instruction and its duplicate skipped together);
//   - order-2 protection costs more than its order-1 counterpart.
func TestTableBeyond2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs order-2 pipelines and campaigns on every variant; run without -short")
	}
	tab, data, err := TableBeyond2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	if len(data) != 10 {
		t.Fatalf("rows = %d, want 2 cases x 5 pipelines", len(data))
	}
	byKey := map[string]Beyond2Data{}
	for _, d := range data {
		byKey[d.Case+"/"+d.Pipeline] = d
		if d.Pairs == 0 || d.MultiSkipInj == 0 {
			t.Errorf("%s/%s: empty sweep (%d pairs, %d multi-skip)", d.Case, d.Pipeline, d.Pairs, d.MultiSkipInj)
		}
		switch d.Pipeline {
		case "f+p order2", "hybrid+skipwindow":
			if d.PairSuccess != 0 {
				t.Errorf("%s/%s: %d successful pairs remain", d.Case, d.Pipeline, d.PairSuccess)
			}
			if d.MultiSkipSuccess != 0 {
				t.Errorf("%s/%s: %d multi-skip successes remain", d.Case, d.Pipeline, d.MultiSkipSuccess)
			}
		}
	}
	// The motivating residual: single-fault F+P hardening leaves an
	// order-2 pair and a sustained-window success on pincheck.
	if d := byKey["pincheck/f+p"]; d.PairSuccess == 0 && d.MultiSkipSuccess == 0 {
		t.Error("pincheck/f+p: no residual multi-fault surface; the order-2 stage has nothing to close")
	}
	// Naive blanket duplication falls to the wide glitch.
	for _, c := range []string{"pincheck", "bootloader"} {
		if d := byKey[c+"/dup-ir (naive)"]; d.MultiSkipSuccess == 0 {
			t.Errorf("%s/dup-ir: naive duplication shows no multi-skip surface", c)
		}
	}
	// Order-2 protection is not free.
	for _, c := range []string{"pincheck", "bootloader"} {
		if byKey[c+"/f+p order2"].OverheadPct <= byKey[c+"/f+p"].OverheadPct {
			t.Errorf("%s: f+p order2 overhead not above order-1 f+p", c)
		}
		if byKey[c+"/hybrid+skipwindow"].OverheadPct <= byKey[c+"/hybrid"].OverheadPct {
			t.Errorf("%s: hybrid+skipwindow overhead not above hybrid", c)
		}
	}
}

// TestBeyond2Determinism: the order-2 campaign on the skip-window
// hardened pincheck binary is bit-identical across worker counts, and
// each pair shard holds exactly its share of the unsharded run — the
// engine guarantees hold on the new hardened variants too.
func TestBeyond2Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the order-2 hybrid pipeline plus repeated campaigns; run without -short")
	}
	c := cases.Pincheck()
	hySW, err := memo.hybridSWFor(c)
	if err != nil {
		t.Fatal(err)
	}
	camp := fault.Campaign{
		Binary: hySW.Binary, Good: c.Good, Bad: c.Bad,
		Models: []fault.Model{fault.ModelSkip}, StepLimit: stepLimit, DedupSites: true,
	}
	opt := campaign.Options{MaxPairs: beyond2MaxPairs}

	ref, err := campaign.RunOrder2(camp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := ref.PairCount(fault.OutcomeSuccess); n != 0 {
		t.Fatalf("%d successful pairs on the skip-window binary", n)
	}

	// Worker invariance.
	for _, workers := range []int{1, 4} {
		o := opt
		o.Workers = workers
		got, err := campaign.RunOrder2(camp, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Pairs) != len(ref.Pairs) {
			t.Fatalf("workers=%d: %d pairs vs %d", workers, len(got.Pairs), len(ref.Pairs))
		}
		for i := range got.Pairs {
			if got.Pairs[i] != ref.Pairs[i] {
				t.Fatalf("workers=%d: pair %d differs: %+v vs %+v", workers, i, got.Pairs[i], ref.Pairs[i])
			}
		}
	}

	// Shards.
	const shards = 3
	for i := 0; i < shards; i++ {
		o := opt
		o.Shard = campaign.Shard{Index: i, Count: shards}
		part, err := campaign.RunOrder2(camp, o)
		if err != nil {
			t.Fatal(err)
		}
		campaigntest.AssertShard(t, fmt.Sprintf("pair shard %d/%d", i, shards), ref, part, i, shards)
	}
}
