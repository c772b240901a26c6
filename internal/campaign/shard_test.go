package campaign_test

import (
	"fmt"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/campaign/campaigntest"
	"github.com/r2r/reinforce/internal/cases"
	"github.com/r2r/reinforce/internal/fault"
)

// shardCampaign is the pincheck campaign the multi-fault shard tests
// split.
func shardCampaign() fault.Campaign {
	c := cases.Pincheck()
	return fault.Campaign{
		Binary: c.MustBuild(), Good: c.Good, Bad: c.Bad,
		Models:     []fault.Model{fault.ModelSkip, fault.ModelBitFlip},
		DedupSites: true,
	}
}

// TestOrder2ShardRecombination: each pair shard i of n re-runs the
// whole solo sweep and holds exactly the unsharded run's pairs i, i+n,
// i+2n, ..., with a pair tally that counts them.
func TestOrder2ShardRecombination(t *testing.T) {
	camp := shardCampaign()
	full, err := campaign.RunOrder2(camp, campaign.Options{MaxPairs: 300})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	if len(full.Pairs) < n {
		t.Fatalf("%d pairs: too few to shard %d ways", len(full.Pairs), n)
	}
	for i := 0; i < n; i++ {
		rep, err := campaign.RunOrder2(camp, campaign.Options{Shard: campaign.Shard{Index: i, Count: n}, Workers: 2, MaxPairs: 300})
		if err != nil {
			t.Fatal(err)
		}
		campaigntest.AssertShard(t, fmt.Sprintf("pair shard %d/%d", i, n), full, rep, i, n)
	}
}

// TestOrder3ShardSelection: an order-3 shard runs the solo sweep and
// the pair stage whole — triple pruning needs every lower outcome —
// and holds exactly the unsharded run's triples i, i+n, i+2n, ...,
// with a triple tally that counts them.
func TestOrder3ShardSelection(t *testing.T) {
	camp := shardCampaign()
	opt := campaign.Options{MaxPairs: 300, MaxTriples: 200}
	full, err := campaign.RunOrder3(camp, opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	if len(full.Report.Pairs) < n || len(full.Report.Triples) < n {
		t.Fatalf("%d pairs, %d triples: too few to shard %d ways",
			len(full.Report.Pairs), len(full.Report.Triples), n)
	}
	for i := 0; i < n; i++ {
		o := opt
		o.Shard = campaign.Shard{Index: i, Count: n}
		res, err := campaign.RunOrder3(camp, o)
		if err != nil {
			t.Fatal(err)
		}
		campaigntest.AssertShard(t, fmt.Sprintf("triple shard %d/%d", i, n), full.Report, res.Report, i, n)
	}
}
