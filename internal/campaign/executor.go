// Executor: the middle stage of the plan → execute → store
// architecture. It drives a fault.Session for one plan, answering as
// many injections as possible without simulating:
//
//   - a whole-plan store hit rebuilds the report from the stored
//     outcome vector (the session still provides the trace, oracles,
//     and fault list — all cheap relative to the injections);
//   - on a miss, a Memo from a previous campaign against a *different*
//     binary answers individual injections whose evidence still holds:
//     a cached outcome is reused iff none of the code pages its run
//     fetched (including the golden prefix its snapshot inherited)
//     overlap the bytes changed since, and its step count fits the new
//     injection budget. This is the patch driver's incremental rule —
//     only faults whose reference-trace window overlaps the last patch
//     round's changed bytes are re-simulated.
//
// The reuse rule leans on the same assumption binary rewriting itself
// makes (reassembleable disassembly): code is not read as data. A
// changed page that any non-executable section overlaps disables the
// memo entirely, because data reads are not part of the recorded
// footprint.
package campaign

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/elf"
	"github.com/r2r/reinforce/internal/emu"
	"github.com/r2r/reinforce/internal/fault"
)

// Memo carries the per-fault simulation records of one finished
// campaign, together with the context they were computed in (binary
// page image, oracles, inputs, injection budget), so a later campaign
// against a patched variant of the binary can reuse every outcome the
// patch round did not touch.
type Memo struct {
	image     map[uint64][]byte // page address → page bytes, all sections overlaid
	dataPages map[uint64]bool   // pages overlapped by a non-executable section
	good      fault.Observable
	goodIn    string // campaign inputs the records assume
	badIn     string
	limit     uint64 // injection step budget the records ran under
	sel       []fault.Fault
	records   []Record // records[i] is the evidence behind sel[i]

	// index maps a fault of sel to its position. It is built by the
	// first lookup, so a patch run whose every iteration is a store hit
	// (and never consults its previous memo) never builds it.
	indexOnce sync.Once
	index     map[fault.Fault]int
}

// buildImage lays a binary's sections into zero-filled page images and
// marks the pages any non-executable section overlaps.
func buildImage(bin *elf.Binary) (map[uint64][]byte, map[uint64]bool) {
	img := make(map[uint64][]byte)
	data := make(map[uint64]bool)
	for _, s := range bin.Sections {
		for a := s.Addr &^ uint64(emu.PageSize-1); a < s.Addr+s.Size(); a += emu.PageSize {
			if _, ok := img[a]; !ok {
				img[a] = make([]byte, emu.PageSize)
			}
			if s.Flags&elf.FlagExec == 0 {
				data[a] = true
			}
		}
		for i, b := range s.Data {
			addr := s.Addr + uint64(i)
			img[addr&^uint64(emu.PageSize-1)][addr&uint64(emu.PageSize-1)] = b
		}
	}
	return img, data
}

// newMemo assembles the memo for a finished campaign: the shard-local
// fault selection and its records, index-aligned (the fault index is
// left to the first lookup). img/data is the binary's page image (from
// buildImage), passed in so one solo() pass builds it exactly once.
func newMemo(c fault.Campaign, good fault.Observable, limit uint64, sel []fault.Fault, records []Record, img map[uint64][]byte, data map[uint64]bool) *Memo {
	return &Memo{
		image:     img,
		dataPages: data,
		good:      good,
		goodIn:    string(c.Good),
		badIn:     string(c.Bad),
		limit:     limit,
		sel:       sel,
		records:   records,
	}
}

// diff compares the memo's binary image against a new campaign's and
// returns the set of changed pages (differing bytes, or present in only
// one image) plus whether any changed page carries data — in which case
// the memo must not be used at all (data reads are outside the recorded
// footprint).
func (m *Memo) diff(img map[uint64][]byte, data map[uint64]bool) (changed map[uint64]bool, dataChanged bool) {
	changed = make(map[uint64]bool)
	for a, p := range m.image {
		if q, ok := img[a]; !ok || !bytes.Equal(p, q) {
			changed[a] = true
		}
	}
	for a := range img {
		if _, ok := m.image[a]; !ok {
			changed[a] = true
		}
	}
	for a := range changed {
		if m.dataPages[a] || data[a] {
			dataChanged = true
		}
	}
	return changed, dataChanged
}

// lookup decides whether a cached record still answers fault f against
// the changed-page set and the new injection budget:
//
//   - any footprint page among the changed pages invalidates the record
//     (the run would fetch different bytes somewhere);
//   - a budget-cut run is only valid under a budget that cuts at least
//     as early (a larger budget could let it progress further);
//   - a finished non-crash run is only valid under a budget it fits in
//     (a smaller budget would cut it into a crash); a crash stays a
//     crash under any budget — cutting it earlier still crashes it.
func (m *Memo) lookup(f fault.Fault, changed map[uint64]bool, limit uint64) (Record, bool) {
	m.indexOnce.Do(func() {
		m.index = make(map[fault.Fault]int, len(m.sel))
		for i, g := range m.sel {
			m.index[g] = i
		}
	})
	i, ok := m.index[f]
	if !ok {
		return Record{}, false
	}
	rec := m.records[i]
	for _, pa := range rec.Pages {
		if changed[pa] {
			return Record{}, false
		}
	}
	if rec.LimitHit {
		if limit > m.limit {
			return Record{}, false
		}
	} else if rec.Outcome != fault.OutcomeCrash && rec.Steps > limit {
		return Record{}, false
	}
	return rec, true
}

// executor runs one plan on a session, consulting the store and a memo.
// With prune set, the order-1 sweep routes through the static pruning
// screens; multi-fault stages always run on the pruned first-fault
// tree. The accumulated accounting lands in stats. The stages (solo,
// then stage per order) are called sequentially by one goroutine — the
// pruners they build handle the intra-stage concurrency — so stats and
// pruner need no locking here.
type executor struct {
	s     *fault.Session
	store *Store
	prune bool

	stats  fault.PruneStats
	pruner *fault.PairPruner // built by the first stage that simulates, shared by the later ones
	fd     string            // digest of the session's fault list, once computed
}

// faultsDigest digests the session's fault list on first use; every
// stage of one run stores it.
func (e *executor) faultsDigest() string {
	if e.fd == "" {
		e.fd = digestFaults(e.s.Faults())
	}
	return e.fd
}

// pruneStats returns the accumulated pruning accounting, or nil when
// pruning was off (so exports omit the block entirely). The multi-fault
// pruner's share is read live rather than accumulated into stats: the
// pair and triple stages deliberately share one pruner, and snapshotting
// it once here keeps their joint accounting from double-counting.
func (e *executor) pruneStats() *fault.PruneStats {
	if !e.prune {
		return nil
	}
	st := e.stats
	if e.pruner != nil {
		st.Add(e.pruner.Stats())
	}
	return &st
}

// soloSim returns the order-1 simulation functions for this run:
// pruned or plain. flush adds the pruner's accounting to the
// executor's after the sweep (no-op when unpruned).
func (e *executor) soloSim() (sim func(fault.Fault) fault.Outcome, rec func(fault.Fault) fault.SimRecord, flush func()) {
	if !e.prune {
		return e.s.Simulate, e.s.SimulateRecord, func() {}
	}
	pr := e.s.NewPruner()
	return pr.Simulate, pr.SimulateRecord, func() { e.stats.Add(pr.Stats()) }
}

// shardSelect adapts the engine's single round-robin decomposition
// (fault.ShardSelect — also behind runShard and ExecuteSequences) to
// the campaign Shard type, so stored outcome vectors are always zipped
// back against exactly the selection the engine executed.
func shardSelect[T any](items []T, shard Shard) []T {
	return fault.ShardSelect(items, shard.Index, shard.Count)
}

// solo executes the order-1 stage of a plan: store lookup first, then
// memo-assisted simulation of the misses. It returns the shard-local
// injections, the memo for the next incremental run (nil when
// wantMemo is false and nothing needed recording), and the cache
// accounting. With no store, no previous memo, and no memo requested,
// it takes the plain-simulation fast path — the pre-existing hot path,
// with no footprint recording or image copying.
func (e *executor) solo(c fault.Campaign, shard Shard, workers int, prev *Memo, wantMemo bool, progress func(done, total int)) ([]fault.Injection, fault.Tally, *Memo, CacheStats, error) {
	if e.store == nil && prev == nil && !wantMemo {
		sim, _, flush := e.soloSim()
		injections, tally := e.s.ExecuteShardSim(shard.Index, shard.Count, workers, sim, progress)
		flush()
		return injections, tally, nil, CacheStats{Resimulated: len(injections)}, nil
	}

	sel := shardSelect(e.s.Faults(), shard)
	good, bad := e.s.Oracles()
	limit := e.s.InjectionLimit()

	// The binary's page image serves the memo gate and any memo built
	// below; construct it lazily and at most once per run.
	var img map[uint64][]byte
	var dataPages map[uint64]bool
	image := func() (map[uint64][]byte, map[uint64]bool) {
		if img == nil {
			img, dataPages = buildImage(c.Binary)
		}
		return img, dataPages
	}

	// The plan key and the fault digest only serve the store: the
	// memo-only path skips both.
	var plan Plan
	if e.store != nil {
		plan = NewPlan(c, shard, 1, 0)
		if entry, ok := e.store.Lookup(plan.Key); ok {
			inj, tally, err := rebuildSolo(entry, e.faultsDigest(), good, bad, limit, sel)
			if err == nil {
				if progress != nil {
					progress(len(sel), len(sel))
				}
				var memo *Memo
				if wantMemo {
					hitImg, hitData := image()
					memo = newMemo(c, good, limit, sel, entry.Records, hitImg, hitData)
				}
				return inj, tally, memo, CacheStats{Hits: 1}, nil
			}
			// Stale entry (schema drift): fall through and re-simulate.
		}
	}

	var changed map[uint64]bool
	useMemo := false
	if prev != nil {
		gateImg, gateData := image()
		changed, useMemo = memoGate(c, prev, good, gateImg, gateData)
	}
	records := make([]Record, len(sel))
	var reused, resim atomic.Int64
	_, simRecord, flush := e.soloSim()
	sim := func(i int, f fault.Fault) fault.Outcome {
		if useMemo {
			if rec, ok := prev.lookup(f, changed, limit); ok {
				records[i] = rec
				reused.Add(1)
				return rec.Outcome
			}
		}
		sr := simRecord(f)
		records[i] = Record{Outcome: sr.Outcome, Steps: sr.Steps, LimitHit: sr.LimitHit, Pages: sr.Pages}
		resim.Add(1)
		return sr.Outcome
	}
	injections, tally := e.s.ExecuteShardIndexed(shard.Index, shard.Count, workers, sim, progress)
	flush()

	stats := CacheStats{Reused: int(reused.Load()), Resimulated: int(resim.Load())}
	if e.store != nil {
		stats.Misses = 1
		if err := e.store.Save(&Entry{
			Key: plan.Key, FaultsDigest: e.faultsDigest(),
			GoodOracle: good, BadOracle: bad, Limit: limit,
			Records: records,
		}); err != nil {
			stats.WriteErrors++
		}
	}
	var memo *Memo
	if wantMemo {
		memoImg, memoData := image()
		memo = newMemo(c, good, limit, sel, records, memoImg, memoData)
	}
	return injections, tally, memo, stats, nil
}

// memoGate decides whether the previous memo applies to this campaign
// at all, and computes the changed-page set if so. img/data is the new
// binary's page image.
func memoGate(c fault.Campaign, prev *Memo, good fault.Observable, img map[uint64][]byte, data map[uint64]bool) (map[uint64]bool, bool) {
	if prev == nil || prev.good != good ||
		prev.goodIn != string(c.Good) || prev.badIn != string(c.Bad) {
		return nil, false
	}
	changed, dataChanged := prev.diff(img, data)
	if dataChanged {
		return nil, false
	}
	return changed, true
}

// rebuildSolo zips a stored entry against the session's shard-local
// fault selection, after verifying every guard that makes the zip
// sound.
func rebuildSolo(entry *Entry, faultsDigest string, good, bad fault.Observable, limit uint64, sel []fault.Fault) ([]fault.Injection, fault.Tally, error) {
	if entry.FaultsDigest != faultsDigest || entry.GoodOracle != good ||
		entry.BadOracle != bad || entry.Limit != limit || len(entry.Records) != len(sel) {
		return nil, fault.Tally{}, errStale
	}
	injections := make([]fault.Injection, len(sel))
	var tally fault.Tally
	for i, f := range sel {
		injections[i] = fault.Injection{Fault: f, Outcome: entry.Records[i].Outcome}
		tally[entry.Records[i].Outcome]++
	}
	return injections, tally, nil
}

// stage executes one multi-fault stage of a plan (order 2: pairs,
// order 3: triples) over the completed solo sweep, returning the
// shard-local sequence selection and its outcome column. Store reuse is
// exact-key only: sequence runs fork mid-trace snapshots of a faulted
// machine, so no per-sequence footprint is recorded. The plan's budget
// slot carries the stage's own enumeration cap — sound because every
// sequence list derives from the solo sweep alone. The pruner is built
// only when a stage simulates, then shared by the later stages so the
// reference digests and equivalence classes found at order 2 keep
// paying at order 3; lower, the completed pair stage (nil for pairs),
// lets reference-equal triples inherit their remaining pair's outcome.
func stage[T fault.Sequence](e *executor, c fault.Campaign, order, maxSeqs int, list []T, shard Shard, workers int, solo []fault.Injection, lower []fault.PairInjection, progress func(done, total int)) ([]T, []fault.Outcome, fault.Tally, CacheStats) {
	run := func() ([]T, []fault.Outcome, fault.Tally) {
		if e.pruner == nil {
			e.pruner = e.s.NewPairPruner(solo)
		}
		e.pruner.SetPairOutcomes(lower)
		return fault.ExecuteSequences(e.s, list, e.pruner, shard.Index, shard.Count, workers, progress)
	}
	if e.store == nil {
		// No cache: skip the plan/sequence digests entirely — the plain
		// simulation hot path, like solo()'s.
		sel, outcomes, tally := run()
		return sel, outcomes, tally, CacheStats{}
	}

	plan := NewPlan(c, shard, order, maxSeqs)
	sd := digestSeqs(list)
	sel := shardSelect(list, shard)
	good, bad := e.s.Oracles()
	limit := e.s.InjectionLimit()

	if entry, ok := e.store.Lookup(plan.Key); ok {
		if entry.SeqDigest == sd && entry.GoodOracle == good && entry.BadOracle == bad &&
			entry.Limit == limit && len(entry.Outcomes) == len(sel) {
			var tally fault.Tally
			for _, o := range entry.Outcomes {
				tally[o]++
			}
			if progress != nil {
				progress(len(sel), len(sel))
			}
			return sel, entry.Outcomes, tally, CacheStats{Hits: 1}
		}
		// Stale entry: fall through and re-simulate.
	}

	sel, outcomes, tally := run()
	stats := CacheStats{Misses: 1}
	if err := e.store.Save(&Entry{
		Key: plan.Key, FaultsDigest: e.faultsDigest(), SeqDigest: sd,
		GoodOracle: good, BadOracle: bad, Limit: limit,
		Outcomes: outcomes,
	}); err != nil {
		stats.WriteErrors++
	}
	return sel, outcomes, tally, stats
}
