package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/r2r/reinforce/bench/internal/stats"
)

// compareMain implements `bench compare A.json B.json`: A is the
// baseline set of runs (the parent), B the candidate (the change), each
// a results.json. For every metric and workload both sets measured, it
// prints each side's median and quartiles, the share of paired runs B
// wins, and a verdict:
//
//   - better: B wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than A's quartile spread,
//     or A's spread exceeds the bound but every B run beats every A run;
//   - unresolved: A's own spread is wider than the metric's bound, or,
//     for a metric without a bound, B neither clearly wins nor loses;
//   - worse: B's median is worse than A's by more than the bound, or,
//     without a bound, A wins nine tenths of the pairs by more than the
//     spread;
//   - same: otherwise.
//
// Runs pair up by seed and trace mode, in the order each file lists
// them.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.json B.json")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	rows := compareRuns(spec, a.Runs, b.Runs)
	if len(rows) == 0 {
		return errors.New("the two files share no workload and metric")
	}
	fmt.Printf("%-11s %-34s %5s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "pairs", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "B.wins", "verdict")
	worse := 0
	for _, r := range rows {
		fmt.Printf("%-11s %-34s %5d %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g %5.0f%%  %s\n",
			r.workload, r.metric, r.pairs, r.a.q1, r.a.med, r.a.q3, r.b.q1, r.b.med, r.b.q3, 100*r.wins, r.verdict)
		if r.verdict == "worse" {
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse", worse)
	}
	return nil
}

// summary is one side's order statistics.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	q1, q3 := stats.Quartiles(xs)
	return summary{q1: q1, med: stats.Median(xs), q3: q3}
}

type compareRow struct {
	workload, metric string
	pairs            int
	a, b             summary
	wins             float64 // share of pairs B wins
	verdict          string
}

// compareRuns builds one row per (workload, metric) both sides carry.
func compareRuns(spec *spec, aRuns, bRuns []*record) []compareRow {
	type key struct {
		workload, metric string
	}
	type pairKey struct {
		workload string
		seed     uint64
		trace    int
	}
	series := func(runs []*record) (map[key][]float64, map[key][]pairKey) {
		vals, ids := map[key][]float64{}, map[key][]pairKey{}
		for _, r := range runs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], v.Value)
				ids[k] = append(ids[k], pairKey{r.Workload, r.Seed, r.Trace})
			}
		}
		return vals, ids
	}
	aVals, aIDs := series(aRuns)
	bVals, bIDs := series(bRuns)

	var keys []key
	for k := range aVals {
		if _, ok := bVals[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	var rows []compareRow
	for _, k := range keys {
		m, ok := spec.metric(k.metric)
		if !ok {
			continue
		}
		av, bv := aVals[k], bVals[k]
		better := func(x, y float64) bool { // x better than y
			if m.Better == "higher" {
				return x > y
			}
			return x < y
		}
		// Pair the i-th run of a (seed, trace) in A with the i-th in B.
		bySeed := map[pairKey][]float64{}
		for i, id := range bIDs[k] {
			bySeed[id] = append(bySeed[id], bv[i])
		}
		used := map[pairKey]int{}
		pairs, bWins, aWins := 0, 0, 0
		for i, id := range aIDs[k] {
			j := used[id]
			if j >= len(bySeed[id]) {
				continue
			}
			used[id]++
			pairs++
			switch {
			case better(bySeed[id][j], av[i]):
				bWins++
			case better(av[i], bySeed[id][j]):
				aWins++
			}
		}
		row := compareRow{workload: k.workload, metric: k.metric, pairs: pairs, a: summarize(av), b: summarize(bv)}
		if pairs > 0 {
			row.wins = float64(bWins) / float64(pairs)
		}
		row.verdict = judge(m, row, aWins, bWins, av, bv, better)
		rows = append(rows, row)
	}
	return rows
}

// judge applies the rules compareMain documents.
func judge(m metricSpec, r compareRow, aWins, bWins int, av, bv []float64, better func(x, y float64) bool) string {
	spread := r.a.q3 - r.a.q1
	delta := math.Abs(r.b.med - r.a.med)
	clear := func(wins int) bool { return r.pairs > 0 && float64(wins) >= 0.9*float64(r.pairs) && delta > spread }
	switch {
	case clear(bWins) && better(r.b.med, r.a.med):
		return "better"
	case m.Bound == nil:
		if clear(aWins) && better(r.a.med, r.b.med) {
			return "worse"
		}
		return "unresolved"
	}
	bound := *m.Bound * math.Abs(r.a.med)
	if spread > bound || math.IsNaN(spread) {
		if allBetter(bv, av, better) {
			return "better"
		}
		return "unresolved"
	}
	if better(r.a.med, r.b.med) && delta > bound {
		return "worse"
	}
	return "same"
}

// allBetter reports whether every x beats every y.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(xs) > 0 && len(ys) > 0
}
