package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	spec := &spec{EndToEnd: []metricSpec{{Name: "lat", Unit: "ms", Better: "lower", Bound: &bound}},
		PerLayer: []metricSpec{{Name: "layer", Unit: "us", Better: "lower"}}}
	runs := func(metric string, vals ...float64) []*record {
		var out []*record
		for i, v := range vals {
			out = append(out, &record{Workload: "w", Seed: uint64(i + 1),
				Metrics: map[string]metricValue{metric: {Value: v}}})
		}
		return out
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"identical", "lat", base, base, "same"},
		{"within bound", "lat", base, shift(5), "same"},
		{"beyond bound", "lat", base, shift(15), "worse"},
		{"clear gain", "lat", base, shift(-20), "better"},
		{"noisy baseline", "lat", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, base, "unresolved"},
		{"layer gain", "layer", base, shift(-20), "better"},
		{"layer loss", "layer", base, shift(20), "worse"},
		{"layer noise", "layer", base, shift(0.5), "unresolved"},
	} {
		rows := compareRuns(spec, runs(tc.metric, tc.a...), runs(tc.metric, tc.b...))
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", tc.name, len(rows))
		}
		if rows[0].pairs != len(tc.a) || rows[0].verdict != tc.want {
			t.Errorf("%s: %d pairs, verdict %s; want %d pairs, %s", tc.name, rows[0].pairs, rows[0].verdict, len(tc.a), tc.want)
		}
	}
}
