package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer (or a request, the root of its
// calls). Spans stay in memory and are written out when the pass ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a request's root span
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // units of work the span covers, when it loops
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans from the single goroutine that drives the
// replay and the probes; the layers themselves may fan out internally.
type tracer struct {
	t0    time.Time
	req   string
	spans []span
	open  []int // indices of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one and returns its
// index in t.spans.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost span, recording count units of work, and
// returns its duration.
func (t *tracer) end(count int64) time.Duration {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
	t.spans[i].Count = count
	return t.spans[i].dur()
}

// span runs f inside a span and returns the span's duration.
func (t *tracer) span(name string, f func()) time.Duration {
	return t.spanN(name, 0, f)
}

// spanN is span for a loop of count units of work.
func (t *tracer) spanN(name string, count int64, f func()) time.Duration {
	t.begin(name)
	f()
	return t.end(count)
}

// layers are the span name prefixes that name a module of the repo; a
// span called "<layer>.<call>" times a call into that layer.
var layers = map[string]bool{
	"elf": true, "cases": true, "emu": true, "fault": true, "campaign": true,
	"static": true, "bir": true, "patch": true, "lift": true, "passes": true,
	"lower": true, "oracle": true, "report": true,
}

func isLayer(name string) bool {
	prefix, _, ok := strings.Cut(name, ".")
	return ok && layers[prefix]
}

// unaccounted returns the share of a root span's interval that no layer
// span of the same request covers: the glue between calls.
func (t *tracer) unaccounted(root span) float64 {
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Req == root.Req && s.ID != root.ID && isLayer(s.Name) && s.Start >= root.Start && s.End <= root.End {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64
	reach = root.Start
	for _, v := range iv {
		if v[0] > reach {
			reach = v[0]
		}
		if v[1] > reach {
			covered += v[1] - reach
			reach = v[1]
		}
	}
	total := root.End - root.Start
	if total <= 0 {
		return 0
	}
	return float64(total-covered) / float64(total)
}

// write stores every span as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
