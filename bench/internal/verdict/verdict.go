// Package verdict reduces r2r command output to the part that must be
// bit-identical however it was computed: the fault verdicts and the
// hardening results, without the execution accounting that legitimately
// differs between a cold and a warm run, a pruned and an exhaustive run,
// or two runs of the same work.
package verdict

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// volatile names the JSON fields Normalize drops wherever they appear:
// wall-clock time and the store, memo and pruning accounting (`cache`,
// per-iteration `cache_hit`/`cache_hits`/`reused`/`resimulated`,
// `prune`). The repo's determinism smokes strip the same fields before
// diffing runs.
var volatile = map[string]bool{
	"elapsed_ms":  true,
	"cache":       true,
	"cache_hit":   true,
	"cache_hits":  true,
	"reused":      true,
	"resimulated": true,
	"prune":       true,
}

// Normalize parses one JSON document, drops the volatile fields at any
// depth and re-encodes it canonically (sorted keys, no indentation, the
// numbers exactly as written).
func Normalize(out []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("verdict: parse output: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("verdict: trailing data after the JSON document")
	}
	strip(v)
	return json.Marshal(v)
}

func strip(v any) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			if volatile[k] {
				delete(t, k)
				continue
			}
			strip(c)
		}
	case []any:
		for _, c := range t {
			strip(c)
		}
	}
}

// Manifest hands a traced run's sampled requests, with the verdicts
// their r2r subprocesses produced, to the in-process replay
// (bench/layers), which must reproduce every verdict.
type Manifest struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	R2R      string    `json:"r2r"`   // the built r2r binary the requests ran on
	Work     string    `json:"work"`  // work directory for replayed artifacts
	Trace    string    `json:"trace"` // where the replay writes its spans
	Requests []Request `json:"requests"`
	Probes   []Input   `json:"probes"` // binaries the layer probes run on
}

// Layers is the last line bench/layers prints: the replays that failed,
// each with its request id, and the per-layer metrics.
type Layers struct {
	Failed  []string           `json:"failed"`
	Metrics map[string]float64 `json:"metrics"`
}

// Input is one generated binary with its oracle inputs.
type Input struct {
	Name string `json:"name"`
	Case string `json:"case"`
	Path string `json:"path"`
	Good []byte `json:"good"`
	Bad  []byte `json:"bad"`
}

// Request kinds: what one request asks r2r to do.
const (
	KindSweep  = "sweep"  // exhaustive order-1 campaign, all fault models
	KindO2     = "o2"     // pruned order-2 campaign
	KindO3     = "o3"     // pruned order-3 corpus sweep over the catalog
	KindHarden = "harden" // both hardening pipelines, static gates, oracle
	KindRerun  = "rerun"  // warm campaign + patch answered from the store
)

// Request is one measured request: what it asked (Kind over In, with
// CacheDir for store-backed requests), the r2r invocations that asked
// it, and what the subprocesses answered.
type Request struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	In       *Input     `json:"in,omitempty"`
	CacheDir string     `json:"cache_dir,omitempty"`
	Commands [][][]byte `json:"commands"` // r2r arguments, one list per invocation
	Out      string     `json:"out"`
	P        string     `json:"p,omitempty"`
	H        string     `json:"h,omitempty"`
}

// Args encodes r2r arguments for a Request. They travel as bytes because
// an oracle input need not be UTF-8, and a JSON string would replace its
// invalid bytes.
func Args(args []string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

// Digest is the hex SHA-256 of the concatenated parts, each prefixed
// with its length so part boundaries cannot shift.
func Digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FileDigest digests a written artifact; an empty path digests to "".
func FileDigest(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return Digest(data), nil
}
