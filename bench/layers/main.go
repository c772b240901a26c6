// Command layers is the benchmark's traced pass. Given a manifest of
// requests the benchmark already sent to r2r as subprocesses, it times
// each one's r2r invocations again and then replays it in-process —
// calling the same functions the r2r command reaches, in the same order,
// with a span around every call into a layer — and checks that the
// replay reproduces the subprocess verdict.
// It then probes every layer directly on the run's binaries. It prints
// the per-layer metrics as the last line of standard output and writes
// every span to the manifest's trace file.
//
// The benchmark builds and runs it for `--trace 1`; it is not meant to
// be run by hand.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"github.com/r2r/reinforce/bench/internal/stats"
	"github.com/r2r/reinforce/bench/internal/verdict"
)

func main() {
	path := flag.String("manifest", "", "manifest written by the benchmark")
	flag.Parse()
	if err := run(*path); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m verdict.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	out, err := measure(m)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure replays the manifest's requests, runs the layer probes and
// writes the trace file.
func measure(m verdict.Manifest) (*verdict.Layers, error) {
	if err := os.MkdirAll(m.Work, 0o755); err != nil {
		return nil, err
	}
	rp := &replayer{t: newTracer(), work: m.Work}
	out := &verdict.Layers{Failed: []string{}}
	var overhead []float64
	unaccounted := 0.0
	for _, req := range m.Requests {
		// The request's subprocesses run again right before its replay,
		// so the machine's drift between the two runs stays small.
		sub, err := subprocess(m.R2R, req.Commands)
		if err != nil {
			out.Failed = append(out.Failed, fmt.Sprintf("%s: %v", req.ID, err))
			continue
		}
		got, err := rp.replay(req)
		switch {
		case err != nil:
			out.Failed = append(out.Failed, fmt.Sprintf("%s: %v", req.ID, err))
		case got.Out != req.Out || got.P != req.P || got.H != req.H:
			out.Failed = append(out.Failed, req.ID+": replayed verdict differs from the subprocess verdict")
		}
		overhead = append(overhead, float64(sub-got.Root.dur())/float64(time.Millisecond))
		unaccounted = max(unaccounted, rp.t.unaccounted(got.Root))
	}

	p, err := newProber(rp, m.Seed, m.Probes)
	if err != nil {
		return nil, err
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	out.Metrics = p.m
	out.Metrics["trace.cli_overhead_ms"] = stats.Median(overhead)
	out.Metrics["trace.unaccounted_frac"] = unaccounted
	out.Metrics["trace.replay_mismatches"] = float64(len(out.Failed))
	return out, rp.t.write(m.Trace, m.Workload, m.Seed)
}

// subprocessTimeout bounds one r2r invocation, as the benchmark's own
// command timeout does.
const subprocessTimeout = 60 * time.Second

// subprocess runs a request's r2r invocations one after another, as the
// benchmark sends them, and returns their summed wall time.
func subprocess(r2r string, cmds [][][]byte) (time.Duration, error) {
	var total time.Duration
	for _, raw := range cmds {
		args := make([]string, len(raw))
		for i, a := range raw {
			args[i] = string(a)
		}
		ctx, cancel := context.WithTimeout(context.Background(), subprocessTimeout)
		cmd := exec.CommandContext(ctx, r2r, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		total += time.Since(start)
		cancel()
		if err != nil {
			msg, _, _ := strings.Cut(strings.TrimSpace(stderr.String()), "\n")
			return 0, fmt.Errorf("r2r %s: %w: %s", args[0], err, msg)
		}
	}
	return total, nil
}
