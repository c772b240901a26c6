// Command bench is the end-to-end benchmark of the r2r command line
// tool. It builds cmd/r2r from the checkout, generates seeded inputs,
// sends one workload's requests to r2r as subprocesses, checks every
// verdict, and prints the metrics BENCHMARK.json declares.
//
// Run it from the repository root through its wrapper, which keeps the
// Go build cache inside the checkout:
//
//	bash bench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1                 # every workload, plus the traced pass
//	bash bench/run.sh --seed 1 --update        # rewrite bench/testdata/verdicts-seed1.json
//	bash bench/run.sh compare A.json B.json    # compare two sets of runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/r2r/reinforce/bench/internal/stats"
	"github.com/r2r/reinforce/bench/internal/verdict"
)

const (
	buildDir = ".bench_build"

	// setupRepeats is how often a run sets up; setup_s is their median.
	setupRepeats = 3

	// minRounds keeps a short run from reporting percentiles of a
	// handful of requests.
	minRounds = 2
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, each with and without tracing)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs and the request order")
	seconds := fs.Int("seconds", 25, "how long the measured phase of one run lasts")
	trace := fs.Int("trace", 0, "0: measure the end-to-end metrics; 1: run the traced pass for the per-layer metrics")
	out := fs.String("out", filepath.Join(buildDir, "out"), "directory for results.json and the trace files")
	update := fs.Bool("update", false, "rewrite the committed golden verdicts of -seed instead of measuring")
	fs.Parse(os.Args[1:])

	if err := run(*name, *seed, *seconds, *trace, *out, *update); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, out string, update bool) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	for _, need := range []string{"BENCHMARK.json", filepath.Join("cmd", "r2r"), "go.mod"} {
		if _, err := os.Stat(need); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	work := filepath.Join(buildDir, "work")
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r2r, err := goBuild(".", "./cmd/r2r", "r2r")
	if err != nil {
		return err
	}
	if update {
		return updateGoldens(seed, r2r)
	}
	gold, err := loadGoldens(seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	b := &bench{spec: spec, r2r: r2r, gold: gold, seed: seed, budget: time.Duration(seconds) * time.Second, out: out}
	var recs []*record
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		rec, err := b.runOne(w, trace == 1)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	} else {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				rec, err := b.runOne(w, traced)
				if err != nil {
					return err
				}
				recs = append(recs, rec)
			}
		}
	}
	if err := appendResults(filepath.Join(out, "results.json"), recs); err != nil {
		return err
	}
	return printLast(recs)
}

// goBuild builds a main package into the build directory and returns
// the binary's path. dir is the module directory the build runs in.
func goBuild(dir, pkg, binName string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", binName))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return bin, nil
}

// bench is one invocation's shared configuration.
type bench struct {
	spec   *spec
	r2r    string
	layers string // traced-pass binary, built on first use
	gold   *goldens
	seed   uint64
	budget time.Duration
	out    string
}

// setup prepares a workload from scratch: generate and write the seeded
// inputs, run the rerun workload's cold fill, and send one untimed
// warm-up request (the first prototype run of a workload was 25% slower
// than the next ones). The warm-up is the first round's request on the
// first catalog case, whose variants all cost about the same, so its
// cost barely depends on the seed.
func setup(w *workload, seed uint64, r2r string) (*env, error) {
	set, err := genInputs(seed)
	if err != nil {
		return nil, err
	}
	e := &env{r2r: r2r, work: filepath.Join(buildDir, "work"), set: set}
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	if err := set.writeInputs(filepath.Join(e.work, "inputs")); err != nil {
		return nil, err
	}
	for _, d := range []string{"art", "cache"} {
		if err := os.MkdirAll(filepath.Join(e.work, d), 0o755); err != nil {
			return nil, err
		}
	}
	if w.name == "rerun" {
		if err := e.fill(); err != nil {
			return nil, err
		}
	}
	for _, req := range w.round(e, 0) {
		if req.In != nil && req.In.Case == set.cases[0][0].Case {
			if res := e.do(req); res.Err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", req.ID, res.Err)
			}
		}
	}
	return e, nil
}

// verify checks a finished request against the references it must
// reproduce: the cold fill for a warm rerun, and the committed golden
// verdict when the seed has one.
func (e *env) verify(req request, res *result) error {
	if res.Err != nil {
		return res.Err
	}
	if req.Kind == verdict.KindRerun {
		if c := e.cold[req.In.Name]; c == nil || c.Out != res.Out || c.P != res.P {
			return errors.New("warm output differs from the cold fill")
		}
	}
	if e.gold != nil {
		return e.gold.check(res)
	}
	return nil
}

// runOne runs one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics), and prints its metrics.
func (b *bench) runOne(w *workload, traced bool) (*record, error) {
	var rec *record
	var err error
	if traced {
		rec, err = b.traced(w)
	} else {
		rec, err = b.endToEnd(w)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.print(os.Stdout)
	return rec, nil
}

// endToEnd sets the workload up setupRepeats times, then sends its
// requests round by round until the time budget would be exceeded by
// one more round, timing the calibration loop between requests, and
// computes the end-to-end metrics.
func (b *bench) endToEnd(w *workload) (*record, error) {
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		before := slowdown(3)
		start := time.Now()
		var err error
		if e, err = setup(w, b.seed, b.r2r); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d/((before+slowdown(3))/2))
	}
	e.gold = b.gold

	var rounds [][]*result
	var results []*result
	cal := slowdown(1)
	start := time.Now()
	for r := 0; ; r++ {
		if el := time.Since(start); r >= minRounds && el+el/time.Duration(r) > b.budget {
			break
		}
		var round []*result
		for _, req := range w.round(e, r) {
			res := e.send(req)
			next := slowdown(1)
			res.Slowdown = (cal + next) / 2
			cal = next
			round = append(round, res)
		}
		rounds = append(rounds, round)
		results = append(results, round...)
	}

	rec := newRecord(w.name, b.seed, 0, results)
	var slow []float64
	for _, res := range results {
		slow = append(slow, res.Slowdown)
	}
	rec.Slowdown = stats.Median(slow)
	e.invariants(rec)
	return rec, rec.setMetrics(b.spec.EndToEnd, endToEndMetrics(setups, rounds))
}

// send runs and verifies one measured request, reporting a failure on
// standard error with the request id.
func (e *env) send(req request) *result {
	res := e.do(req)
	if err := e.verify(req, res); err != nil {
		res.Err = err
		fmt.Fprintf(os.Stderr, "bench: FAIL %s: %v\n", res.ID, err)
	}
	return res
}

// invariants runs the seed-independent checks every run makes beyond
// the per-request ones, counting each as an attempted request: the
// pincheck parent under single-bit flips gives exactly 872 injections
// and 6 successes.
func (e *env) invariants(rec *record) {
	var pin *input
	for _, ins := range e.set.cases {
		for _, in := range ins {
			if in.Name == "pincheck" {
				pin = in
			}
		}
	}
	rec.Attempted++
	var out []byte
	err := errors.New("pincheck parent missing from the input set")
	if pin != nil {
		out, _, err = e.exec(append(append([]string{"campaign"}, oracleArgs(pin)...), "-model", "bitflip", "-q", "-json", pin.Path))
	}
	if err == nil {
		var sums []struct {
			Injections int `json:"injections"`
			Success    int `json:"success"`
		}
		err = json.Unmarshal(out, &sums)
		if err == nil && (len(sums) != 1 || sums[0].Injections != 872 || sums[0].Success != 6) {
			err = fmt.Errorf("want 872 injections / 6 successes, got %+v", sums)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAIL check/pincheck-bitflip: %v\n", err)
		rec.Failed++
		rec.Correct = false
	}
}
