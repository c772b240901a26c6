package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/r2r/reinforce/bench/internal/verdict"
)

// commandTimeout bounds one r2r invocation. The slowest single command
// of any workload takes about a second on a 2-core machine, so reaching
// this means a hang, reported as a failed request.
const commandTimeout = 60 * time.Second

// request is one unit of user-visible work: one r2r command, or a chain
// of commands a user runs back to back for one answer.
type request struct {
	ID      string
	Kind    string
	In      *input // nil for an order-3 request, which reads the built-in catalog
	Latency bool   // counts toward the latency percentiles
}

// workload is one traffic mix: the requests of round r, sent one at a
// time by a single client (a closed loop).
type workload struct {
	name  string
	round func(e *env, r int) []request
}

var workloads = []*workload{
	{name: "sweep", round: func(e *env, r int) []request {
		return perInput(e.set.round(r), verdict.KindSweep, "sweep")
	}},
	{name: "multifault", round: func(e *env, r int) []request {
		reqs := perInput(e.set.round(r), verdict.KindO2, "multifault/o2")
		// One seed-independent order-3 corpus sweep per round, at a
		// seeded position; it is timed apart from the order-2 requests.
		at := rand.New(rand.NewPCG(e.set.seed, 0x03c0+uint64(r))).IntN(len(reqs) + 1)
		return slices.Insert(reqs, at, request{ID: "multifault/o3", Kind: verdict.KindO3})
	}},
	{name: "harden", round: func(e *env, r int) []request {
		return perInput(e.set.round(r), verdict.KindHarden, "harden")
	}},
	{name: "rerun", round: func(e *env, r int) []request {
		heads := e.set.heads()
		rng := rand.New(rand.NewPCG(e.set.seed, 0x4e4e+uint64(r)))
		rng.Shuffle(len(heads), func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
		return perInput(heads, verdict.KindRerun, "rerun")
	}},
}

// perInput makes one request of a kind per input, with ids
// "<prefix>/<input>".
func perInput(ins []*input, kind, prefix string) []request {
	out := make([]request, len(ins))
	for i, in := range ins {
		out[i] = request{ID: prefix + "/" + in.Name, Kind: kind, In: in, Latency: true}
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q: want one of %s", name, strings.Join(names, ", "))
}

// env is the state a workload runs against.
type env struct {
	r2r  string // built r2r binary
	work string // work directory of this run
	set  *inputSet
	gold *goldens // nil when the seed has no committed goldens

	// cold holds each rerun head's cold-fill verdict, which every warm
	// request on that head must reproduce. It is nil until the fill
	// completes, so a rerun request is warm exactly when it is set.
	cold map[string]*result
}

// result is the measured outcome of one request.
type result struct {
	ID       string
	Latency  bool
	Wall     time.Duration
	CPU      time.Duration // user + system, summed over the commands
	MaxRSSKB int64         // peak resident set of the request's largest r2r process
	Faults   int64         // fault verdicts the outputs report
	Slowdown float64       // the machine's slowdown around the request (see slowdown)

	Out  string // digest of the normalized outputs
	P, H string // digests of the hardened artifacts (harden, rerun)
	Err  error
}

// paths of one request's artifacts and cache.
func (e *env) artifact(in *input, suffix string) string {
	return filepath.Join(e.work, "art", in.Name+suffix)
}

func (e *env) cacheDir(in *input) string { return filepath.Join(e.work, "cache", in.Name) }

// command is one r2r invocation of a request. check, when set, vets
// its decoded JSON output beyond the exit status.
type command struct {
	args  []string
	json  bool // stdout is a verdict document (normalized and digested)
	check func(out []byte) (faults int64, err error)
}

func oracleArgs(in *input) []string {
	return []string{"-good", string(in.Good), "-bad", string(in.Bad)}
}

// commands spells out a request as the r2r invocations a user would
// type. A warm rerun request must be answered from the filled store
// without a single miss.
func (e *env) commands(req request) []command {
	in := req.In
	warm := e.cold != nil
	switch req.Kind {
	case verdict.KindSweep:
		return []command{{args: append(append([]string{"campaign"}, oracleArgs(in)...),
			"-model", "all", "-workers", "1", "-q", "-json", in.Path), json: true, check: campaignFaults(false)}}
	case verdict.KindO2:
		return []command{{args: append(append([]string{"campaign"}, oracleArgs(in)...),
			"-order", "2", "-prune", "-max-pairs", "32768", "-workers", "2", "-q", "-json", in.Path), json: true, check: campaignFaults(false)}}
	case verdict.KindO3:
		return []command{{args: []string{"corpus", "-order", "3", "-prune", "-max-triples", "4096",
			"-parallel-cells", "5", "-workers", "2", "-q", "-json"}, json: true, check: campaignFaults(false)}}
	case verdict.KindHarden:
		p, h := e.artifact(in, ".P"), e.artifact(in, ".H")
		return []command{
			{args: append(append([]string{"patch"}, oracleArgs(in)...), "-order", "2", "-json", "-o", p, in.Path), json: true, check: patchFaults(false)},
			{args: []string{"hybrid", "-harden", "order2", "-o", h, in.Path}},
			{args: []string{"verify", "-json", p}, json: true},
			{args: []string{"verify", "-json", h}, json: true},
			{args: []string{"oracle", "-n", "32", "-workers", "1", "-json", in.Path, h}, json: true, check: noDivergence},
			{args: []string{"oracle", "-n", "32", "-workers", "1", "-json", in.Path, p}, json: true, check: noDivergence},
		}
	case verdict.KindRerun:
		dir := e.cacheDir(in)
		return []command{
			{args: append(append([]string{"campaign"}, oracleArgs(in)...),
				"-order", "2", "-workers", "2", "-q", "-json", "-cache-dir", dir, in.Path), json: true, check: campaignFaults(warm)},
			{args: append(append([]string{"patch"}, oracleArgs(in)...),
				"-order", "2", "-json", "-o", e.artifact(in, ".rerun.P"), "-cache-dir", dir, in.Path), json: true, check: patchFaults(warm)},
		}
	}
	panic("bench: unknown request kind " + req.Kind)
}

// artifacts lists the hardened binaries a request writes.
func (e *env) artifacts(req request) (p, h string) {
	switch req.Kind {
	case verdict.KindHarden:
		return e.artifact(req.In, ".P"), e.artifact(req.In, ".H")
	case verdict.KindRerun:
		return e.artifact(req.In, ".rerun.P"), ""
	}
	return "", ""
}

// summaryJSON is the part of a campaign/corpus summary the benchmark
// reads: the verdict counts and the store accounting.
type summaryJSON struct {
	Name       string `json:"name"`
	Injections int64  `json:"injections"`
	Order2     *struct {
		Pairs int64 `json:"pairs"`
	} `json:"order2"`
	Order3 *struct {
		Triples int64 `json:"triples"`
	} `json:"order3"`
	Cache *struct {
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

// campaignFaults counts the verdicts of a campaign or corpus output:
// injections plus pairs plus triples of every per-binary row (a corpus
// run's aggregate row repeats them and is skipped). With warm set, any
// store miss is an error.
func campaignFaults(warm bool) func([]byte) (int64, error) {
	return func(out []byte) (int64, error) {
		var sums []summaryJSON
		if err := json.Unmarshal(out, &sums); err != nil {
			return 0, err
		}
		var n int64
		for _, s := range sums {
			if s.Name == "corpus" {
				continue
			}
			n += s.Injections
			if s.Order2 != nil {
				n += s.Order2.Pairs
			}
			if s.Order3 != nil {
				n += s.Order3.Triples
			}
			if warm && (s.Cache == nil || s.Cache.Misses != 0) {
				return 0, fmt.Errorf("warm campaign %s missed the store", s.Name)
			}
		}
		return n, nil
	}
}

// patchFaults counts the verdicts of the campaigns a patch run reports:
// order-1 injections per iteration plus pairs per escalation round.
func patchFaults(warm bool) func([]byte) (int64, error) {
	return func(out []byte) (int64, error) {
		var p struct {
			Iterations []struct {
				Injections int64 `json:"injections"`
			} `json:"iterations"`
			Order2 *struct {
				PairIterations []struct {
					Pairs int64 `json:"pairs"`
				} `json:"pair_iterations"`
			} `json:"order2"`
			Cache struct {
				Misses int64 `json:"misses"`
			} `json:"cache"`
		}
		if err := json.Unmarshal(out, &p); err != nil {
			return 0, err
		}
		var n int64
		for _, it := range p.Iterations {
			n += it.Injections
		}
		if p.Order2 != nil {
			for _, it := range p.Order2.PairIterations {
				n += it.Pairs
			}
		}
		if warm && p.Cache.Misses != 0 {
			return 0, fmt.Errorf("warm patch missed the store %d times", p.Cache.Misses)
		}
		return n, nil
	}
}

func noDivergence(out []byte) (int64, error) {
	var reps []struct {
		Case        string `json:"case"`
		Divergences int    `json:"divergences"`
	}
	if err := json.Unmarshal(out, &reps); err != nil {
		return 0, err
	}
	for _, r := range reps {
		if r.Divergences != 0 {
			return 0, fmt.Errorf("oracle: %s diverges on %d inputs", r.Case, r.Divergences)
		}
	}
	return 0, nil
}

// do runs one request: its commands in order, stopping at the first
// failure, then digests the verdict outputs and artifacts.
func (e *env) do(req request) *result {
	res := &result{ID: req.ID, Latency: req.Latency}
	var parts [][]byte
	start := time.Now()
	for _, c := range e.commands(req) {
		out, u, err := e.exec(c.args)
		res.CPU += u.cpu
		res.MaxRSSKB = max(res.MaxRSSKB, u.maxRSSKB)
		if err == nil && c.check != nil {
			var n int64
			n, err = c.check(out)
			res.Faults += n
		}
		if err == nil && c.json {
			var norm []byte
			norm, err = verdict.Normalize(out)
			parts = append(parts, norm)
		}
		if err != nil {
			res.Err = fmt.Errorf("r2r %s: %w", c.args[0], err)
			break
		}
	}
	res.Wall = time.Since(start)
	if res.Err != nil {
		return res
	}
	res.Out = verdict.Digest(parts...)
	p, h := e.artifacts(req)
	if res.P, res.Err = verdict.FileDigest(p); res.Err == nil {
		res.H, res.Err = verdict.FileDigest(h)
	}
	return res
}

// usage is the resource cost of one finished process.
type usage struct {
	cpu      time.Duration
	maxRSSKB int64
}

// exec runs r2r once and returns its standard output. A non-zero exit,
// a timeout or a failure to start is an error carrying the first line
// r2r wrote to standard error.
func (e *env) exec(args []string) ([]byte, usage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), commandTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.r2r, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var u usage
	if ps := cmd.ProcessState; ps != nil {
		u.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			u.maxRSSKB = ru.Maxrss // kilobytes on Linux
		}
	}
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		err = fmt.Errorf("timed out after %v", commandTimeout)
	case err != nil:
		msg, _, _ := strings.Cut(strings.TrimSpace(stderr.String()), "\n")
		err = fmt.Errorf("%w: %s", err, msg)
	}
	return stdout.Bytes(), u, err
}

// fill runs the rerun workload's cold fill: for each head binary, a
// cold order-2 campaign and a cold order-2 patch into a fresh store.
// Their verdicts become the reference every warm request must match.
func (e *env) fill() error {
	cold := make(map[string]*result)
	for _, in := range e.set.heads() {
		if err := os.RemoveAll(e.cacheDir(in)); err != nil {
			return err
		}
		res := e.do(request{ID: "rerun/cold/" + in.Name, Kind: verdict.KindRerun, In: in})
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.ID, res.Err)
		}
		cold[in.Name] = res
	}
	e.cold = cold
	return nil
}
