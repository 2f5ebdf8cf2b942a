// Command perfbench is cmppower's end-to-end benchmark. One run measures
// one workload for a fixed time and prints, as its last line, a JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// of a separate traced run (--trace 1), after checking that every output
// it produced is correct.
//
// Every workload has the same three phases, so every workload reports
// every end-to-end metric:
//
//   - set-up, repeated (the median is setup_s): build and calibrate the
//     workload's rig. The fleet the traffic phase needs (two in-process
//     serve shards behind a router, with the hot identities primed and
//     the surrogate fits warmed) boots once afterwards, untimed;
//   - campaign: the paper sweep, repeated on a fresh rig each time;
//   - traffic: batches of requests of three classes (hot, cold, approx),
//     drawn by the traffic language and played closed-loop over
//     loopback HTTP. The batches are interleaved with the campaign
//     repetitions.
//
// The layers are driven only through their public entry points. See
// README.md in this directory for the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	// scenario is the chip scenario file, relative to the checkout root;
	// empty is the paper's 16-core baseline chip.
	scenario string
	// fig4 adds Figure 4 (Scenario II) to the paper campaign.
	fig4 bool
	// spec is the traffic file under perfbench/traffic.
	spec string
	// maxCampaigns caps the campaign repetitions of one run.
	maxCampaigns int
}

var workloads = map[string]workloadDef{
	"paper-sweep": {fig4: true, spec: "baseline.json", maxCampaigns: 100},
	// One campaign per run: from the second on, the warm-state fork
	// recordings of a 128-core sweep hold about 3 GB resident in a
	// long-lived process, against about 1 GB in a fresh one.
	// The traffic batches take the time a second campaign would.
	"manycore128": {scenario: "examples/scenarios/manycore128.json", spec: "manycore128.json", maxCampaigns: 1},
}

// fig4Apps is the CLI's default Figure 4 selection.
var fig4Apps = []string{"Cholesky", "FMM", "Radix"}

// options are one run's inputs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root: results/, examples/ and perfbench/
	out      string // build directory: span files are written here
	// scale is the paper campaign's workload scale: 1 on the command
	// line, which reproduces the committed figures; the self-test shrinks
	// it.
	scale float64
	// sweepWorkers overrides the paper campaign's worker count (0 means
	// workers()); the self-test varies it to prove the digest does not
	// depend on it.
	sweepWorkers int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{scale: 1}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	printDigest := flag.Bool("print-digest", false, "print the campaign digest for --seed and exit")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *printDigest {
		d, err := campaignDigest(o)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
		return
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run measures one workload and returns the result line.
func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if !(o.seconds > 0) {
		return nil, errors.New("--seconds must be positive")
	}
	b, err := newBench(o, w)
	if err != nil {
		return nil, err
	}
	defer b.close()
	e2e, err := b.measure(nil, o.seconds)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: b.checks.ok(), Attempted: b.attempted, Failed: b.failed}
	if !o.trace {
		res.Metrics = e2e
		for _, c := range ungatedP50 {
			delete(res.Metrics, c+"_p50_ms")
		}
		return res, nil
	}
	layers, err := b.traced(e2e)
	if err != nil {
		return nil, err
	}
	res.Correct = b.checks.ok()
	res.Metrics = layers
	return res, nil
}

// checks collects output-check failures; every failure is also printed
// to standard error as it happens.
type checks struct{ failures []string }

func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	c.failures = append(c.failures, msg)
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workers is the load's concurrency bound: threads, sweep workers and
// sender connections never exceed the host's CPU count.
func workers() int { return runtime.NumCPU() }

// repoPath resolves a checkout-relative path.
func (o options) repoPath(rel string) string { return filepath.Join(o.root, rel) }
