package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"cmppower"
	"cmppower/internal/server"
)

// campaignShare is the share of the run's time the campaign
// repetitions get, as long as the workload allows more; the traffic
// batches take the rest.
const campaignShare = 0.4

// ungatedP50 are the classes whose p50 latency is reported by the
// traced run instead of gated end to end. Their requests take about
// 0.3 ms, mostly loopback HTTP and goroutine hand-offs, and on a shared
// 2-CPU host their p50 moved by 25-30% between runs with the host's
// speed, against 13% for the campaign (see README.md).
var ungatedP50 = []string{classHot, classApprox}

// minBatches is the fewest traffic batches a run plays, however short
// its --seconds.
const minBatches = 3

// bench is one run's state.
type bench struct {
	o        options
	w        workloadDef
	chip     *cmppower.ChipScenario
	spec     *loadSpec
	digests  map[string]map[string]string
	fig4Apps []cmppower.App
	budgetW  float64
	client   *http.Client
	checks   checks

	attempted, failed int64

	// fleet is the live fleet of the current pass.
	fleet *fleet
	// rigBuilds are the times of every rig build and calibration.
	rigBuilds []time.Duration
	// Inputs and answers of the untraced pass, replayed by the traced
	// run: its campaigns and its first traffic batch.
	campaigns []*campaignRun
	served    []outcome
	// cacheHitRatio is the shards' response-cache hit ratio and
	// rejectedShare the share of requests refused (429) over the
	// untraced pass's traffic.
	cacheHitRatio, rejectedShare float64
	// ungated are the untraced pass's metrics that only the traced run
	// reports.
	ungated map[string]metric
}

func newBench(o options, w workloadDef) (*bench, error) {
	b := &bench{o: o, w: w, client: newClient()}
	var err error
	if w.scenario != "" {
		if b.chip, err = cmppower.LoadScenario(o.repoPath(w.scenario)); err != nil {
			return nil, err
		}
	}
	if b.spec, err = loadLoadSpec(o.repoPath(filepath.Join("perfbench", "traffic", w.spec)), b.chip); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(o.repoPath(filepath.Join("perfbench", "digests.json")))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &b.digests); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	for _, name := range fig4Apps {
		app, err := cmppower.AppByName(name)
		if err != nil {
			return nil, err
		}
		b.fig4Apps = append(b.fig4Apps, app)
	}
	return b, nil
}

func (b *bench) close() {
	if b.fleet != nil {
		if err := b.fleet.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: fleet shutdown:", err)
		}
		b.fleet = nil
	}
	b.client.CloseIdleConnections()
}

// newRig builds and calibrates the workload's rig at the campaign scale.
func (b *bench) newRig(tr *tracer) (*cmppower.Experiment, error) {
	sp := tr.start("experiment.new_rig", "", 0)
	start := time.Now()
	rig, err := cmppower.NewExperimentFromScenario(b.chip, b.o.scale)
	b.rigBuilds = append(b.rigBuilds, time.Since(start))
	sp.end()
	if err != nil {
		return nil, err
	}
	rig.Seed = b.o.seed
	b.budgetW = rig.BudgetW()
	return rig, nil
}

// setup times one set-up: the rig build and calibration.
func (b *bench) setup(tr *tracer) (time.Duration, error) {
	start := time.Now()
	_, err := b.newRig(tr)
	return time.Since(start), err
}

// startFleet replaces b.fleet by a freshly booted, primed and warmed
// fleet.
func (b *bench) startFleet(tr *tracer) error {
	if b.fleet != nil {
		if err := b.fleet.close(); err != nil {
			return err
		}
		b.fleet = nil
	}
	b.client.CloseIdleConnections()
	sp := tr.start("fleet.boot", "", 0)
	defer sp.end()
	f, err := bootFleet(tr)
	if err != nil {
		return err
	}
	b.fleet = f
	return f.prepare(b.client, b.spec)
}

// count adds a batch of outcomes to the attempted and failed totals.
func (b *bench) count(outs []outcome) {
	for i := range outs {
		b.attempted++
		if !outs[i].ok() {
			b.failed++
		}
	}
}

// measure runs one end-to-end pass: campaign repetitions interleaved
// with closed-loop traffic batches until seconds have passed, each
// preceded by a timed set-up. Every metric is a median over set-ups,
// repetitions or batches spread over the whole pass, so a stretch of the
// run in which the host is slow does not decide it. The untraced pass
// (tr == nil) keeps its inputs and answers for the traced run.
func (b *bench) measure(tr *tracer, seconds float64) (map[string]metric, error) {
	// The traffic batches need a fleet; set-up time does not include it.
	if err := b.startFleet(tr); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	var setupTimes []float64
	var runs []*campaignRun
	var walls, mips []float64
	var batches []batchStats
	var served []outcome
	var campaignTime time.Duration
	requests, rejected := 0, 0
	start := time.Now()
	total := time.Duration(seconds * float64(time.Second))
	for len(batches) < minBatches || time.Since(start) < total {
		debug.FreeOSMemory()
		d, err := b.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if len(runs) == 0 || (len(runs) < b.w.maxCampaigns && float64(campaignTime) < campaignShare*float64(time.Since(start))) {
			t := time.Now()
			run, err := b.campaign(tr, runs)
			if err != nil {
				return nil, err
			}
			campaignTime += time.Since(t)
			runs = append(runs, run)
			walls = append(walls, run.wall.Seconds())
			mips = append(mips, float64(run.instructions)/run.wall.Seconds()/1e6)
			continue
		}
		outs, st, err := b.batch(len(batches), tr)
		if err != nil {
			return nil, err
		}
		if served == nil {
			served = outs
		}
		batches = append(batches, st)
		requests += len(outs)
		rejected += st.rejected
	}
	if tr == nil {
		b.campaigns, b.served = runs, served
		hits := float64(b.fleet.counter("server_cache_hits_total"))
		b.cacheHitRatio = hits / (hits + float64(b.fleet.counter("server_cache_misses_total")))
		b.rejectedShare = float64(rejected) / float64(requests)
		b.checkReference(served)
	}
	over := func(f func(*batchStats) float64) float64 {
		xs := make([]float64, len(batches))
		for i := range batches {
			xs[i] = f(&batches[i])
		}
		return median(xs)
	}
	m := map[string]metric{
		"setup_s":     {median(setupTimes), "s"},
		"campaign_s":  {median(walls), "s"},
		"sim_mips":    {median(mips), "MIPS"},
		"goodput_rps": {over(func(st *batchStats) float64 { return float64(st.good) / st.seconds }), "1/s"},
	}
	for _, c := range classes {
		m[c+"_p50_ms"] = metric{over(func(st *batchStats) float64 { return st.p50[c] }), "ms"}
	}
	if tr == nil {
		// Reported by the traced run: too unsteady on a shared host to
		// gate (see README.md).
		b.ungated = map[string]metric{"process.peak_rss_mb": {peakRSSMB(), "MB"}}
		for _, c := range classes {
			b.ungated["tail."+c+"_p99_ms"] = metric{over(func(st *batchStats) float64 { return st.p99[c] }), "ms"}
		}
		for _, c := range ungatedP50 {
			b.ungated["latency."+c+"_p50_ms"] = m[c+"_p50_ms"]
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d campaigns, %d traffic batches of %d requests\n",
		b.o.workload, b.o.seed, len(runs), len(batches), b.spec.BatchRequests)
	return m, nil
}

// batch plays traffic batch k closed-loop and summarizes it. Its
// requests are drawn from the input seed and k, so the traced pass
// replays the untraced pass's batches.
func (b *bench) batch(k int, tr *tracer) ([]outcome, batchStats, error) {
	reqs, err := b.spec.compileBatch(batchSeed(b.o.seed, k), fmt.Sprintf("batch%d", k))
	if err != nil {
		return nil, batchStats{}, err
	}
	debug.FreeOSMemory()
	start := time.Now()
	outs := play(b.client, b.fleet.url, reqs, tr)
	st := summarize(outs, time.Since(start).Seconds())
	b.count(outs)
	b.checkApproxAnswers(outs)
	return outs, st, nil
}

// campaign runs and checks one campaign repetition. It starts from a
// collected heap, as every phase does, so that none pays for the garbage
// of the one before.
func (b *bench) campaign(tr *tracer, runs []*campaignRun) (*campaignRun, error) {
	debug.FreeOSMemory()
	run, err := b.paperCampaign(tr)
	if err != nil {
		return nil, err
	}
	b.attempted++
	var first *campaignRun
	if len(runs) > 0 {
		first = runs[0]
	} else if len(b.campaigns) > 0 {
		first = b.campaigns[0]
	}
	b.checkCampaign(run, first)
	if first == nil && b.w.maxCampaigns == 1 {
		if err := b.crossCheck(run); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// referenceSample is how many hot and cold answers are compared byte for
// byte against a direct shard.
const referenceSample = 12

// checkReference compares a sample of a batch's exact answers byte for
// byte with a fresh in-process shard's answers to the same bodies.
func (b *bench) checkReference(outs []outcome) {
	ref := server.New(server.Config{SurrogateOff: true})
	defer ref.Close()
	h := ref.Handler()
	compared := map[string]int{}
	for i := range outs {
		o := &outs[i]
		if !o.ok() || o.req.class == classApprox || compared[o.req.class] >= referenceSample {
			continue
		}
		compared[o.req.class]++
		status, want := serveDirect(h, o.req.body)
		if status != http.StatusOK || string(want) != string(o.body) {
			b.checks.failf("%s: routed answer differs from a direct shard's (status %d)", o.req.id, status)
		}
	}
}

// checkApproxAnswers checks that every surrogate-mode answer of a batch
// carries its source and bound.
func (b *bench) checkApproxAnswers(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if o.ok() && o.req.class == classApprox {
			if err := checkApprox(o); err != nil {
				b.checks.failf("%s: %v", o.req.id, err)
			}
		}
	}
}

// checkApprox verifies one surrogate-mode answer and records its source
// on the outcome. The router relays the body but not the shard's source
// and bound headers, so the body is what must carry them; a header, when
// present, must agree with it.
func checkApprox(o *outcome) error {
	var sr server.SurrogateRunResponse
	if err := json.Unmarshal(o.body, &sr); err != nil {
		return err
	}
	if o.source != "" && sr.Source != o.source {
		return fmt.Errorf("source header %q, body %q", o.source, sr.Source)
	}
	o.source = sr.Source
	switch sr.Source {
	case "surrogate":
		if !(sr.Bound > 0) || sr.Prediction == nil {
			return fmt.Errorf("surrogate answer without a prediction and bound (bound %g)", sr.Bound)
		}
		if o.bound != "" {
			if b, err := strconv.ParseFloat(o.bound, 64); err != nil || b != sr.Bound {
				return fmt.Errorf("bound header %q, body %g", o.bound, sr.Bound)
			}
		}
	case "simulation":
		if sr.Measurement == nil {
			return errors.New("simulation answer without a measurement")
		}
	default:
		return fmt.Errorf("unknown source %q", sr.Source)
	}
	return nil
}
