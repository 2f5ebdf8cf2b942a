package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"cmppower"
	"cmppower/internal/experiment"
	"cmppower/internal/report"
)

// campaignRun is one repetition of a workload's campaign.
type campaignRun struct {
	wall         time.Duration
	instructions int64
	// digest covers every simulated statistic the campaign returned; a
	// change that only speeds up the simulator must leave it unchanged.
	digest string
	outsI  []cmppower.SweepOutcome
	outsII []cmppower.SweepOutcome
}

// ladderCounts is the figure sweeps' core-count ladder: powers of two up
// to the chip's core count, and the core count itself.
func ladderCounts(total int) []int {
	var counts []int
	for n := 1; n <= total; n *= 2 {
		counts = append(counts, n)
	}
	if counts[len(counts)-1] != total {
		counts = append(counts, total)
	}
	return counts
}

// paperCampaign runs Figure 3 (and Figure 4 when the workload has it) on
// a freshly built rig, so the memo cache starts empty every time. With a
// tracer the apps are dispatched one sweep call each, under app_sweep
// spans, instead of as one sweep call.
func (b *bench) paperCampaign(tr *tracer) (*campaignRun, error) {
	rig, err := b.newRig(tr)
	if err != nil {
		return nil, err
	}
	reg := cmppower.NewMetricsRegistry()
	rig.Obs = reg
	counts := ladderCounts(rig.TotalCores)
	cfg := cmppower.SweepConfig{Workers: b.o.sweepWorkers}
	if cfg.Workers <= 0 {
		cfg.Workers = workers()
	}
	run := &campaignRun{}
	sp := tr.start("campaign", "", 0)
	start := time.Now()
	run.outsI, err = sweep(tr, sp.id(), rig, cmppower.Apps(), counts, cfg, false)
	if err == nil && b.w.fig4 {
		run.outsII, err = sweep(tr, sp.id(), rig, b.fig4Apps, counts, cfg, true)
	}
	run.wall = time.Since(start)
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, o := range append(append([]cmppower.SweepOutcome(nil), run.outsI...), run.outsII...) {
		if o.Err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", o.App, o.Err)
		}
	}
	run.instructions = reg.Counter("engine_instructions_total").Value()
	run.digest = digestJSON(run.outsI, run.outsII)
	return run, nil
}

// sweep runs one scenario over apps. Untraced, it is one sweep call with
// the worker pool; traced, each app is its own single-worker sweep call
// under an app_sweep span, dispatched on the same number of workers.
func sweep(tr *tracer, parent int, rig *cmppower.Experiment, apps []cmppower.App, counts []int, cfg cmppower.SweepConfig, scenarioII bool) ([]cmppower.SweepOutcome, error) {
	ctx := context.Background()
	call := rig.SweepScenarioIWith
	if scenarioII {
		call = rig.SweepScenarioIIWith
	}
	if tr == nil {
		return call(ctx, apps, counts, cfg)
	}
	// An empty sweep turns the rig's caches on before the concurrent
	// per-app calls share it.
	if _, err := call(ctx, nil, counts, cfg); err != nil {
		return nil, err
	}
	outs := make([]cmppower.SweepOutcome, len(apps))
	errs := make([]error, len(apps))
	one := cmppower.SweepConfig{Workers: 1}
	experiment.RunIndexed(ctx, cfg.Workers, len(apps), func(i int) {
		sp := tr.start("app_sweep", apps[i].Name, parent)
		defer sp.end()
		o, err := call(ctx, apps[i:i+1], counts, one)
		if err == nil && len(o) != 1 {
			err = errors.New("sweep returned no outcome")
		}
		if errs[i] = err; err == nil {
			outs[i] = o[0]
		}
	})
	return outs, errors.Join(errs...)
}

// digestKey names an input in the committed digest table: seed@scale.
func digestKey(o options) string { return fmt.Sprintf("%d@%g", o.seed, o.scale) }

// digestJSON hashes the JSON encoding of vs; encoding/json writes floats
// in their shortest exact form, so equal digests mean bit-equal values.
func digestJSON(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		h.Write(mustJSON(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCampaign verifies a campaign repetition: it must reproduce the
// digest of the run's first repetition, the digest must match the
// committed table when it has an entry for this input, and at seed 1 the
// paper campaign must reproduce the committed figures.
func (b *bench) checkCampaign(run *campaignRun, first *campaignRun) {
	if first != nil {
		if run.digest != first.digest {
			b.checks.failf("campaign digest %s differs from the run's first %s", run.digest, first.digest)
		}
		return
	}
	if want, ok := b.digests[b.o.workload][digestKey(b.o)]; ok && want != run.digest {
		b.checks.failf("%s %s: campaign digest %s, committed %s", b.o.workload, digestKey(b.o), run.digest, want)
	}
	if b.w.scenario != "" || b.o.seed != 1 || b.o.scale != 1 {
		return
	}
	for _, fig := range []struct {
		file  string
		table func() (*report.Table, error)
	}{
		{"results/fig3.txt", func() (*report.Table, error) { return fig3Table(run.outsI) }},
		{"results/fig4.txt", func() (*report.Table, error) { return fig4Table(run.outsII, b.budgetW) }},
	} {
		want, err := os.ReadFile(b.o.repoPath(fig.file))
		if err != nil {
			b.checks.failf("read %s: %v", fig.file, err)
			continue
		}
		t, err := fig.table()
		var got bytes.Buffer
		if err == nil {
			err = t.WriteText(&got)
		}
		if err != nil {
			b.checks.failf("render %s: %v", fig.file, err)
			continue
		}
		if !bytes.Equal(got.Bytes(), want) {
			b.checks.failf("seed 1 campaign does not reproduce %s:\n%s", fig.file, firstDiff(got.String(), string(want)))
		}
	}
}

// crossCheckApp is the app crossCheck re-runs: the cheapest one to
// sweep on the 128-core chip.
const crossCheckApp = "Water-Sp"

// crossCheck re-runs crossCheckApp's Scenario I sweep alone, on a fresh
// rig with one worker, and checks that it reproduces the campaign's
// outcome for that app bit for bit. A workload that runs its campaign
// once has no repetition to compare; this is what checks, for a seed
// outside the committed digest table, that its simulated statistics do
// not depend on the worker count or on what else the sweep ran.
func (b *bench) crossCheck(run *campaignRun) error {
	rig, err := b.newRig(nil)
	if err != nil {
		return err
	}
	app, err := cmppower.AppByName(crossCheckApp)
	if err != nil {
		return err
	}
	outs, err := rig.SweepScenarioIWith(context.Background(), []cmppower.App{app}, ladderCounts(rig.TotalCores), cmppower.SweepConfig{Workers: 1})
	if err != nil {
		return err
	}
	for _, o := range run.outsI {
		if o.App == crossCheckApp {
			if len(outs) != 1 || digestJSON(outs[0]) != digestJSON(o) {
				b.checks.failf("%s re-run alone on one worker differs from the campaign's outcome", crossCheckApp)
			}
			return nil
		}
	}
	return fmt.Errorf("campaign has no outcome for %s", crossCheckApp)
}

// fig3Table renders Scenario I outcomes as the CLI's fig3 command does.
func fig3Table(outs []cmppower.SweepOutcome) (*report.Table, error) {
	t := report.NewTable(
		"Figure 3: Scenario I on the 16-way CMP (performance target = 1 core at nominal V/f)",
		"app", "N", "nominal-eff", "actual-speedup", "norm-power", "norm-density", "avg-temp(C)", "f(MHz)", "V")
	for _, o := range outs {
		res := o.I
		if err := t.AddRow(o.App, "1", "1.000", "1.00", "1.00", "1.00",
			report.F(res.Baseline.AvgCoreTempC, 1),
			report.MHz(res.Baseline.Point.Freq), report.F(res.Baseline.Point.Volt, 3)); err != nil {
			return nil, err
		}
		for _, row := range res.Rows {
			if err := t.AddRow(o.App, report.I(row.N),
				report.F(row.NominalEff, 3), report.F(row.ActualSpeedup, 2),
				report.F(row.NormPower, 3), report.F(row.NormDensity, 3),
				report.F(row.AvgTempC, 1),
				report.MHz(row.Point.Freq), report.F(row.Point.Volt, 3)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// fig4Table renders Scenario II outcomes as the CLI's fig4 command does.
func fig4Table(outs []cmppower.SweepOutcome, budgetW float64) (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("Figure 4: speedup under the 1-core power budget (%.1f W)", budgetW),
		"app", "N", "nominal", "actual", "f(MHz)", "power(W)", "at-nominal")
	for _, o := range outs {
		for _, row := range o.II.Rows {
			if err := t.AddRow(o.App, report.I(row.N),
				report.F(row.NominalSpeedup, 2), report.F(row.ActualSpeedup, 2),
				report.MHz(row.Point.Freq), report.F(row.PowerW, 2),
				fmt.Sprint(row.AtNominal)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// firstDiff shows the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "(texts differ only in length)"
}

// campaignDigest runs one campaign and returns its digest; it is how the
// committed digest table is produced.
func campaignDigest(o options) (string, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return "", fmt.Errorf("unknown workload %q", o.workload)
	}
	b, err := newBench(o, w)
	if err != nil {
		return "", err
	}
	defer b.close()
	run, err := b.paperCampaign(nil)
	if err != nil {
		return "", err
	}
	return run.digest, nil
}
