package cmp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cmppower/internal/dvfs"
	"cmppower/internal/faults"
	"cmppower/internal/phys"
	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// engineTestConfig builds one run configuration for an equivalence case.
// mode selects the engine features exercised:
//
//	plain   — nothing extra: the pure compute/memory/sync hot path
//	sampled — interval sampling plus event tracing (the postlude paths)
//	traced  — event tracing alone (observation without sampling)
//	thrifty — thrifty barriers (sleep accounting on wake-up)
//	faulted — cache fault injection (per-access hook in global order)
func engineTestConfig(t *testing.T, app splash.App, n int, mode string) Config {
	t.Helper()
	cfg := DefaultConfig(n, nominalPoint(t))
	cfg.Core = app.CoreConfig()
	cfg.Seed = 7
	switch mode {
	case "plain":
	case "sampled":
		cfg.SampleCycles = 50_000
		cfg.TraceLast = 64
	case "traced":
		cfg.TraceLast = 300
	case "thrifty":
		cfg.ThriftyBarriers = true
		cfg.SampleCycles = 80_000
	case "faulted":
		inj, err := faults.New(faults.Config{
			Seed:               11,
			CacheTransientProb: 2e-4,
			CacheRetryCycles:   40,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.CacheFault = inj
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	return cfg
}

// diffResults pinpoints the first field where two results disagree; empty
// string means bit-identical.
func diffResults(a, b *Result) string {
	if a.Cycles != b.Cycles {
		return fmt.Sprintf("Cycles %v vs %v", a.Cycles, b.Cycles)
	}
	if a.Instructions != b.Instructions {
		return fmt.Sprintf("Instructions %d vs %d", a.Instructions, b.Instructions)
	}
	if a.Events != b.Events {
		return fmt.Sprintf("Events %d vs %d", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.CacheStats, b.CacheStats) {
		return fmt.Sprintf("CacheStats %+v vs %+v", a.CacheStats, b.CacheStats)
	}
	if !reflect.DeepEqual(a.PerCore, b.PerCore) {
		return fmt.Sprintf("PerCore %+v vs %+v", a.PerCore, b.PerCore)
	}
	if !reflect.DeepEqual(a.Activity, b.Activity) {
		return "Activity differs"
	}
	if a.BusUtilization != b.BusUtilization || a.MemUtilization != b.MemUtilization {
		return "utilization differs"
	}
	if len(a.Samples) != len(b.Samples) {
		return fmt.Sprintf("%d samples vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if !reflect.DeepEqual(a.Samples[i], b.Samples[i]) {
			return fmt.Sprintf("sample %d: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		return "trace differs"
	}
	return ""
}

// TestBatchedMatchesUnbatched is the golden equivalence guarantee of this
// package: the fused fast path produces, for every SPLASH-2 model and
// core count, results bit-identical to the event-at-a-time reference
// loop — every cycle count, counter, activity record, interval sample,
// and trace entry. Modes cover sampling, tracing, thrifty barriers, and
// deterministic fault injection (which is order-sensitive: the per-access
// fault stream only matches if the engines issue cache accesses in the
// same global order).
func TestBatchedMatchesUnbatched(t *testing.T) {
	apps := splash.Catalog()
	if len(apps) != 12 {
		t.Fatalf("expected 12 SPLASH-2 models, have %d", len(apps))
	}
	const scale = 0.02
	for _, app := range apps {
		for _, n := range []int{1, 4, 16} {
			if !app.RunsOn(n) {
				continue
			}
			// Heavier feature modes run on a representative subset; the
			// plain and faulted modes cover the full matrix.
			modes := []string{"plain", "faulted"}
			if app.Name == "FFT" || app.Name == "Ocean" || app.Name == "Radiosity" {
				modes = append(modes, "sampled", "traced", "thrifty")
			}
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/n%d/%s", app.Name, n, mode), func(t *testing.T) {
					prog := app.Program(scale)
					ref := engineTestConfig(t, app, n, mode)
					ref.Unbatched = true
					want, err := Run(prog, ref)
					if err != nil {
						t.Fatal(err)
					}
					fast := engineTestConfig(t, app, n, mode)
					got, err := Run(prog, fast)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffResults(got, want); d != "" {
						t.Fatalf("batched differs from unbatched: %s", d)
					}
				})
			}
		}
	}
}

// TestBatchedMatchesUnbatchedMulti extends the guarantee to RunMulti's
// multiprogrammed mode, where the batch path flows through jobAdapter's
// in-place remapping of lock ids and addresses.
func TestBatchedMatchesUnbatchedMulti(t *testing.T) {
	apps := splash.Catalog()
	progs := make([]*workload.Program, 0, 4)
	for _, i := range []int{0, 3, 6, 9} {
		progs = append(progs, apps[i].Program(0.02))
	}
	run := func(unbatched bool) *Result {
		t.Helper()
		cfg := DefaultConfig(len(progs), nominalPoint(t))
		cfg.Seed = 5
		cfg.SampleCycles = 60_000
		cfg.Unbatched = unbatched
		res, err := RunMulti(progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(true)
	got := run(false)
	if d := diffResults(got, want); d != "" {
		t.Fatalf("batched differs from unbatched (multi): %s", d)
	}
}

// tripEngine runs prog on a fresh engine with the chosen loop and returns
// the engine as the loop left it, so a failed run's state can be compared.
func tripEngine(t *testing.T, prog *workload.Program, cfg Config, unbatched bool) (*engine, error) {
	t.Helper()
	sources := make([]eventSource, cfg.NCores)
	for i := range sources {
		st, err := workload.NewStream(prog, i, cfg.NCores, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = st
	}
	e, err := newEngine(cfg, sources, prog.MaxBarrierID()+1, prog.MaxLockID()+1, cfg.NCores)
	if err != nil {
		t.Fatal(err)
	}
	if unbatched {
		return e, e.runUnbatched()
	}
	return e, e.runFused()
}

// TestObservedBudgetTripMatchesReference pins the observed fused loop's
// event numbering: it arbitrates every event, so a MaxEvents budget trips
// at exactly the reference loop's event — same error, same event count,
// and the same core counters, samples and trace at the trip. (Unobserved
// runs charge the budget per drained segment and may overshoot.)
func TestObservedBudgetTripMatchesReference(t *testing.T) {
	app, err := splash.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	prog := app.Program(0.02)
	for _, n := range []int{1, 4} {
		full, err := Run(prog, engineTestConfig(t, app, n, "sampled"))
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{full.Events / 3, full.Events / 2, full.Events - 1} {
			t.Run(fmt.Sprintf("n%d/max%d", n, budget), func(t *testing.T) {
				cfg := engineTestConfig(t, app, n, "sampled")
				cfg.MaxEvents = budget
				ref, refErr := tripEngine(t, prog, cfg, true)
				got, gotErr := tripEngine(t, prog, cfg, false)
				if refErr == nil || gotErr == nil {
					t.Fatalf("budget %d did not trip: reference %v, fused %v", budget, refErr, gotErr)
				}
				if gotErr.Error() != refErr.Error() {
					t.Fatalf("error %q, reference %q", gotErr, refErr)
				}
				if got.events != ref.events {
					t.Fatalf("tripped at event %d, reference at %d", got.events, ref.events)
				}
				for i := range ref.cores {
					if g, w := got.cores[i].Stats(), ref.cores[i].Stats(); g != w {
						t.Fatalf("core %d at trip: %+v vs %+v", i, g, w)
					}
				}
				if !reflect.DeepEqual(got.samples, ref.samples) {
					t.Fatalf("%d samples at trip vs %d", len(got.samples), len(ref.samples))
				}
				if !reflect.DeepEqual(got.ring.events(), ref.ring.events()) {
					t.Fatal("trace at trip differs")
				}
			})
		}
	}
}

// benchmarkEngine measures one 16-core Ocean run; events/op plus ns/op
// give engine events per second.
func benchmarkEngine(b *testing.B, unbatched bool) {
	benchmarkEngineN(b, unbatched, 16)
}

func benchmarkEngineN(b *testing.B, unbatched bool, nCores int) {
	benchmarkEngineRun(b, "Ocean", 0.5, nCores, func(cfg *Config) { cfg.Unbatched = unbatched })
}

// benchmarkEngineRun measures one run of the named app at nCores on a chip
// of at least 16 cores, with tune applied to the configuration.
func benchmarkEngineRun(b *testing.B, name string, scale float64, nCores int, tune func(*Config)) {
	app, err := splash.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog := app.Program(scale)
	tab, err := dvfs.PentiumMStyle(phys.Tech65())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(nCores, tab.Nominal())
	cfg.TotalCores = max(cfg.TotalCores, nCores)
	cfg.Core = app.CoreConfig()
	tune(&cfg)
	// The experiment rig always runs with a context (RunAppCtx installs
	// context.Background() even for plain RunApp calls), so the
	// representative engine configuration includes one. The reference
	// loop polls it per event, exactly as the seed engine did.
	cfg.Ctx = context.Background()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := Run(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkEngineBatched(b *testing.B)   { benchmarkEngine(b, false) }
func BenchmarkEngineUnbatched(b *testing.B) { benchmarkEngine(b, true) }

// BenchmarkEngineScaling covers the fig3 sweep's core counts: the batched
// engine's advantage depends on how often arbitration interleaves cores,
// so a single core count would misrepresent a sweep's wall-clock gain.
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			benchmarkEngineN(b, false, n)
		})
	}
}

// BenchmarkEngineObserved measures the observed fused loop — interval
// sampling on, so every event is arbitrated and followed by the observe
// postlude — on the apps and core counts that sampled runs (DTM replay,
// the transient study) and thermal-limit studies at large N exercise.
// Each run is split into 64 intervals, the DTM controller's default.
func BenchmarkEngineObserved(b *testing.B) {
	const scale = 0.5
	for _, name := range []string{"Ocean", "FFT", "Radix"} {
		for _, n := range []int{1, 4, 16, 128} {
			b.Run(fmt.Sprintf("%s/cores=%d", name, n), func(b *testing.B) {
				benchmarkEngineRun(b, name, scale, n, func(cfg *Config) {
					app, err := splash.ByName(name)
					if err != nil {
						b.Fatal(err)
					}
					probe, err := Run(app.Program(scale), *cfg)
					if err != nil {
						b.Fatal(err)
					}
					cfg.SampleCycles = probe.Cycles / 64
				})
			})
		}
	}
}
