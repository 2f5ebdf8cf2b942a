package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cmppower"
	"cmppower/internal/cache"
	"cmppower/internal/mem"
	"cmppower/internal/server"
	"cmppower/internal/traffic"
	"cmppower/internal/workload"
)

// point is one simulated run of the untraced pass's first campaign, with
// the answer the campaign gave for it.
type point struct {
	app             cmppower.App
	n               int
	op              cmppower.OperatingPoint
	seed            uint64
	seconds, powerW float64
}

// traced is the --trace 1 run. It repeats the end-to-end pass, for half
// as long, with spans at the boundaries the benchmark reaches (campaign
// → app sweep, and request → router → shard), then replays the untraced pass's points
// and requests through each layer's entry point under a span of its own,
// and derives the per-layer metrics from the spans.
func (b *bench) traced(untraced map[string]metric) (map[string]metric, error) {
	tr := newTracer()
	tracedE2E, err := b.measure(tr, b.o.seconds/2)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"trace.campaign_overhead_pct": {pctChange(tracedE2E["campaign_s"].Value, untraced["campaign_s"].Value), "%"},
		"trace.request_overhead_us":   {1e3 * (tracedE2E["hot_p50_ms"].Value - untraced["hot_p50_ms"].Value), "us"},
	}
	for k, v := range b.ungated {
		m[k] = v
	}
	if err := b.replayPoints(tr, m); err != nil {
		return nil, err
	}
	if err := b.replayServing(tr, m); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.o.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(b.o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.o.workload, b.o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return m, nil
}

func pctChange(x, base float64) float64 { return 100 * (x/base - 1) }

// points lists the untraced pass's distinct simulated runs: each
// reported measurement of the first paper campaign.
func (b *bench) points() ([]point, error) {
	first := b.campaigns[0]
	var pts []point
	seen := map[string]bool{}
	add := func(name string, n int, op cmppower.OperatingPoint, seconds, powerW float64) error {
		key := fmt.Sprint(name, n, op)
		if seen[key] {
			return nil
		}
		seen[key] = true
		app, err := cmppower.AppByName(name)
		if err != nil {
			return err
		}
		pts = append(pts, point{app: app, n: n, op: op, seed: b.o.seed, seconds: seconds, powerW: powerW})
		return nil
	}
	for _, o := range first.outsI {
		ms := []*cmppower.Measurement{o.I.Baseline}
		for _, row := range o.I.Rows {
			ms = append(ms, row.Scaled)
		}
		for _, x := range ms {
			if err := add(o.App, x.N, x.Point, x.Seconds, x.PowerW); err != nil {
				return nil, err
			}
		}
	}
	for _, o := range first.outsII {
		for _, row := range o.II.Rows {
			if err := add(o.App, row.N, row.Point, row.Seconds, row.PowerW); err != nil {
				return nil, err
			}
		}
	}
	return pts, nil
}

// replayChunk bounds the memory events buffered between a stream drain
// and its cache replay.
const replayChunk = 1 << 20

// memEvent is one buffered memory access.
type memEvent struct {
	addr  uint64
	core  int32
	write bool
}

// replayPoints replays every point through the simulator layers:
// workload stream drain, cache hierarchy, the engine (cmp.Run), power
// evaluation, the coupled and plain thermal solves, and the experiment
// layer's RunAppSeeded. Each replay must reproduce the untraced answer.
func (b *bench) replayPoints(tr *tracer, m map[string]metric) error {
	pts, err := b.points()
	if err != nil {
		return err
	}
	scale := b.o.scale
	rig, err := b.newRig(tr)
	if err != nil {
		return err
	}
	var events, engineEvents int64
	var cst cache.Stats
	buf := make([]workload.Event, 256)
	chunk := make([]memEvent, 0, replayChunk)
	ctx := context.Background()
	for _, p := range pts {
		root := tr.start("replay.point", p.app.Name, 0)
		prog := p.app.Program(scale)

		// Workload stream drain, interleaved a batch per thread, and the
		// same memory accesses replayed into a fresh hierarchy.
		h, err := cache.New(cache.DefaultConfig(p.n, p.op.Freq), mem.Default())
		if err != nil {
			return err
		}
		streams := make([]*workload.Stream, p.n)
		for tid := range streams {
			if streams[tid], err = workload.NewStream(prog, tid, p.n, p.seed); err != nil {
				return err
			}
		}
		now := make([]float64, p.n)
		for live := p.n; live > 0; {
			ws := tr.start("workload.stream", p.app.Name, root.id())
			chunk = chunk[:0]
			for live > 0 && len(chunk) < replayChunk-len(buf) {
				live = 0
				for tid, s := range streams {
					if s.Done() {
						continue
					}
					k := s.NextBatch(buf)
					events += int64(k)
					for _, ev := range buf[:k] {
						if ev.Kind == workload.EvLoad || ev.Kind == workload.EvStore {
							chunk = append(chunk, memEvent{ev.Addr, int32(tid), ev.Kind == workload.EvStore})
						}
					}
					if !s.Done() {
						live++
					}
				}
			}
			ws.end()
			cs := tr.start("cache.access", p.app.Name, root.id())
			for _, e := range chunk {
				now[e.core] = h.Access(int(e.core), e.addr, e.write, now[e.core])
			}
			cs.end()
		}
		st := h.Stats()
		for c := range st.L1DAccess {
			cst.L1DAccess = append(cst.L1DAccess, st.L1DAccess[c])
			cst.L1DMiss = append(cst.L1DMiss, st.L1DMiss[c])
		}
		cst.L2Access += st.L2Access
		cst.L2Miss += st.L2Miss
		cst.Upgrades += st.Upgrades
		cst.Invals += st.Invals
		cst.C2C += st.C2C

		// The engine, configured as the rig configures it.
		cfg := cmppower.DefaultSimConfig(p.n, p.op)
		cfg.TotalCores = rig.TotalCores
		cfg.Core = p.app.CoreConfig()
		cfg.Seed = p.seed
		es := tr.start("cmp.run", p.app.Name, root.id())
		res, err := cmppower.Simulate(prog, cfg)
		es.end()
		if err != nil {
			return err
		}
		engineEvents += res.Events
		if res.Seconds != p.seconds {
			b.checks.failf("%s N=%d: engine replay %g s, campaign %g s", p.app.Name, p.n, res.Seconds, p.seconds)
		}

		// Power, then the thermal solves on the same inputs.
		cycles := int64(res.Cycles) + 1
		active := make([]bool, rig.TotalCores)
		for i := 0; i < p.n; i++ {
			active[i] = true
		}
		ps := tr.start("power.evaluate", p.app.Name, root.id())
		pw, err := rig.Meter.EvaluateSet(rig.FP, rig.TM, res.Activity, res.Seconds, cycles, p.op, active)
		ps.end()
		if err != nil {
			return err
		}
		if pw.TotalW != p.powerW {
			b.checks.failf("%s N=%d: power replay %g W, campaign %g W", p.app.Name, p.n, pw.TotalW, p.powerW)
		}
		dyn, err := rig.Meter.DynamicBlockPowerSet(rig.FP, res.Activity, res.Seconds, cycles, p.op, active)
		if err != nil {
			return err
		}
		leak := func(i int, tempC float64) float64 {
			return dyn[i] * rig.Meter.StaticFraction(p.op.Volt, math.Min(math.Max(tempC, cmppower.AmbientTempC), 120))
		}
		ts := tr.start("thermal.coupled", p.app.Name, root.id())
		_, total, err := rig.TM.SteadyStateCoupled(dyn, leak, 0.01)
		ts.end()
		if err != nil {
			return err
		}
		ts = tr.start("thermal.solve", p.app.Name, root.id())
		_, err = rig.TM.SteadyState(total)
		ts.end()
		if err != nil {
			return err
		}

		// The whole run through the experiment layer (no memo cache).
		xs := tr.start("experiment.run", p.app.Name, root.id())
		meas, err := rig.RunAppSeeded(ctx, p.app, p.n, p.op, p.seed)
		xs.end()
		if err != nil {
			return err
		}
		if meas.Seconds != p.seconds || meas.PowerW != p.powerW {
			b.checks.failf("%s N=%d: RunAppSeeded replay differs from the campaign", p.app.Name, p.n)
		}
		root.end()
	}

	ns := func(name string) float64 { return float64(tr.total(name).Nanoseconds()) }
	var l1a, l1m int64
	for c := range cst.L1DAccess {
		l1a += cst.L1DAccess[c]
		l1m += cst.L1DMiss[c]
	}
	streamNs, cacheNs, engineNs := ns("workload.stream"), ns("cache.access"), ns("cmp.run")
	powerNs := ns("power.evaluate")
	runPath := engineNs + powerNs
	np := float64(len(pts))
	for k, v := range map[string]metric{
		"workload.ns_per_event":        {streamNs / float64(events), "ns"},
		"workload.events":              {float64(events), "count"},
		"cache.ns_per_access":          {cacheNs / float64(l1a), "ns"},
		"cache.l1d_miss_ratio":         {float64(l1m) / float64(l1a), "ratio"},
		"cache.l2_miss_ratio":          {float64(cst.L2Miss) / float64(cst.L2Access), "ratio"},
		"cache.coherence_per_kaccess":  {1e3 * float64(cst.Upgrades+cst.Invals+cst.C2C) / float64(l1a), "1/kaccess"},
		"cmp.ns_per_event":             {engineNs / float64(engineEvents), "ns"},
		"cmp.engine_self_ns_per_event": {(engineNs - streamNs - cacheNs) / float64(engineEvents), "ns"},
		"power.evaluate_us":            {powerNs / np / 1e3, "us"},
		"thermal.coupled_us":           {ns("thermal.coupled") / np / 1e3, "us"},
		"thermal.solve_us":             {ns("thermal.solve") / np / 1e3, "us"},
		"experiment.run_ms":            {ns("experiment.run") / np / 1e6, "ms"},
		"experiment.calibrate_s":       {median(seconds(b.rigBuilds)), "s"},
		"share.stream_pct":             {100 * streamNs / runPath, "%"},
		"share.cache_pct":              {100 * cacheNs / runPath, "%"},
		"share.engine_self_pct":        {100 * (engineNs - streamNs - cacheNs) / runPath, "%"},
		"share.power_thermal_pct":      {100 * powerNs / runPath, "%"},
	} {
		m[k] = v
	}
	return nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Repetitions of the serving-layer micro-replays.
const (
	hitReps     = 50
	coldReplays = 60
	hopReps     = 200
	compileReps = 5
)

// replayServing replays the first traffic batch's requests through the
// serving layers' entry points: a shard handler without a socket (hits
// and cold runs), one router hop, the surrogate store and the traffic
// compiler.
func (b *bench) replayServing(tr *tracer, m map[string]metric) error {
	hot, cold, approx := byClass(b.served)
	if len(hot) == 0 || len(cold) == 0 || len(approx) == 0 {
		return fmt.Errorf("first traffic batch lacks a class")
	}

	// Server handler: cache hits on primed identities, then cold runs,
	// both without a socket, on a fresh shard whose rig is warmed first.
	ref := server.New(server.Config{})
	defer ref.Close()
	h := ref.Handler()
	for _, o := range hot {
		if status, _ := serveDirect(h, o.req.body); status != http.StatusOK {
			return fmt.Errorf("replay prime: status %d", status)
		}
	}
	var hits []float64
	for i := 0; i < hitReps; i++ {
		for _, o := range hot[:min(len(hot), 20)] {
			sp := tr.start("server.hit", o.req.id, 0)
			start := time.Now()
			status, body := serveDirect(h, o.req.body)
			hits = append(hits, float64(time.Since(start).Nanoseconds())/1e3)
			sp.end()
			if status != http.StatusOK || string(body) != string(o.body) {
				b.checks.failf("%s: direct hit differs from the routed answer", o.req.id)
			}
		}
	}
	var colds []float64
	for _, o := range cold[:min(len(cold), coldReplays)] {
		sp := tr.start("server.cold", o.req.id, 0)
		start := time.Now()
		status, body := serveDirect(h, o.req.body)
		colds = append(colds, float64(time.Since(start).Nanoseconds())/1e6)
		sp.end()
		if status != http.StatusOK || string(body) != string(o.body) {
			b.checks.failf("%s: direct cold run differs from the routed answer", o.req.id)
		}
	}

	// One router hop: the same cached bodies, sequentially, routed and
	// direct. Both shards are primed so the direct answer is a hit too.
	for _, url := range b.fleet.shardURLs {
		for _, o := range hot {
			if _, err := postOK(b.client, url, o.req.body, "hop"); err != nil {
				return err
			}
		}
	}
	var routed, direct []float64
	for i := 0; i < hopReps; i++ {
		o := hot[i%len(hot)]
		for _, target := range []struct {
			url string
			out *[]float64
		}{{b.fleet.url, &routed}, {b.fleet.shardURLs[i%fleetShards], &direct}} {
			start := time.Now()
			if _, err := postOK(b.client, target.url, o.req.body, "hop"); err != nil {
				return err
			}
			*target.out = append(*target.out, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}

	// Surrogate store: the approx queries, asked of a shard's store.
	var predicts []float64
	store := b.fleet.shards[0].SurrogateStore()
	rig, err := cmppower.NewExperimentFromScenario(b.chip, scaleOf(b.spec.client(classApprox).Requests[0]))
	if err != nil {
		return err
	}
	answered := 0
	for _, o := range approx {
		var req server.RunRequest
		if err := json.Unmarshal(o.req.body, &req); err != nil {
			return err
		}
		op := rig.Table.Nominal()
		if req.FreqMHz > 0 {
			op = rig.Table.PointFor(req.FreqMHz * 1e6)
		}
		sp := tr.start("surrogate.predict", o.req.id, 0)
		start := time.Now()
		_, _, ok := store.Predict(rig.SurrogateKey(req.App), req.N, op.Freq, op.Volt)
		predicts = append(predicts, float64(time.Since(start).Nanoseconds())/1e3)
		sp.end()
		if ok != (o.source == "surrogate") {
			b.checks.failf("%s: store answer %t, served source %q", o.req.id, ok, o.source)
		}
		if o.source == "surrogate" {
			answered++
		}
	}

	// Traffic compiler: the first batch's schedule.
	var compiles []float64
	for i := 0; i < compileReps; i++ {
		spec := b.spec.spec(batchSeed(b.o.seed, 0))
		sp := tr.start("traffic.compile", "", 0)
		start := time.Now()
		_, err := traffic.Compile(spec)
		compiles = append(compiles, float64(time.Since(start).Nanoseconds())/1e6)
		sp.end()
		if err != nil {
			return err
		}
	}

	for k, v := range map[string]metric{
		"server.hit_us":          {median(hits), "us"},
		"server.cold_ms":         {median(colds), "ms"},
		"server.cache_hit_ratio": {b.cacheHitRatio, "ratio"},
		"server.rejected_share":  {b.rejectedShare, "ratio"},
		"router.hop_us":          {median(routed) - median(direct), "us"},
		"surrogate.predict_us":   {median(predicts), "us"},
		"surrogate.answer_share": {float64(answered) / float64(len(approx)), "ratio"},
		"traffic.compile_ms":     {median(compiles), "ms"},
	} {
		m[k] = v
	}
	return nil
}

// byClass splits successful outcomes by class.
func byClass(outs []outcome) (hot, cold, approx []*outcome) {
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			continue
		}
		switch o.req.class {
		case classHot:
			hot = append(hot, o)
		case classCold:
			cold = append(cold, o)
		case classApprox:
			approx = append(approx, o)
		}
	}
	return hot, cold, approx
}
